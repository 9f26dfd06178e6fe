"""Differential tests: ``removed_cells`` against the earlier per-cell one.

``descriptive_reference`` is ``removed_cells`` as it was when it called
``DescriptorBall.contains`` on every p-cell and ran the coface sweep for
every ball. Today's ``removed_cells`` and the carver it calls group the
p-cells by value: at arity 1 a ball selects the index range of the
sorted values that it holds, found by bisection, and at other arities
it tests each distinct value once. Both must give the same removed set, or raise the same exception with the same
message, on valid and corrupted complexes, in both modes, at every
removal dimension, for balls of the probe's arity and of another one, on
probes that hold both -0.0 and 0.0, and on hand-built probes that hold
nan and infinite components, with balls of infinite radius among them.
The carver's masks are compared through the id conversion that
``removed_cells`` uses. Hand-built complexes with same-dimension, upward,
dangling and undeclared incidences pin the cascade where the sweep's
order decides what it removes.
``signature`` on such probes is compared with ``signature_reference``.
"""

import math
import random

import pytest

import descriptive_reference
import signature_reference
import support
from descell import (
    CellComplex,
    DescriptorBall,
    ProbeAssignment,
    Scenario,
    ScenarioStep,
    alpha_spectrum,
    assign_probe,
    signature,
)
from descell.descriptive import _carver, _check_carving, removed_cells
from descell.homology import _removed_ids

MODES = ("remove", "retain")
DELTAS = (0.0, 0.25, 0.6)
# Few levels, signed zeros among them, so values repeat and -0.0 meets 0.0.
LEVELS = (-0.0, 0.0, 0.25, -0.25, 0.5, 1.0)
CORRUPTIONS = ("even-degree", "dangling-face", "wrong-dimension", "same-dimension")


def outcome(carve, *args):
    try:
        return carve(*args)
    except Exception as exc:  # which exception, and its message, is the outcome compared
        return type(exc), str(exc)


def corrupt(rng, k, kind):
    """A copy of ``k`` with one defect of the given kind, where it has room."""
    cells = dict(k.cells)
    incidence = dict(k.incidence)
    ids = sorted(cells)
    cid = rng.choice(ids)
    if kind == "even-degree":
        odd = sorted(key for key, deg in incidence.items() if deg % 2)
        if odd:
            incidence[rng.choice(odd)] = 2
    elif kind == "dangling-face":
        incidence[(cid, "ghost")] = 1
        if rng.random() < 0.5:
            incidence[("phantom", cid)] = 1
    elif kind == "wrong-dimension":
        # A face two or more dimensions down, or one above, which the
        # ascending sweep settles in a different order.
        wrong = [f for f in ids if cells[f] != cells[cid] - 1 and cells[f] != cells[cid]]
        if wrong:
            incidence[(cid, rng.choice(wrong))] = 1
    else:
        same = [f for f in ids if cells[f] == cells[cid] and f != cid]
        if same:
            incidence[(cid, rng.choice(same))] = 1
    return CellComplex(cells, incidence)


def random_base(rng, i):
    roll = i % 3
    if roll == 0:
        k = support.random_simplicial_complex(rng, max_vertices=7)
    elif roll == 1:
        k = support.random_cw_complex(rng, max_cells=24)
    else:
        return support.random_incidence_complex(rng, max_cells=16)
    for _ in range(rng.randint(0, 2)):
        k = corrupt(rng, k, rng.choice(CORRUPTIONS))
    return k


def random_probe(rng, k, arity):
    return assign_probe(k, support.random_probe_table(
        rng, k, arity, lambda r: r.choice(LEVELS)))


def balls_for(rng, probe, p, delta):
    """Balls at every value of the probe's p-cells and at a few other
    centres, in random order with repeats, plus one of another arity."""
    centres = alpha_spectrum(probe, p)
    centres += [tuple(rng.choice(LEVELS) + 0.1 for _ in range(probe.arity))
                for _ in range(2)]
    balls = [DescriptorBall(c, delta) for c in centres]
    balls += rng.sample(balls, min(3, len(balls)))
    rng.shuffle(balls)
    balls.append(DescriptorBall((0.0,) * (probe.arity + 1), delta))
    return balls


def assert_same(rng, probe, p, mode, delta, balls=None):
    carve = outcome(lambda: _check_carving(p, mode) or _carver(probe, p, mode)[1])
    for ball in balls_for(rng, probe, p, delta) if balls is None else balls:
        expected = outcome(descriptive_reference.removed_cells, probe, ball, p, mode)
        assert outcome(removed_cells, probe, ball, p, mode) == expected
        if callable(carve):  # one carver for every ball, as ``signature`` holds one per step
            # Its masks, read as ids through the conversion ``removed_cells`` uses.
            assert outcome(lambda b: _removed_ids(probe.complex, carve(b)), ball) == expected
        else:
            assert carve == expected


def test_removed_cells_match_reference_on_corrupted_corpus():
    rng = random.Random(15)
    signed_zero_probes = 0
    for i in range(150):
        k = random_base(rng, i)
        probe = random_probe(rng, k, rng.choice((1, 2)))
        for p in range(0, k.max_dim + 2):
            values = [probe[c] for c in k.cells_of_dim(p)]
            signed = [v for v in values if 0.0 in v]
            if len({repr(v) for v in signed}) > len(set(signed)):
                signed_zero_probes += 1
            for mode in MODES:
                for delta in DELTAS:
                    assert_same(rng, probe, p, mode, delta)
    assert signed_zero_probes > 20


def test_bad_mode_and_dimension_raise_as_before():
    rng = random.Random(3)
    k = support.disk3()
    probe = random_probe(rng, k, 1)
    for p, mode in ((-1, "remove"), (2, "bogus"), (-1, "bogus"), (7, "bogus")):
        assert_same(rng, probe, p, mode, 0.0)


# Hand-built complexes with malformed incidences, on which the order of
# the ascending sweep (dimension, then basis position) decides what the
# cascade removes.
MALFORMED_COMPLEXES = {
    # The 3-cell c2 records c1, which sorts before it, and c3, which sorts
    # after it; c1 and c3 each lie on a triangle of their own.
    "same-dimension faces": (
        {"a": 0, "e": 1, "t1": 2, "t3": 2, "c1": 3, "c2": 3, "c3": 3},
        {("e", "a"): 2, ("t1", "e"): 1, ("t3", "e"): 1,
         ("c1", "t1"): 2, ("c3", "t3"): 2, ("c2", "c1"): 1, ("c2", "c3"): 1}),
    # The triangle t records the 3-cell c, one dimension above it.
    "a face above": (
        {"a": 0, "e": 1, "f": 1, "s": 2, "t": 2, "c": 3},
        {("e", "a"): 2, ("f", "a"): 2, ("s", "e"): 1, ("t", "f"): 1,
         ("c", "s"): 2, ("t", "c"): 1}),
    # The edge e records the undeclared face ghost.
    "a dangling face": (
        {"a": 0, "e": 1, "t": 2},
        {("e", "a"): 2, ("e", "ghost"): 1, ("t", "e"): 1}),
    # The undeclared cell phantom records the edge e.
    "an undeclared cell": (
        {"a": 0, "e": 1, "t": 2},
        {("e", "a"): 2, ("t", "e"): 1, ("phantom", "e"): 1, ("phantom", "t"): 1}),
}


def test_cascade_follows_the_sweep_order_on_hand_built_complexes():
    for name, (cells, incidence) in MALFORMED_COMPLEXES.items():
        k = CellComplex(cells, incidence)
        ids = sorted(cells)
        probe = assign_probe(k, [(cid, (float(i),)) for i, cid in enumerate(ids)])
        for p in range(k.max_dim + 1):
            for mode in MODES:
                for i in range(len(ids)):
                    ball = DescriptorBall((float(i),), 0.0)
                    assert removed_cells(probe, ball, p, mode) == \
                        descriptive_reference.removed_cells(probe, ball, p, mode), (name, p, mode, i)
    # Removing t1 removes c1, and then c2 after it; removing t3 removes c3
    # but not c2, which comes before c3.
    cells, incidence = MALFORMED_COMPLEXES["same-dimension faces"]
    k = CellComplex(cells, incidence)
    probe = assign_probe(k, [(cid, (float(cid == "t1"),)) for cid in cells])
    assert removed_cells(probe, DescriptorBall((1.0,), 0.0), 2) == {"t1", "c1", "c2"}
    assert removed_cells(probe, DescriptorBall((0.0,), 0.0), 2) == {"t3", "c3"}


def test_signed_zeros_select_together():
    k = support.disk3()
    values = {cid: (0.5,) for cid in k.cells}
    values.update({"A-B-C": (-0.0,), "B-C-E": (0.0,)})
    probe = assign_probe(k, sorted(values.items()))
    for centre in ((-0.0,), (0.0,)):
        for mode in MODES:
            ball = DescriptorBall(centre, 0.0)
            assert removed_cells(probe, ball, 2, mode) == \
                descriptive_reference.removed_cells(probe, ball, 2, mode)
    assert removed_cells(probe, DescriptorBall((0.0,), 0.0)) == {"A-B-C", "B-C-E"}


def test_mixed_arity_probe_raises_at_the_same_cell():
    """A hand-built probe may hold values of two arities; the first
    p-cell, in id order, whose value has another arity than the ball
    names the error, as it did when every cell was tested."""
    rng = random.Random(8)
    for _ in range(40):
        k = support.random_cw_complex(rng, max_cells=20)
        values = {cid: tuple(rng.choice(LEVELS) for _ in range(rng.choice((1, 2))))
                  for cid in k.cells}
        probe = ProbeAssignment(k, values, 1)
        for p in range(0, k.max_dim + 2):
            for mode in MODES:
                assert_same(rng, probe, p, mode, 0.25)


INF = float("inf")
RADII = (0.0, 0.25, 0.6, INF)


def non_finite_value(rng, arity, nan_share):
    """A value of the LEVELS whose first component is nan (the shared
    ``math.nan`` or a fresh one) with probability ``nan_share``, or else
    sometimes infinite; a second component may be nan or infinite too."""
    value = [rng.choice(LEVELS) for _ in range(arity)]
    roll = rng.random()
    if roll < nan_share:
        value[0] = rng.choice((math.nan, float("nan")))
    elif roll < nan_share + 0.15:
        value[0] = rng.choice((INF, -INF))
    if arity > 1 and rng.random() < 0.2:
        value[1] = rng.choice((math.nan, INF, -INF))
    return tuple(value)


def non_finite_probe(rng, k, arity, nan_share=0.3):
    """A hand-built probe (``ProbeAssignment`` checks nothing) on ``k``."""
    return ProbeAssignment(k, {cid: non_finite_value(rng, arity, nan_share)
                               for cid in k.cells}, arity)


def finite_balls(rng, probe, p):
    """Balls of every radius in RADII at the finite values of the p-cells
    and at a few other centres, plus one of another arity."""
    centres = [v for v in alpha_spectrum(probe, p) if all(map(math.isfinite, v))]
    centres += [tuple(rng.choice(LEVELS) + 0.1 for _ in range(probe.arity))
                for _ in range(2)]
    balls = [DescriptorBall(c, r) for c in centres for r in RADII]
    rng.shuffle(balls)
    balls.append(DescriptorBall((0.0,) * (probe.arity + 1), rng.choice(RADII)))
    return balls


def test_nan_and_infinite_components_select_as_before():
    rng = random.Random(23)
    for i in range(120):
        k = random_base(rng, i)
        probe = non_finite_probe(rng, k, rng.choice((1, 2)))
        for p in range(0, k.max_dim + 2):
            balls = finite_balls(rng, probe, p)
            for mode in MODES:
                assert_same(rng, probe, p, mode, None, balls)


def test_nan_triangles_on_grid_surfaces():
    """About 30% of the triangles hold a nan first component."""
    rng = random.Random(200)
    k = support.grid_surface(4)
    for _ in range(200):
        probe = non_finite_probe(rng, k, 1, nan_share=0.3)
        balls = [DescriptorBall((rng.choice(LEVELS),), rng.choice(RADII)) for _ in range(4)]
        for mode in MODES:
            assert_same(rng, probe, 2, mode, None, balls)


@pytest.mark.parametrize("arity", [1, 2])
def test_values_at_the_rounded_window_edges_select_as_before(arity):
    """Decimal centres and radii, and values within an ulp of the
    computed c0 - r and c0 + r: ``math.dist`` puts many of them inside
    the ball though they lie outside the window as computed. At arity 1
    the carver bisects for the index range of the values the ball holds,
    and at arity 2 it calls ``contains`` on every distinct value."""
    rng = random.Random(12)
    k = support.disk3()
    edges = k.cells_of_dim(1)
    for _ in range(300):
        c0, r = round(rng.uniform(-2, 2), rng.randint(1, 3)), round(rng.uniform(0, 1), 2)
        edge_values = [v for end in (c0 - r, c0 + r)
                       for v in (math.nextafter(end, -INF), end, math.nextafter(end, INF))]
        values = {cid: (rng.choice(edge_values), rng.choice(LEVELS))[:arity] for cid in edges}
        values.update({cid: (0.5, 0.5)[:arity] for cid in k.cells if cid not in values})
        probe = ProbeAssignment(k, values, arity)
        balls = [DescriptorBall((c0, rng.choice((0.0, 0.5)))[:arity], r) for _ in range(2)]
        balls.append(DescriptorBall((c0, 0.0)[:arity], r))
        for mode in MODES:
            assert_same(rng, probe, 1, mode, None, balls)


def test_signature_on_non_finite_probes_matches_reference():
    """A non-finite value at the removal dimension is an alpha that cannot
    centre a ball, so the table raises ValueError, as before; a table
    whose non-finite values all lie at other dimensions is built."""
    rng = random.Random(31)
    raised = built = 0
    for i in range(60):
        k = random_base(rng, i)
        arity = rng.choice((1, 2))
        steps = (ScenarioStep(0.0, non_finite_probe(rng, k, arity)),
                 ScenarioStep(1.0, random_probe(rng, k, arity)))
        scen = Scenario(k, steps)
        for removal_dim in (0, 1, 2):
            for mode in MODES:
                delta = rng.choice(RADII)
                got = outcome(signature, scen, delta, mode, None, removal_dim)
                assert got == outcome(signature_reference.signature,
                                      scen, delta, mode, None, removal_dim)
                raised += isinstance(got, tuple)
                built += not isinstance(got, tuple)
    assert raised > 50 and built > 50, (raised, built)
