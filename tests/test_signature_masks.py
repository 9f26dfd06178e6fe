"""Differential tests: ``signature``, ``betti_curve`` and
``descriptive_homology`` against a direct loop that builds each
sub-complex.

``signature`` evaluates every (step, alpha) entry as a cell mask on the
base complex: it validates the base once, reduces each of its boundary
maps once, and ranks the surviving columns of each entry from the
kernel bases of those reductions, with no reduction per removed set.
``descriptive_homology`` reduces the same masked maps, generators
included. The reference below builds each sub-complex with
``derive_subcomplex`` and runs ``homology`` on it, entry by entry. Both
must give the same rows (or the same text, generators included), or
raise the same exception with the same message, on valid bases and on
bases corrupted by an even degree, a dangling face or an incidence
between the wrong dimensions.
"""

import importlib
import itertools
import random

import pytest

import support
from descell import (
    CellComplex,
    DescriptorBall,
    alpha_spectrum,
    betti_curve,
    build_scenario,
    derive_subcomplex,
    descriptive_homology,
    homology,
    signature,
)
from descell.descriptive import removed_cells

engine = importlib.import_module("descell.homology")

CORRUPTIONS = ("even-degree", "dangling-face", "wrong-dimension")


def coarse_value(rng):
    # Four levels, so balls often select the same cells and entries repeat.
    return rng.randrange(0, 4) / 4


def corrupt(rng, k, kind):
    """A copy of ``k`` with one defect of the given kind, where it has room."""
    cells = dict(k.cells)
    incidence = dict(k.incidence)
    if kind == "even-degree":
        odd = sorted(key for key, deg in incidence.items() if deg % 2)
        if odd:
            incidence[rng.choice(odd)] = 2
    elif kind == "dangling-face":
        cid = rng.choice(sorted(cells))
        incidence[(cid, "ghost")] = 1
        if rng.random() < 0.5:
            incidence[("phantom", cid)] = 1
    else:
        cid = rng.choice(sorted(cells))
        wrong = [f for f in sorted(cells) if cells[f] != cells[cid] - 1]
        incidence[(cid, rng.choice(wrong))] = 1
    return CellComplex(cells, incidence)


def random_base(rng, i):
    k = (support.random_cw_complex(rng, max_cells=30) if i % 2
         else support.random_simplicial_complex(rng, max_vertices=7))
    if i % 3:
        k = corrupt(rng, k, CORRUPTIONS[i % len(CORRUPTIONS)])
    return k


def random_scenario(rng, k):
    arity = rng.choice((1, 2))
    steps = [(float(t), support.random_probe_table(rng, k, arity, coarse_value))
             for t in range(rng.randint(1, 3))]
    return build_scenario(k, steps)


def outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # the type and message are what is compared
        return None, (type(exc), str(exc))


def sub_homology(probe, ball, removal_dim, mode, max_p):
    """The reference for one entry: build the sub-complex, then reduce it
    up to ``max_p``, by default the base's top dimension."""
    sub = derive_subcomplex(probe, ball, removal_dim, mode)
    return homology(sub.complex, max_p=probe.complex.max_dim if max_p is None else max_p)


def reference_rows(scenario, delta, mode, max_p, removal_dim):
    if max_p is None:
        max_p = scenario.complex.max_dim
    alphas = sorted({a for step in scenario.steps
                     for a in alpha_spectrum(step.probe, removal_dim)})
    rows = []
    for step in scenario.steps:
        for alpha in alphas:
            hom = sub_homology(step.probe, DescriptorBall(alpha, delta),
                               removal_dim, mode, max_p)
            rows.extend((step.theta, alpha, p, hom.betti(p)) for p in range(max_p + 1))
    return rows


def corpus(seed, n):
    rng = random.Random(seed)
    for i in range(n):
        k = random_base(rng, i)
        yield rng, k, random_scenario(rng, k)


def test_signature_matches_per_entry_homology():
    outcomes = {"rows": 0, "invalid": 0}
    for rng, k, scen in corpus(2024, 500):
        for removal_dim in (0, 1, 2):
            mode = rng.choice(("remove", "retain"))
            delta = rng.choice((0.0, 0.25, 0.6))
            max_p = rng.choice((None, 0, 1, 3))
            got = outcome(lambda: list(signature(scen, delta, mode, max_p, removal_dim).rows()))
            want = outcome(lambda: reference_rows(scen, delta, mode, max_p, removal_dim))
            assert got == want, (k, mode, delta, max_p, removal_dim)
            outcomes["rows" if want[1] is None else "invalid"] += 1
    # Both paths are exercised: plenty of tables, plenty of corrupt entries.
    assert outcomes["rows"] > 800 and outcomes["invalid"] > 200, outcomes


def test_betti_curve_matches_per_entry_homology():
    for rng, k, scen in corpus(77, 120):
        removal_dim = rng.randint(0, 2)
        mode = rng.choice(("remove", "retain"))
        step_probe = scen.steps[0].probe
        alpha = rng.choice(alpha_spectrum(step_probe, removal_dim) or [(0.0,) * step_probe.arity])
        ball = DescriptorBall(alpha, rng.choice((0.0, 0.3)))
        for p in (0, 1, 2):
            got = outcome(lambda: betti_curve(scen, ball, p, mode, removal_dim))
            want = outcome(lambda: [
                (step.theta, sub_homology(step.probe, ball, removal_dim, mode, p).betti(p))
                for step in scen.steps])
            assert got == want, (k, mode, alpha, p, removal_dim)


def test_subcomplex_violations_are_the_surviving_base_violations():
    """The rule the mask path relies on: a derived sub-complex fails
    validation with exactly the base's violations whose cells all
    survive, in order, less the dangling-face ones."""
    seen = 0
    for rng, k, scen in corpus(99, 240):
        base = k.validate()
        probe = scen.steps[-1].probe
        for removal_dim in (0, 1, 2):
            for alpha in alpha_spectrum(probe, removal_dim):
                for mode in ("remove", "retain"):
                    sub = derive_subcomplex(probe, DescriptorBall(alpha, 0.25), removal_dim, mode)
                    expected = [v for v in base if v.code != "dangling-face"
                                and sub.removed.isdisjoint(v.cells)]
                    assert sub.complex.validate() == expected
                    seen += bool(expected)
    assert seen > 100


def test_descriptive_homology_matches_built_sub_complex():
    rng = random.Random(5)
    probes = [scen.steps[-1].probe for _, _, scen in corpus(41, 150)]
    for base in (support.grid_surface(4), support.grid_surface(4, flip=True),
                 support.glued_surface("rp2", 3), support.glued_surface("sphere", 3)):
        probes.append(random_scenario(rng, base).steps[0].probe)
    outcomes = {"text": 0, "invalid": 0}
    for probe in probes:
        for removal_dim in (0, 1, 2):
            alphas = alpha_spectrum(probe, removal_dim) or [(0.0,) * probe.arity]
            for alpha, mode, delta, max_p in itertools.product(
                    alphas, ("remove", "retain"), (0.0, 0.25), (None, 0, 1, 3)):
                ball = DescriptorBall(alpha, delta)
                got = outcome(lambda: descriptive_homology(
                    probe, ball, removal_dim, mode, max_p).to_text(include_generators=True))
                want = outcome(lambda: sub_homology(
                    probe, ball, removal_dim, mode, max_p).to_text(include_generators=True))
                assert got == want, (probe.complex, alpha, mode, delta, max_p, removal_dim)
                outcomes["text" if want[1] is None else "invalid"] += 1
    assert outcomes["text"] > 10000 and outcomes["invalid"] > 2000, outcomes


def test_descriptive_homology_builds_no_complex_and_validates_once(monkeypatch):
    k = support.grid_surface(5)
    probe = support.random_probe(random.Random(3), k, 1, coarse_value)
    validations, inits = [], []
    validate, init = CellComplex.validate, CellComplex.__init__
    monkeypatch.setattr(CellComplex, "validate",
                        lambda self, *a: validations.append(1) or validate(self, *a))
    monkeypatch.setattr(CellComplex, "__init__",
                        lambda self, *a: inits.append(1) or init(self, *a))
    for mode in ("remove", "retain"):
        validations.clear()
        hom = descriptive_homology(probe, DescriptorBall((0.5,), 0.25), 2, mode)
        assert hom.records and len(validations) == 1 and not inits


@pytest.mark.parametrize("mode", ["remove", "retain"])
def test_signature_validates_once_and_reduces_only_the_base(mode, monkeypatch):
    k = support.grid_surface(6)
    rng = random.Random(8)
    tables = [support.random_probe_table(rng, k, 1, coarse_value) for _ in range(2)]
    # Steps 0 and 1 share a table, as do steps 2 and 3, so entries repeat.
    scen = build_scenario(k, [(float(t), tables[t // 2]) for t in range(4)])
    removed = {removed_cells(step.probe, DescriptorBall(alpha, 0.0), 2, mode)
               for step in scen.steps for alpha in alpha_spectrum(step.probe, 2)}
    validations, inits, reductions = [], [], []
    validate, init, reduce = CellComplex.validate, CellComplex.__init__, engine._reduce
    monkeypatch.setattr(CellComplex, "validate",
                        lambda self, *a: validations.append(1) or validate(self, *a))
    monkeypatch.setattr(CellComplex, "__init__",
                        lambda self, *a: inits.append(1) or init(self, *a))

    def counted(pairs):
        reductions.append(list(pairs))
        return reduce(reductions[-1])

    monkeypatch.setattr(engine, "_reduce", counted)
    sig = signature(scen, 0.0, mode)
    assert len(sig) == 4 * 4 * 3
    assert len(validations) == 1 and not inits
    # One reduction per boundary map of the base that can lose a cell at
    # removal dim 2 (d_2 and d_3; d_0 and d_1 are only ranked), and none
    # per entry, though several distinct removed sets change the map d_2.
    assert 2 < len(removed) <= 8
    assert reductions == [list(enumerate(k.boundary_columns(q))) for q in (2, 3)]


@pytest.mark.parametrize("compute", [
    lambda scen: homology(scen.complex, max_p=-1),
    lambda scen: descriptive_homology(scen.steps[0].probe, DescriptorBall((0.5,), 0.25), 2,
                                      "remove", max_p=-1),
    lambda scen: signature(scen, 0.0, "remove", max_p=-1),
], ids=["homology", "descriptive_homology", "signature"])
def test_negative_max_p_is_rejected(compute):
    k = support.disk3()
    scen = build_scenario(k, [(0.0, support.random_probe_table(random.Random(1), k, 1))])
    with pytest.raises(ValueError, match="dimension must be non-negative, got -1"):
        compute(scen)
