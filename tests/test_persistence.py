import random
from pathlib import Path

import pytest

import support
from descell import (
    CellComplex,
    DescriptorBall,
    PersistenceSignature,
    Scenario,
    ScenarioStep,
    assign_probe,
    betti_curve,
    build_scenario,
    compare_signatures,
    homology,
    signature,
    transition_evolution,
)
from descell.descriptive import removed_cells
from descell.errors import (
    ArityMismatchError,
    EmptyOverlapError,
    ForeignCellError,
    MetadataMismatchError,
    MissingCellError,
    NonMonotoneThetaError,
    StepCountMismatchError,
)
from descell.formats import load_scenario

DATA = Path(__file__).parent / "data"
RED = (0.75, 0.75)


def cooling_scenario():
    k = support.square()
    return build_scenario(k, [
        (0.0, support.square_step_table(0.75)),
        (1.0, support.square_step_table(0.5)),
        (2.0, support.square_step_table(0.25)),
    ])


def shrinking_scenario():
    """Temperature fixed, the area of region i shrinking."""
    k = support.square()

    def table(area_i):
        rows = []
        for cid in k.cells:
            if cid in ("tI", "eW", "eS", "vSW"):
                rows.append((cid, (0.25, area_i)))
            else:
                rows.append((cid, (0.75, 0.75)))
        return rows

    return build_scenario(k, [(0.0, table(0.25)), (1.0, table(0.2)), (2.0, table(0.15))])


# -- scenario construction -------------------------------------------------


def test_build_scenario_cooling():
    scen = cooling_scenario()
    assert scen.thetas == (0.0, 1.0, 2.0)
    assert scen.steps[0].probe["tJ"] == (0.75, 0.75)
    assert scen.steps[2].probe["tJ"] == (0.25, 0.75)


def test_single_step_scenario(square):
    scen = build_scenario(square, [(5.0, support.square_step_table(0.5))])
    assert len(scen.steps) == 1


def test_repeated_theta_rejected(square):
    table = support.square_step_table(0.5)
    with pytest.raises(NonMonotoneThetaError):
        build_scenario(square, [(0.0, table), (0.0, table)])


def test_decreasing_theta_rejected(square):
    table = support.square_step_table(0.5)
    with pytest.raises(NonMonotoneThetaError):
        build_scenario(square, [(1.0, table), (0.0, table)])


def test_probe_errors_propagate(square):
    with pytest.raises(MissingCellError):
        build_scenario(square, [(0.0, [("tI", (1.0, 1.0))])])


def unary_table(k):
    return [(cid, (0.5,)) for cid in k.cells]


@pytest.mark.parametrize("steps,error,message", [
    ([(0.0, 2), (0.0, 2)], NonMonotoneThetaError, "theta 0.0 does not increase past 0.0"),
    ([(1.0, 2), (0.5, 2)], NonMonotoneThetaError, "theta 0.5 does not increase past 1.0"),
    ([(0.0, 2), (1.0, 2), (2.0, 1)], ArityMismatchError,
     "step at theta 2.0 has arity 1, expected 2"),
    ([(0.0, 1), (1.0, 2), (1.0, 1)], ArityMismatchError,
     "step at theta 1.0 has arity 2, expected 1"),
    ([(0.0, 2), (-1.0, 1)], NonMonotoneThetaError, "theta -1.0 does not increase past 0.0"),
])
def test_hand_built_scenario_keeps_the_invariants(square, steps, error, message):
    """A Scenario built directly raises what build_scenario raises."""
    tables = [(theta, support.square_step_table(0.5) if arity == 2 else unary_table(square))
              for theta, arity in steps]
    with pytest.raises(error) as built:
        build_scenario(square, tables)
    with pytest.raises(error) as direct:
        Scenario(square, tuple(ScenarioStep(theta, assign_probe(square, table))
                               for theta, table in tables))
    assert str(built.value) == str(direct.value) == message


def test_hand_built_scenario_needs_probes_on_its_complex(square, disk3_probe):
    """A step whose probe describes another complex is refused; one on an
    equal complex built separately is accepted."""
    with pytest.raises(ForeignCellError) as direct:
        Scenario(square, (ScenarioStep(0.0, disk3_probe),))
    assert str(direct.value) == "step at theta 0.0 has a probe on a different complex"
    step = ScenarioStep(0.0, assign_probe(support.square(), support.square_step_table(0.5)))
    assert step.probe.complex is not square
    assert signature(Scenario(square, (step,))) == signature(build_scenario(
        square, [(0.0, support.square_step_table(0.5))]))


# -- betti curves -----------------------------------------------------------


def test_red_curve_is_1_0_0():
    scen = cooling_scenario()
    curve = betti_curve(scen, DescriptorBall(RED, 0.0), 1, "remove", 2)
    assert curve == [(0.0, 1), (1.0, 0), (2.0, 0)]


def test_empty_ball_gives_classical_curve(square):
    scen = cooling_scenario()
    base = homology(square).betti(1)
    curve = betti_curve(scen, DescriptorBall((9.0, 9.0), 0.0), 1, "remove", 2)
    assert curve == [(0.0, base), (1.0, base), (2.0, base)]


def test_retain_full_image_gives_classical_curve(square):
    scen = cooling_scenario()
    for p in (0, 1, 2):
        base = homology(square).betti(p)
        curve = betti_curve(scen, DescriptorBall((0.5, 0.5), 10.0), p, "retain", 2)
        assert [b for _, b in curve] == [base] * 3


def test_betti_curve_negative_dimension():
    with pytest.raises(ValueError, match="dimension must be non-negative, got -1"):
        betti_curve(cooling_scenario(), DescriptorBall(RED, 0.0), -1)


def test_step_independence():
    scen = cooling_scenario()
    full = betti_curve(scen, DescriptorBall(RED, 0.0), 1, "remove", 2)
    for i, step in enumerate(scen.steps):
        solo = build_scenario(
            scen.complex,
            [(step.theta, sorted((c, v) for c, v in step.probe.values.items()))])
        alone = betti_curve(solo, DescriptorBall(RED, 0.0), 1, "remove", 2)
        assert alone == [full[i]]


# -- signatures --------------------------------------------------------------


def test_signature_shape_and_red_curve():
    sig = signature(cooling_scenario(), 0.0, "remove", max_p=2)
    assert sig.thetas == (0.0, 1.0, 2.0)
    assert sig.alphas == ((0.25, 0.25), (0.25, 0.75), (0.5, 0.75), (0.75, 0.75))
    assert sig.dims == (0, 1, 2)
    assert len(sig) == 36
    assert sig.curve(RED, 1) == [(0.0, 1), (1.0, 0), (2.0, 0)]
    # the other region opens its own hole at every step
    assert sig.curve((0.25, 0.25), 1) == [(0.0, 1), (1.0, 1), (2.0, 1)]


def test_signature_on_invalid_base_entry_that_removes_the_defect():
    # Face t hangs on the single edge x, so the base fails validation and
    # its edge column is a pivot row of d_2 that d_1 does not make
    # dependent: clearing it on the base would undercount rank d_1. The
    # entry that removes t is a valid segment.
    k = CellComplex({"a": 0, "b": 0, "x": 1, "t": 2},
                    {("x", "a"): 1, ("x", "b"): 1, ("t", "x"): 1})
    assert [v.code for v in k.validate()] == ["composite-odd"] * 2
    table = [(cid, (1.0 if cid == "t" else 0.0,)) for cid in k.cells]
    sig = signature(build_scenario(k, [(0.0, table)]))
    assert list(sig.rows()) == [(0.0, (1.0,), 0, 1), (0.0, (1.0,), 1, 0), (0.0, (1.0,), 2, 0)]


@pytest.mark.parametrize("kwargs,p,mode", [
    ({"removal_dim": -1}, -1, "remove"),
    ({"mode": "bogus", "removal_dim": 5}, 5, "bogus"),
    ({"mode": "bogus"}, 2, "bogus"),
])
def test_signature_checks_mode_and_removal_dim_without_entries(kwargs, p, mode):
    """No 5-cell and no (-1)-cell gives no entry, yet a bad setting
    raises what ``removed_cells`` raises for it."""
    scenario, diags = load_scenario(str(DATA / "cooling.scenario"))
    assert scenario is not None, diags
    with pytest.raises(ValueError) as expected:
        removed_cells(scenario.steps[0].probe, DescriptorBall((0.0,), 0.0), p, mode)
    with pytest.raises(ValueError) as raised:
        signature(scenario, **kwargs)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("kwargs,message", [
    ({"removal_dim": -1}, "dimension must be non-negative, got -1"),
    ({"mode": "bogus", "removal_dim": -1}, "mode must be 'remove' or 'retain', got 'bogus'"),
])
def test_signature_checks_mode_and_removal_dim_without_steps(kwargs, message):
    """A scenario with no steps has no carver, yet a bad setting raises in
    ``signature`` and in ``betti_curve``."""
    scenario = Scenario(support.square(), ())
    with pytest.raises(ValueError) as raised:
        signature(scenario, **kwargs)
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        betti_curve(scenario, DescriptorBall(RED, 0.0), 1, **kwargs)
    assert str(raised.value) == message


def test_signature_tests_each_ball_once_per_distinct_value(monkeypatch):
    """On a 216-cell torus, ``signature`` builds one ball per alpha and
    calls ``contains`` at most once per entry and distinct value of the
    entry's step, not once per entry and 2-cell."""
    k = support.grid_surface(6)
    assert len(k) == 216
    rng = random.Random(4)
    tris = k.cells_of_dim(2)
    steps = []
    for s in range(4):
        table = {cid: (rng.randrange(64) / 64,) for cid in k.cells}
        table.update({cid: (max(0, i % 16 - 2 * s) / 8,) for i, cid in enumerate(tris)})
        steps.append((float(s), sorted(table.items())))
    scenario = build_scenario(k, steps)
    distinct = [len({step.probe[cid] for cid in tris}) for step in scenario.steps]
    counts = {"balls": 0, "contains": 0}
    init, contains = DescriptorBall.__init__, DescriptorBall.contains

    def counted_init(self, *args, **kwargs):
        counts["balls"] += 1
        init(self, *args, **kwargs)

    def counted_contains(self, value):
        counts["contains"] += 1
        return contains(self, value)

    monkeypatch.setattr(DescriptorBall, "__init__", counted_init)
    monkeypatch.setattr(DescriptorBall, "contains", counted_contains)
    sig = signature(scenario, 0.25)
    assert counts["balls"] == len(sig.alphas) == 16
    assert counts["contains"] <= len(sig.alphas) * sum(distinct) < len(sig.alphas) * 4 * 72


def test_constant_scenario_constant_curves(square):
    table = support.square_step_table(0.5)
    scen = build_scenario(square, [(0.0, table), (1.0, table), (2.0, table)])
    sig = signature(scen, 0.0, "remove", max_p=2)
    for alpha in sig.alphas:
        for p in sig.dims:
            values = [b for _, b in sig.curve(alpha, p)]
            assert len(set(values)) == 1


def test_signature_deterministic():
    s1 = signature(cooling_scenario(), 0.0, "remove", max_p=2)
    s2 = signature(cooling_scenario(), 0.0, "remove", max_p=2)
    assert s1 == s2
    assert list(s1.rows()) == list(s2.rows())


def test_signature_rows_are_ordered():
    sig = signature(cooling_scenario(), 0.0, "remove", max_p=2)
    rows = list(sig.rows())
    keys = [(theta, alpha, p) for theta, alpha, p, _ in rows]
    assert keys == sorted(keys)


# -- transition traces --------------------------------------------------------


def test_trace_temperature_shrinks_monotonically():
    scen = cooling_scenario()
    trace = transition_evolution(scen, support.REGION_I, support.REGION_J)
    assert trace.overlap == ("eD", "vNW", "vSE")
    temps = [v for _, v in trace.component_series(0)]
    assert temps == [-0.5, -0.25, 0.0]
    assert temps == sorted(temps)
    areas = [v for _, v in trace.component_series(1)]
    assert areas == [-0.5, -0.5, -0.5]


def test_trace_area_component_changes_when_area_shrinks():
    scen = shrinking_scenario()
    trace = transition_evolution(scen, support.REGION_I, support.REGION_J)
    temps = [v for _, v in trace.component_series(0)]
    areas = [v for _, v in trace.component_series(1)]
    assert temps == [-0.5, -0.5, -0.5]
    assert areas == [-0.5, -0.55, -0.6]


def test_trace_zero_when_descriptions_match(square):
    table = [(cid, (1.0, 2.0)) for cid in square.cells]
    scen = build_scenario(square, [(0.0, table)])
    trace = transition_evolution(scen, support.REGION_I, support.REGION_J)
    assert trace.entries[0][1] == (0.0, 0.0)


def test_trace_requires_overlap(square):
    scen = cooling_scenario()
    with pytest.raises(EmptyOverlapError):
        transition_evolution(scen, {"tI"}, {"tJ"})


def test_traces_telescope_per_step():
    scen = cooling_scenario()
    r1 = support.REGION_I
    r2 = support.REGION_J
    r3 = frozenset({"eD", "vNW", "vSE"})  # the shared spine as its own region
    t12 = transition_evolution(scen, r1, r2)
    t23 = transition_evolution(scen, r2, r3)
    t13 = transition_evolution(scen, r1, r3)
    for k in range(len(scen.steps)):
        v12 = t12.entries[k][1]
        v23 = t23.entries[k][1]
        v13 = t13.entries[k][1]
        assert tuple(a + b for a, b in zip(v12, v23)) == v13


# -- signature comparison -------------------------------------------------------


def random_signature(rng, thetas=3, n_alphas=2):
    alphas = sorted({tuple(support.grid_value(rng) for _ in range(2))
                     for _ in range(n_alphas)})
    dims = (0, 1)
    table = {}
    for ti in range(thetas):
        for alpha in alphas:
            for p in dims:
                table[(ti, alpha, p)] = rng.randint(0, 3)
    return PersistenceSignature(
        mode="remove", delta=0.0, removal_dim=2,
        thetas=tuple(float(t) for t in range(thetas)),
        alphas=tuple(alphas), dims=dims, table=table)


def test_distance_to_self_is_zero():
    sig = signature(cooling_scenario(), 0.0, "remove", max_p=2)
    assert compare_signatures(sig, sig) == 0


def test_distance_single_entry():
    rng = random.Random(67)
    s1 = random_signature(rng)
    table = dict(s1.table)
    key = next(iter(table))
    table[key] += 1
    s2 = PersistenceSignature(
        mode=s1.mode, delta=s1.delta, removal_dim=s1.removal_dim,
        thetas=s1.thetas, alphas=s1.alphas, dims=s1.dims, table=table)
    assert compare_signatures(s1, s2) == 1


def test_distance_metric_laws():
    rng = random.Random(71)
    for _ in range(15):
        a = random_signature(rng)
        b = random_signature(rng)
        c = random_signature(rng)
        assert compare_signatures(a, b) >= 0
        assert compare_signatures(a, b) == compare_signatures(b, a)
        assert compare_signatures(a, a) == 0
        assert (compare_signatures(a, c)
                <= compare_signatures(a, b) + compare_signatures(b, c))


def test_distance_metadata_mismatch():
    rng = random.Random(73)
    s1 = random_signature(rng)
    s2 = PersistenceSignature(
        mode="retain", delta=s1.delta, removal_dim=s1.removal_dim,
        thetas=s1.thetas, alphas=s1.alphas, dims=s1.dims, table=dict(s1.table))
    with pytest.raises(MetadataMismatchError):
        compare_signatures(s1, s2)


def test_distance_step_count_mismatch():
    rng = random.Random(79)
    s1 = random_signature(rng, thetas=3)
    s2 = random_signature(rng, thetas=2)
    with pytest.raises(StepCountMismatchError):
        compare_signatures(s1, s2)
