import random
import tracemalloc

import pytest

import support
from descell import (
    Chart,
    GaugeViolation,
    TransitionFunction,
    assign_probe,
    make_chart,
    transition,
    verify_cocycle,
    with_overrides,
)
from descell.errors import (
    ArityMismatchError,
    EmptyChartError,
    EmptyOverlapError,
    ForeignCellError,
)


def scalar_probe(k, offset=0.0):
    return assign_probe(k, [(cid, (offset + i / 8,))
                            for i, cid in enumerate(sorted(k.cells))])


# -- charts ---------------------------------------------------------------


def test_make_chart_restricts_probe(disk3, disk3_probe):
    chart = make_chart(disk3_probe, support.disk3().cells_of_dim(2), "tops")
    assert chart.cells == {"A-B-C", "B-C-E", "C-D-E"}
    assert chart.section["C-D-E"] == (0.9,)


def test_whole_complex_chart(disk3, disk3_probe):
    chart = make_chart(disk3_probe, disk3.cells, "all")
    assert chart.section == dict(disk3_probe.values)


def test_make_chart_foreign_cells(disk3_probe):
    with pytest.raises(ForeignCellError):
        make_chart(disk3_probe, {"nope"}, "bad")


def test_make_chart_empty(disk3_probe):
    with pytest.raises(EmptyChartError):
        make_chart(disk3_probe, set(), "bad")


def test_with_overrides_checks_membership(disk3_probe):
    chart = make_chart(disk3_probe, {"A", "B"}, "c")
    with pytest.raises(ForeignCellError):
        with_overrides(chart, {"C": (0.0,)})
    with pytest.raises(ArityMismatchError):
        with_overrides(chart, {"A": (0.0, 1.0)})


def test_chart_checks_section_arity():
    # A short value used to be zipped against the others and truncated,
    # so this family verified as OK.
    with pytest.raises(ArityMismatchError, match="'a' has arity 2.*arity 1"):
        Chart("a", {"A"}, {"A": (1.0,)}, 2)
    with pytest.raises(ArityMismatchError):
        Chart("b", {"A", "B"}, {"A": (5.0, 7.0), "B": (5.0, 7.0, 1.0)}, 2)
    assert Chart("c", {"A"}, {"A": (2.0, 9.0)}, 2).arity == 2
    with pytest.raises(ForeignCellError):
        Chart("d", {"A", "B"}, {"A": (2.0, 9.0)}, 2)


def test_verify_cocycle_checks_probe_arity(disk3_probe):
    # Trivialization residuals used to be truncated to the shorter vector.
    wide = assign_probe(disk3_probe.complex,
                        [(c, v * 2) for c, v in disk3_probe.values.items()])
    charts = [make_chart(disk3_probe, {"A", "B"}, "i"), make_chart(wide, {"B", "C"}, "j")]
    with pytest.raises(ArityMismatchError, match="chart 'j' has arity 2, probe has 1"):
        verify_cocycle(charts, probe=disk3_probe)
    assert verify_cocycle(charts[1:], probe=wide).clean


# -- transitions ------------------------------------------------------------


def test_transition_identical_sections_is_zero(disk3, disk3_probe):
    ci = make_chart(disk3_probe, {"A", "B", "C"}, "i")
    cj = make_chart(disk3_probe, {"B", "C", "D"}, "j")
    t = transition(ci, cj)
    assert t.pair == ("i", "j")
    assert set(t.values) == {"B", "C"}
    assert all(v == (0.0,) for v in t.values.values())


def test_transition_constant_offset(circle):
    probe = scalar_probe(circle)
    ci = make_chart(probe, {"v", "a"}, "i")
    cj = with_overrides(ci, {c: (probe[c][0] - 1.5,) for c in ci.cells})
    cj = type(cj)(id="j", cells=cj.cells, section=cj.section, arity=cj.arity)
    t = transition(ci, cj)
    assert all(v == (1.5,) for v in t.values.values())


def test_transition_antisymmetric(disk3_probe):
    ci = make_chart(disk3_probe, {"A", "B"}, "i")
    cj = with_overrides(make_chart(disk3_probe, {"B", "C"}, "j"), {"B": (0.25,)})
    t_ij = transition(ci, cj)
    t_ji = transition(cj, ci)
    for cell in t_ij.values:
        assert t_ji.values[cell] == tuple(-x for x in t_ij.values[cell])


def test_transition_empty_overlap(disk3_probe):
    ci = make_chart(disk3_probe, {"A"}, "i")
    cj = make_chart(disk3_probe, {"B"}, "j")
    with pytest.raises(EmptyOverlapError):
        transition(ci, cj)


def test_transition_arity_mismatch(circle):
    p1 = assign_probe(circle, [("v", (0.0,)), ("a", (1.0,))])
    p2 = assign_probe(circle, [("v", (0.0, 0.0)), ("a", (1.0, 1.0))])
    with pytest.raises(ArityMismatchError):
        transition(make_chart(p1, {"v"}, "i"), make_chart(p2, {"v"}, "j"))


# -- gauge verification -----------------------------------------------------


def test_single_chart_clean(disk3_probe):
    report = verify_cocycle([make_chart(disk3_probe, {"A", "B"}, "only")])
    assert report.clean
    assert report.to_text() == "OK\n"


def test_common_probe_cover_clean_at_zero_tolerance():
    rng = random.Random(59)
    for _ in range(25):
        k = support.random_cw_complex(rng)
        probe = support.random_probe(rng, k, arity=2)
        charts = support.random_cover(rng, k, probe, rng.randint(2, 5))
        report = verify_cocycle(charts, tolerance=0.0, probe=probe)
        assert report.clean


def test_disjoint_charts_vacuously_clean(disk3_probe):
    ci = make_chart(disk3_probe, {"A"}, "i")
    cj = make_chart(disk3_probe, {"D"}, "j")
    assert verify_cocycle([ci, cj]).clean


def test_tampered_transition_breaks_cocycle_once(disk3_probe):
    shared = {"B", "B-C", "C"}
    c1 = make_chart(disk3_probe, shared | {"A"}, "c1")
    c2 = make_chart(disk3_probe, shared | {"D"}, "c2")
    c3 = make_chart(disk3_probe, shared | {"E"}, "c3")
    assert verify_cocycle([c1, c2, c3]).clean

    honest = transition(c1, c2)
    values = dict(honest.values)
    values["B"] = (values["B"][0] + 0.5,)
    tampered = {("c1", "c2"): TransitionFunction(("c1", "c2"), values)}
    report = verify_cocycle([c1, c2, c3], transitions=tampered)
    assert not report.clean
    cocycle = report.by_identity("cocycle")
    assert len(cocycle) == 1
    assert cocycle[0].charts == ("c1", "c2", "c3")
    assert cocycle[0].cell == "B"


def test_tampered_reflexivity(disk3_probe):
    chart = make_chart(disk3_probe, {"A", "B"}, "c")
    tampered = {("c", "c"): TransitionFunction(("c", "c"), {"A": (0.5,), "B": (0.0,)})}
    report = verify_cocycle([chart], transitions=tampered)
    refl = report.by_identity("reflexivity")
    assert len(refl) == 1
    assert refl[0].cell == "A"


def test_override_breaks_trivialization_only(disk3_probe):
    ci = make_chart(disk3_probe, {"A", "B", "C"}, "i")
    cj = with_overrides(make_chart(disk3_probe, {"B", "C", "D"}, "j"), {"C": (0.7,)})
    report = verify_cocycle([ci, cj], probe=disk3_probe)
    assert report.by_identity("trivialization")
    # pointwise differences still telescope, so the pure gauge identities hold
    assert not report.by_identity("symmetry")
    assert not report.by_identity("cocycle")
    assert verify_cocycle([ci, cj]).clean


def test_tolerance_masks_small_residuals(disk3_probe):
    ci = make_chart(disk3_probe, {"A", "B", "C"}, "i")
    cj = with_overrides(make_chart(disk3_probe, {"B", "C", "D"}, "j"), {"C": (0.05,)})
    assert not verify_cocycle([ci, cj], tolerance=0.0, probe=disk3_probe).clean
    assert verify_cocycle([ci, cj], tolerance=0.1, probe=disk3_probe).clean


def test_verify_cocycle_keeps_only_the_rows_it_reports():
    """Sixty charts hold one vertex, chart i with the value i + 1: every
    pair and triple of them is checked there, and each residual is an
    exact zero. Only the sixty trivialization rows are kept; a row per
    triple would take megabytes."""
    probe, charts = support.one_vertex_cover(60, lambda i: (i + 1.0,))
    tracemalloc.start()
    try:
        report = verify_cocycle(charts, probe=probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violations == tuple(
        GaugeViolation("trivialization", (chart.id,), "v", (i + 1.0,), i + 1.0)
        for i, chart in enumerate(charts))
    assert peak < 1_000_000


def test_verify_cocycle_needs_charts():
    with pytest.raises(ValueError):
        verify_cocycle([])


def test_verify_cocycle_needs_unique_chart_ids(disk3_probe):
    charts = [make_chart(disk3_probe, {"A"}, "c"), make_chart(disk3_probe, {"B"}, "c")]
    with pytest.raises(ValueError, match="^chart ids must be unique$"):
        verify_cocycle(charts)


def test_negative_tolerance_rejected(disk3_probe):
    with pytest.raises(ValueError):
        verify_cocycle([make_chart(disk3_probe, {"A"}, "c")], tolerance=-1.0)
    with pytest.raises(ValueError):
        verify_cocycle([make_chart(disk3_probe, {"A"}, "c")], tolerance=float("nan"))


# -- group action -------------------------------------------------------


def test_translations_form_group_acting_freely():
    rng = random.Random(61)
    vectors = [tuple(support.grid_value(rng) for _ in range(2)) for _ in range(10)]
    translations = [tuple(support.grid_value(rng) - 0.5 for _ in range(2))
                    for _ in range(10)]
    zero = (0.0, 0.0)
    for t in translations:
        inverse = tuple(-x for x in t)
        assert tuple(a + b for a, b in zip(t, inverse)) == zero
        for x in vectors:
            moved = tuple(a + b for a, b in zip(x, t))
            if t != zero:
                assert moved != x
            back = tuple(a + b for a, b in zip(moved, inverse))
            assert back == x
