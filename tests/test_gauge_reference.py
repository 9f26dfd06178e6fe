"""Differential tests: the gauge check against the earlier one.

``gauge_reference`` is ``verify_cocycle`` as it was when it built a
``TransitionFunction`` over a whole overlap for every pair and every
triple. Both must give equal reports, hence the same ``to_text()`` bytes,
or raise the same exception with the same message. Most sections here
are non-dyadic, so floating-point rounding leaves tiny residuals that a
tolerance of 0 reports; they must come out bit for bit the same.
"""

import random
from collections import Counter
from pathlib import Path

import pytest

import gauge_reference
import support
from descell import (
    Chart,
    GaugeReport,
    ProbeAssignment,
    TransitionFunction,
    make_chart,
    transition,
    verify_cocycle,
    with_overrides,
)
from descell.cli import main
from descell.errors import ArityMismatchError
from descell.formats import (
    emit_charts,
    emit_complex,
    emit_descriptors,
    load_probe,
    parse_charts,
    parse_complex,
)

DATA = Path(__file__).parent / "data"
TOLERANCES = (0.0, 1e-12, 0.5)
IDENTITIES = ("reflexivity", "symmetry", "cocycle", "trivialization")


def outcome(check, charts, tolerance, **kwargs):
    try:
        report = check(charts, tolerance, **kwargs)
    except Exception as exc:  # which exception, and its message, is the outcome compared
        return type(exc), str(exc)
    return report.to_text(), report


def assert_same(charts, tolerances=TOLERANCES, **kwargs):
    """Compare both checks at each tolerance; return the reports, or
    the exception messages."""
    reports = []
    for tol in tolerances:
        new = outcome(verify_cocycle, charts, tol, **kwargs)
        assert new == outcome(gauge_reference.verify_cocycle, charts, tol, **kwargs)
        reports.append(new[1])
    return reports


def decimal_vector(rng, arity):
    return tuple(support.decimal_value(rng) for _ in range(arity))


def overridden_cover(rng, k, probe, n_charts):
    """A common-probe cover in which each chart overrides up to three
    of its cells with non-dyadic values."""
    charts = []
    for chart in support.random_cover(rng, k, probe, n_charts):
        picked = rng.sample(sorted(chart.cells), rng.randint(0, min(3, len(chart.cells))))
        charts.append(with_overrides(
            chart, {c: decimal_vector(rng, probe.arity) for c in picked}))
    return charts


def own_sections(charts, draw):
    """The same charts, each with a section drawn cell by cell."""
    return [Chart(c.id, c.cells, {cell: draw() for cell in c.cells}, c.arity)
            for c in charts]


def tally(reports):
    seen = Counter()
    for report in reports:
        if isinstance(report, GaugeReport):
            seen.update(v.identity for v in report.violations)
            seen["rounding"] += sum(0 < v.norm < 1e-12 for v in report.violations)
    return seen


def test_random_covers_match_reference():
    rng = random.Random(1729)
    seen = Counter()
    for i in range(120):
        k = support.random_cw_complex(rng, max_cells=20)
        probe = support.random_probe(rng, k, rng.randint(1, 3), support.decimal_value)
        charts = overridden_cover(rng, k, probe, rng.randint(1, 5))
        if i % 3 == 0:
            charts = own_sections(charts, lambda: decimal_vector(rng, probe.arity))
        seen += tally(assert_same(charts, probe=probe if i % 2 else None))
    # Twelve charts on one vertex, each with its own non-dyadic value: the
    # cocycle rows that rounding leaves come out among many zero ones.
    probe, charts = support.one_vertex_cover(12, lambda i: (0.1 * (i + 1),))
    seen += tally(assert_same(charts, probe=probe))
    assert all(seen[identity] for identity in ("cocycle", "trivialization", "rounding"))


def test_signed_zeros_and_non_finite_sections_match_reference():
    """Where sections agree their differences are +-0.0 or nan, none of
    which is reported; where they differ, infinities give residuals of
    infinite norm."""
    specials = (0.0, -0.0, 0.1, 0.3, 1e308, -1e308, float("inf"), float("-inf"),
                float("nan"))
    rng = random.Random(31)
    seen = Counter()
    for _ in range(60):
        k = support.random_cw_complex(rng, max_cells=12)
        probe = support.random_probe(rng, k, 2, support.decimal_value)
        charts = own_sections(support.random_cover(rng, k, probe, rng.randint(2, 4)),
                              lambda: tuple(rng.choice(specials[:rng.randint(1, 9)])
                                            for _ in range(2)))
        seen += tally(assert_same(charts, probe=probe))
    assert seen["cocycle"] and seen["trivialization"]


def test_supplied_tables_match_reference():
    """Tables that omit cells, list cells outside the overlap, perturb
    values or give only one direction of a pair."""
    rng = random.Random(4096)
    seen = Counter()
    shapes = Counter()
    for _ in range(80):
        k = support.random_cw_complex(rng, max_cells=16)
        probe = support.random_probe(rng, k, 2, support.decimal_value)
        charts = overridden_cover(rng, k, probe, rng.randint(1, 4))
        table = {}
        for ci in charts:
            for cj in charts:
                if rng.random() < 0.5:
                    continue
                values = {}
                if ci is not cj and ci.cells & cj.cells:
                    values = dict(transition(ci, cj).values)
                for cell in rng.sample(sorted(values), len(values) // 3):
                    del values[cell]
                    shapes["omitted"] += 1
                for cell in rng.sample(sorted(k.cells), min(len(k), rng.randint(0, 2))):
                    shapes["outside"] += cell not in ci.cells & cj.cells
                    values[cell] = decimal_vector(rng, 2)
                for cell in rng.sample(sorted(values), min(len(values), 1)):
                    values[cell] = decimal_vector(rng, 2)
                table[(ci.id, cj.id)] = TransitionFunction((ci.id, cj.id), values)
        shapes["one-way"] += sum((j, i) not in table for i, j in table if i != j)
        seen += tally(assert_same(charts, probe=probe, transitions=table))
    assert shapes["omitted"] and shapes["outside"] and shapes["one-way"]
    assert all(seen[identity] for identity in IDENTITIES)


def test_mixed_arities_match_reference():
    """Overlapping charts of different arities raise unless the table
    supplies both directions of the pair; disjoint ones never do. A
    probe raises unless every chart has its arity."""
    rng = random.Random(8)
    k = support.grid_surface(4)
    narrow = support.random_probe(rng, k, 1, support.decimal_value)
    wide = support.random_probe(rng, k, 2, support.decimal_value)
    cells = sorted(k.cells)
    a = make_chart(narrow, cells[:40], "a")
    b = make_chart(wide, cells[20:60], "b")
    c = make_chart(narrow, cells[30:50], "c")     # overlaps a and b
    d = make_chart(wide, cells[50:70], "d")       # overlaps b only
    shared = cells[20:40]
    ab, ba = (transition(make_chart(wide, shared, i), make_chart(wide, shared, j))
              for i, j in (("a", "b"), ("b", "a")))
    both = {("a", "b"): ab, ("b", "a"): ba}
    for charts, table in (([a, b], {}), ([a, b], {("a", "b"): ab}),
                          ([a, b], {("b", "a"): ba}), ([a, b, c, d], both)):
        messages = assert_same(charts, transitions=table)
        with pytest.raises(ArityMismatchError):
            verify_cocycle(charts, transitions=table)
        assert len(set(messages)) == 1
    for charts, kwargs in (([a, b], {"transitions": both}), ([a, c], {"probe": narrow})):
        reports = assert_same(charts, **kwargs)
        assert all(isinstance(r, GaugeReport) for r in reports)
    # A probe of another arity than a chart's raises. The reference zips
    # the two vectors and reports truncated trivialization residuals.
    for charts, kwargs in (([a, b], {"transitions": both, "probe": wide}),
                           ([a, c, d], {"probe": narrow})):
        with pytest.raises(ArityMismatchError, match="probe has"):
            verify_cocycle(charts, **kwargs)


def test_data_files_match_reference():
    complex, _ = parse_complex((DATA / "disk3.cw").read_text())
    probe, _ = load_probe((DATA / "disk3_probe.csv").read_text(), complex)
    for name in ("charts_ok.chart", "charts_override.chart"):
        charts, _ = parse_charts((DATA / name).read_text(), probe)
        assert_same(charts, probe=probe)


def test_torus_cover_matches_reference():
    """A 24-chart cover of a 600-cell torus, every pair overlapping."""
    rng = random.Random(600)
    k = support.grid_surface(10)
    probe = support.random_probe(rng, k, 2, support.decimal_value)
    charts = [make_chart(probe, cells, f"ch{n:02d}")
              for n, cells in enumerate(support.grid_windows(10, (6, 4), 5))]
    assert len(charts) == 24
    assert all(ci.cells & cj.cells for ci in charts for cj in charts)
    # A lone override telescopes away in every cocycle; one cell
    # overridden differently in several charts does not.
    for cell in rng.sample(sorted(k.cells), 4):
        for n in range(24):
            if cell in charts[n].cells and rng.random() < 0.5:
                charts[n] = with_overrides(charts[n], {cell: decimal_vector(rng, 2)})
    (report,) = assert_same(charts, tolerances=(0.0,), probe=probe)
    assert {v.identity for v in report.violations} == {"cocycle", "trivialization"}
    # A partial table lists most cells, each held by up to 12 charts.
    assert max(len(holders(charts, cell)) for cell in k.cells) == 12
    reports = assert_same_with_and_without_table(rng, charts, probe)
    assert all(tally(reports)[identity] for identity in IDENTITIES)


# -- the reference value per cell ---------------------------------------------
#
# verify_cocycle compares each chart with one reference value per cell, the
# value in the first chart that holds it, and compares two charts only where
# one of them deviates from it. These covers put the odd values where that
# matters, each checked with no table and with a partial one.


def partial_table(rng, charts):
    """Supplied transitions for about a third of the ordered pairs of
    overlapping charts, a chart with itself included: each lists about
    half of its overlap, and one value in three is replaced."""
    table = {}
    for ci in charts:
        for cj in charts:
            if rng.random() < 2 / 3 or not ci.cells & cj.cells:
                continue
            if ci is cj:
                values = {cell: (0.0,) * ci.arity for cell in ci.cells}
            else:
                values = dict(transition(ci, cj).values)
            for cell in rng.sample(sorted(values), len(values) // 2):
                del values[cell]
            for cell in sorted(values):
                if rng.random() < 1 / 3:
                    values[cell] = decimal_vector(rng, ci.arity)
            table[(ci.id, cj.id)] = TransitionFunction((ci.id, cj.id), values)
    return table


def holders(charts, cell):
    return [n for n, chart in enumerate(charts) if cell in chart.cells]


def assert_same_with_and_without_table(rng, charts, probe):
    """Symmetry and reflexivity rows come only from a table, so a test
    that sees them has met tables too."""
    return (assert_same(charts, probe=probe)
            + assert_same(charts, probe=probe, transitions=partial_table(rng, charts)))


def test_first_holder_carries_the_odd_value():
    """The first chart holding a cell overrides it, so the reference is
    the odd value and the other holders, which agree with the probe,
    all deviate from it; sometimes a later holder is odd as well. Half
    of the odd values keep the probe's first component."""
    rng = random.Random(2718)
    seen = Counter()

    def odd(value):
        return (value[0] if rng.random() < 0.5 else support.decimal_value(rng),
                support.decimal_value(rng))
    for _ in range(40):
        k = support.random_cw_complex(rng, max_cells=16)
        probe = support.random_probe(rng, k, 2, support.decimal_value)
        charts = support.random_cover(rng, k, probe, rng.randint(2, 5))
        for cell in rng.sample(sorted(k.cells), min(len(k), 3)):
            held = holders(charts, cell)
            if len(held) < 2:
                continue
            first, *rest = held
            seen["odd first"] += 1
            charts[first] = with_overrides(charts[first], {cell: odd(probe[cell])})
            if rng.random() < 0.5:
                n = rng.choice(rest)
                charts[n] = with_overrides(charts[n], {cell: odd(probe[cell])})
        seen += tally(assert_same_with_and_without_table(rng, charts, probe))
    assert seen["odd first"] > 40
    assert all(seen[identity] for identity in IDENTITIES)


def test_two_holders_agree_off_the_reference():
    """Two later holders of a cell override it with equal values (the
    same tuple, equal tuples, or ones that differ only in the sign of a
    zero) that the first holder does not carry: both deviate from the
    reference, and they agree with each other."""
    rng = random.Random(1414)
    seen = Counter()
    for _ in range(40):
        k = support.random_cw_complex(rng, max_cells=16)
        probe = support.random_probe(rng, k, 2, support.decimal_value)
        charts = support.random_cover(rng, k, probe, rng.randint(3, 5))
        for cell in rng.sample(sorted(k.cells), min(len(k), 3)):
            held = holders(charts, cell)
            if len(held) < 3:
                continue
            m, n = rng.sample(held[1:], 2)
            value = decimal_vector(rng, 2)
            kind = rng.choice(("same", "equal", "signed zero"))
            seen[kind] += 1
            if kind == "same":
                other = value
            elif kind == "equal":
                other = tuple(v for v in value)
            else:
                value, other = (0.0, value[1]), (-0.0, value[1])
            charts[m] = Chart(charts[m].id, charts[m].cells,
                              {**charts[m].section, cell: value}, 2)
            charts[n] = Chart(charts[n].id, charts[n].cells,
                              {**charts[n].section, cell: other}, 2)
            if rng.random() < 0.5:
                charts[held[0]] = with_overrides(charts[held[0]],
                                                 {cell: decimal_vector(rng, 2)})
        seen += tally(assert_same_with_and_without_table(rng, charts, probe))
    assert seen["same"] and seen["equal"] and seen["signed zero"]
    assert all(seen[identity] for identity in IDENTITIES)


def test_shared_and_distinct_nan_objects_match_reference():
    """A nan equals only itself: sections holding one nan object agree
    there, and sections holding distinct nan objects differ. Neither
    gives a reported residual, but the two cases take different paths."""
    rng = random.Random(4242)
    shared = float("nan")
    draws = (lambda: (shared, 0.5), lambda: (float("nan"), 0.5),
             lambda: (shared, rng.choice((0.1, 0.3))), lambda: decimal_vector(rng, 2))
    seen = Counter()
    for _ in range(40):
        k = support.random_cw_complex(rng, max_cells=12)
        probe = ProbeAssignment(k, {cell: rng.choice(draws)() for cell in k.cells}, 2)
        charts = [Chart(c.id, c.cells,
                        {cell: rng.choice(draws)() if rng.random() < 0.5 else c.section[cell]
                         for cell in sorted(c.cells)}, 2)
                  for c in support.random_cover(rng, k, probe, rng.randint(2, 4))]
        for chart in charts:
            for value in chart.section.values():
                seen["shared nan" if value[0] is shared else
                     "own nan" if value[0] != value[0] else "number"] += 1
        seen += tally(assert_same_with_and_without_table(rng, charts, probe))
    assert seen["shared nan"] and seen["own nan"]
    assert all(seen[identity] for identity in IDENTITIES)


@pytest.mark.parametrize("overrides", [0, 3])
def test_gauge_command_on_the_benchmark_cover(tmp_path, capsys, overrides):
    """``descell gauge`` on the 24-chart torus cover, written to files,
    prints the reference report and exits 0 on a clean one, 1 otherwise."""
    rng = random.Random(24 + overrides)
    k = support.grid_surface(10)
    probe = support.random_probe(rng, k, 2, support.decimal_value)
    charts = [make_chart(probe, cells, f"ch{n:02d}")
              for n, cells in enumerate(support.grid_windows(10, (6, 4), 5))]
    for n in rng.sample(range(len(charts)), overrides):
        cell = rng.choice(sorted(charts[n].cells))
        charts[n] = with_overrides(charts[n], {cell: decimal_vector(rng, 2)})
    paths = {name: tmp_path / name for name in ("torus.cw", "probe.csv", "cover.chart")}
    paths["torus.cw"].write_text(emit_complex(k))
    paths["probe.csv"].write_text(emit_descriptors(probe.values.items()))
    paths["cover.chart"].write_text(emit_charts(charts, probe))
    code = main(["gauge", str(paths["torus.cw"]), "--probe", str(paths["probe.csv"]),
                 "--charts", str(paths["cover.chart"])])
    expected = gauge_reference.verify_cocycle(charts, probe=probe)
    out, err = capsys.readouterr()
    assert (code, out, err) == (0 if expected.clean else 1, expected.to_text(), "")
    assert expected.clean == (overrides == 0)
