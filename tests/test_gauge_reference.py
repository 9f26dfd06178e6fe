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
    TransitionFunction,
    make_chart,
    transition,
    verify_cocycle,
    with_overrides,
)
from descell.errors import ArityMismatchError
from descell.formats import load_probe, parse_charts, parse_complex

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
    supplies both directions of the pair; disjoint ones never do."""
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
    for charts, kwargs in (([a, b], {"transitions": both, "probe": wide}),
                           ([a, c, d], {"probe": narrow})):
        reports = assert_same(charts, **kwargs)
        assert all(isinstance(r, GaugeReport) for r in reports)


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
