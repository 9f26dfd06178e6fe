"""Charts, transition functions and gauge identity checks.

A chart is a cell subset with a local section: one descriptor per member
cell, by default the restriction of a global probe. The transition
between two overlapping charts is the pointwise difference of their
sections, realizing the structure group concretely as descriptor-space
translations under addition. Transitions computed from single-valued
sections satisfy the gauge identities by construction; the verifier
exists to catch data that does not come from honest sections, either an
explicitly supplied (possibly tampered) transition table or chart
sections that disagree with the governing probe.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from itertools import combinations

from ._record import Record
from .cellcomplex import CellId
from .descriptive import Descriptor, ProbeAssignment, _as_descriptor
from .errors import (
    ArityMismatchError,
    EmptyChartError,
    EmptyOverlapError,
    ForeignCellError,
)


class Chart(Record):
    """A cell subset with its local section.

    Raises:
        ForeignCellError: the section's cells are not the chart's cells.
        ArityMismatchError: a section value does not have ``arity``
            components.
    """

    __slots__ = ("id", "cells", "section", "arity")

    def __init__(self, id: str, cells: Iterable[CellId],
                 section: Mapping[CellId, Descriptor], arity: int):
        cells, section = frozenset(cells), dict(section)
        if section.keys() != cells:
            raise ForeignCellError(f"chart {id!r} section must cover exactly its cells")
        # No Python-level loop: parse_charts builds every chart through here.
        wrong = set(map(len, section.values())) - {arity}
        if wrong:
            raise ArityMismatchError(
                f"chart {id!r} has arity {arity}, "
                f"but a section value has arity {min(wrong)}")
        super().__init__(id, cells, section, arity)


def make_chart(probe: ProbeAssignment, cells: Iterable[CellId], chart_id: str) -> Chart:
    """Restrict a probe to a cell subset.

    Raises:
        EmptyChartError: no cells given.
        ForeignCellError: a cell is not in the probe's complex.
    """
    cell_set = frozenset(str(c) for c in cells)
    if not cell_set:
        raise EmptyChartError(f"chart {chart_id!r} has no cells")
    foreign = sorted(c for c in cell_set if c not in probe.complex)
    if foreign:
        raise ForeignCellError(f"cells not in the complex: {', '.join(foreign)}")
    return Chart(id=str(chart_id), cells=cell_set,
                 section={c: probe[c] for c in cell_set}, arity=probe.arity)


def with_overrides(chart: Chart, overrides: Mapping[CellId, Iterable[float]]) -> Chart:
    """A copy of the chart with some section values replaced."""
    section = dict(chart.section)
    for cid, raw in overrides.items():
        cid = str(cid)
        if cid not in chart.cells:
            raise ForeignCellError(f"cell {cid!r} is not a member of chart {chart.id!r}")
        desc = _as_descriptor(raw)
        if len(desc) != chart.arity:
            raise ArityMismatchError(
                f"override for {cid!r} has arity {len(desc)}, chart has {chart.arity}")
        section[cid] = desc
    return Chart(id=chart.id, cells=chart.cells, section=section, arity=chart.arity)


class TransitionFunction(Record):
    """Pointwise translation relating two trivializations on an overlap.

    ``values[x]`` is section_i(x) - section_j(x) for the ordered pair
    (i, j).
    """

    __slots__ = ("pair", "values")

    def __init__(self, pair: tuple[str, str], values: Mapping[CellId, Descriptor]):
        super().__init__(pair, dict(values))

    def cells(self) -> tuple[CellId, ...]:
        return tuple(sorted(self.values))


def transition(chart_i: Chart, chart_j: Chart) -> TransitionFunction:
    """The translation taking chart j's section to chart i's.

    Raises:
        EmptyOverlapError: the charts share no cells.
        ArityMismatchError: the charts carry different descriptor arities.
    """
    _check_arities(chart_i, chart_j)
    overlap = chart_i.cells & chart_j.cells
    if not overlap:
        raise EmptyOverlapError(
            f"charts {chart_i.id!r} and {chart_j.id!r} do not overlap")
    values = {cid: _vec_sub(chart_i.section[cid], chart_j.section[cid])
              for cid in sorted(overlap)}
    return TransitionFunction(pair=(chart_i.id, chart_j.id), values=values)


def _check_arities(chart_i: Chart, chart_j: Chart) -> None:
    if chart_i.arity != chart_j.arity:
        raise ArityMismatchError(
            f"charts {chart_i.id!r} and {chart_j.id!r} have arities "
            f"{chart_i.arity} and {chart_j.arity}")


class GaugeViolation(Record):
    """One residual exceeding tolerance in a gauge identity: ``identity``
    is reflexivity, symmetry, cocycle or trivialization."""

    __slots__ = ("identity", "charts", "cell", "residual", "norm")

    def __init__(self, identity: str, charts: tuple[str, ...], cell: CellId,
                 residual: Descriptor, norm: float):
        super().__init__(identity, charts, cell, residual, norm)

    def __str__(self) -> str:
        vec = ";".join(repr(v) for v in self.residual)
        return (f"{self.identity} charts {','.join(self.charts)} "
                f"cell {self.cell} residual {vec} norm {self.norm!r}")


class GaugeReport(Record):
    """Outcome of checking the gauge identities over a chart family."""

    __slots__ = ("tolerance", "violations")

    def __init__(self, tolerance: float, violations: tuple[GaugeViolation, ...]):
        super().__init__(tolerance, violations)

    @property
    def clean(self) -> bool:
        return not self.violations

    def by_identity(self, identity: str) -> tuple[GaugeViolation, ...]:
        return tuple(v for v in self.violations if v.identity == identity)

    def to_text(self) -> str:
        if self.clean:
            return "OK\n"
        return "\n".join(str(v) for v in self.violations) + "\n"


def _norm(vec: Descriptor) -> float:
    return math.sqrt(sum(v * v for v in vec))


def _vec_add(a: Descriptor, b: Descriptor) -> Descriptor:
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a: Descriptor, b: Descriptor) -> Descriptor:
    return tuple(x - y for x, y in zip(a, b))


def verify_cocycle(charts: Iterable[Chart], tolerance: float = 0.0, *,
                   probe: ProbeAssignment | None = None,
                   transitions: Mapping[tuple[str, str], TransitionFunction] | None = None,
                   ) -> GaugeReport:
    """Check the gauge identities over every overlap of a chart family.

    Per cell of each overlap the residuals checked are t_ii, t_ij + t_ji
    and t_ik - (t_ij + t_jk); residual norms above tolerance are
    reported, per identity in chart-id then cell order. Transitions
    default to pointwise section differences, taken cell by cell from
    the two sections with the same arithmetic as ``transition()``, so
    no ``TransitionFunction`` is built; the default t_ii is zero and
    cannot fail. A ``transitions`` table overrides selected ordered
    pairs, which is how non-section-derived (hence potentially
    inconsistent) data gets vetted; a supplied transition is checked
    only at the cells it lists. With ``probe`` given, every chart
    section is additionally compared against the probe
    ("trivialization" identity), so charts that no longer restrict the
    global assignment are flagged.

    Absent overlaps make the corresponding checks vacuous; a single
    chart yields only its reflexivity (and trivialization) rows.

    The work grows with the cells where sections deviate, not with the
    overlaps, and the report is the same as a walk over every cell of
    every overlap and triple:

    1. Where the sections involved agree at a cell, every section
       difference there is +-0.0, or nan for an infinite or nan
       component, so no residual built from them is reported: a nan
       norm never exceeds the tolerance. A default transition can
       break an identity only at cells where its two sections differ;
       a supplied one is suspect at every cell it lists.
    2. Each cell's reference value is its section value in the first
       chart, in id order, that holds it, and each chart keeps the
       cells where its value differs from that reference: one
       comparison per chart cell. Tuple equality compares components
       by identity, then ``==``, which on floats is an equivalence
       (0.0 == -0.0, and a nan equals only itself). So two charts that
       both match the reference agree with each other, and where two
       sections differ one of them deviates.
    3. A suspect cell is one where a chart deviates, or one that a
       supplied transition between two charts lists. Each is visited
       once, with the charts that hold it: the pairs and triples of them
       that include a chart deviating there are checked, and all of
       them at a listed cell, except where a supplied transition omits
       the cell. A pair with both directions supplied is also checked
       at the cells both list outside the overlap.
    4. Only the cells where a section differs from the probe are sorted
       for the trivialization rows.

    Every reported residual is computed with the same operations, in the
    same order, as the walk over every cell, so it is the same bit for bit.

    Raises:
        ValueError: no charts, duplicate chart ids, or a negative or nan
            tolerance.
        ArityMismatchError: two overlapping charts carry different
            arities and at least one direction of the pair is not
            supplied, or ``probe`` is given and a chart's arity is not
            the probe's.
    """
    charts = sorted(charts, key=lambda c: c.id)
    if not charts:
        raise ValueError("at least one chart is required")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    if len({c.id for c in charts}) != len(charts):
        raise ValueError("chart ids must be unique")
    if probe is not None:
        for chart in charts:
            if chart.arity != probe.arity:
                raise ArityMismatchError(
                    f"chart {chart.id!r} has arity {chart.arity}, probe has {probe.arity}")
    table = transitions or {}

    violations: list[GaugeViolation] = []

    def record(identity: str, ids: tuple[str, ...], cell: CellId, residual: Descriptor):
        # An all-zero residual has norm 0.0, which never exceeds a tolerance >= 0.
        if any(residual):
            norm = _norm(residual)
            if norm > tolerance:
                violations.append(GaugeViolation(identity, ids, cell, residual, norm))

    for chart in charts:
        if (chart.id, chart.id) in table:
            t_ii = table[(chart.id, chart.id)]
            for cell in t_ii.cells():
                record("reflexivity", (chart.id,), cell, t_ii.values[cell])

    reference: dict[CellId, Descriptor] = {}
    for chart in reversed(charts):
        reference.update(chart.section)
    deviations = [{cell for cell, value in chart.section.items() if value != reference[cell]}
                  for chart in charts]

    # Raises for the first pair, in id order, that a walk over the pairs would.
    if len({chart.arity for chart in charts}) > 1:
        for a, ci in enumerate(charts):
            for cj in charts[a + 1:]:
                for x, y in ((ci, cj), (cj, ci)):
                    if (x.id, y.id) not in table and not ci.cells.isdisjoint(cj.cells):
                        _check_arities(x, y)

    def t(a: int, b: int, cell: CellId) -> Descriptor | None:
        """t_ab at the cell, or None where a supplied t_ab omits it."""
        if (charts[a].id, charts[b].id) in table:
            return table[charts[a].id, charts[b].id].values.get(cell)
        return _vec_sub(charts[a].section[cell], charts[b].section[cell])

    pairs, triples = [], []     # rows of chart indices, cell, residual
    listed = {cell for (i, j), t_ij in table.items() if i != j for cell in t_ij.values}
    suspects = listed.union(*deviations)
    holders: dict[CellId, list[int]] = {cell: [] for cell in suspects}
    for a, chart in enumerate(charts):
        for cell in chart.cells & suspects:
            holders[cell].append(a)
    for cell, held in holders.items():
        flagged = [(a, cell in listed or cell in deviations[a]) for a in held]
        for (a, da), (b, db) in combinations(flagged, 2):
            if da or db:
                t_ab, t_ba = t(a, b, cell), t(b, a, cell)
                if t_ab is not None and t_ba is not None:
                    pairs.append((a, b, cell, _vec_add(t_ab, t_ba)))
        for (a, da), (b, db), (c, dc) in combinations(flagged, 3):
            if da or db or dc:
                t_ab, t_bc, t_ac = t(a, b, cell), t(b, c, cell), t(a, c, cell)
                if t_ab is not None and t_bc is not None and t_ac is not None:
                    triples.append((a, b, c, cell, _vec_sub(t_ac, _vec_add(t_ab, t_bc))))

    # Both directions supplied: also the cells both list outside the overlap.
    index = {chart.id: a for a, chart in enumerate(charts)}
    for i, j in table:
        if i < j and i in index and j in index and (j, i) in table:
            a, b = index[i], index[j]
            overlap = charts[a].cells & charts[b].cells
            if overlap:
                both = table[i, j].values.keys() & table[j, i].values.keys()
                pairs += [(a, b, cell, _vec_add(t(a, b, cell), t(b, a, cell)))
                          for cell in both - overlap]

    for a, b, cell, residual in sorted(pairs):
        record("symmetry", (charts[a].id, charts[b].id), cell, residual)
    for a, b, c, cell, residual in sorted(triples):
        record("cocycle", (charts[a].id, charts[b].id, charts[c].id), cell, residual)

    if probe is not None:
        values = probe.values
        # Off its deviations a section equals the reference, so it differs
        # from the probe where the reference does. A cell off the probe is
        # among the rows, so probe[cell] raises the KeyError a walk over
        # every sorted cell would.
        off = {cell for cell, value in reference.items() if value != values.get(cell)}
        for chart, deviant in zip(charts, deviations):
            section = chart.section
            rows = (off & chart.cells) - deviant
            rows.update(cell for cell in deviant if section[cell] != values.get(cell))
            for cell in sorted(rows):
                record("trivialization", (chart.id,), cell, _vec_sub(section[cell], probe[cell]))

    return GaugeReport(tolerance=tolerance, violations=tuple(violations))
