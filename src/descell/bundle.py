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
import operator
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
        # No Python-level loop: make_chart and with_overrides build whole
        # covers through here, and so does parse_charts on a hand-built probe.
        wrong = set(map(len, section.values())) - {arity}
        if wrong:
            raise ArityMismatchError(
                f"chart {id!r} has arity {arity}, "
                f"but a section value has arity {min(wrong)}")
        super().__init__(id, cells, section, arity)

    @classmethod
    def _of(cls, id: str, cells: frozenset[CellId], section: dict[CellId, Descriptor],
            arity: int) -> "Chart":
        """A chart on fields its caller built and checked, handed over
        uncopied: ``section``'s keys are ``cells`` and each of its values
        has ``arity`` components."""
        chart = cls.__new__(cls)
        Record.__init__(chart, id, cells, section, arity)
        return chart


class _ChartLines(Record):
    """A chart as a chart file states it, for ``verify_cocycle`` given
    the file's probe: ``section`` holds only the override lines, and
    every other member takes the probe's value. No section is built."""

    __slots__ = ("id", "cells", "section", "arity")


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

    def __str__(self) -> str:
        vec = ";".join(repr(v) for v in self.residual)
        return (f"{self.identity} charts {','.join(self.charts)} "
                f"cell {self.cell} residual {vec} norm {self.norm!r}")


class GaugeReport(Record):
    """Outcome of checking the gauge identities over a chart family."""

    __slots__ = ("tolerance", "violations")

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
    return tuple(map(operator.add, a, b))


def _vec_sub(a: Descriptor, b: Descriptor) -> Descriptor:
    return tuple(map(operator.sub, a, b))


# Values below 2**50 units leave every difference below 2**51 units, and every
# sum of two differences below 2**52, inside a float's 53 bits.
_EXACT_UNITS = 2 ** 50


def _exact_differences(values: list[Descriptor]) -> bool:
    """Whether every difference of two of ``values``, and every sum of two
    such differences, is exact in floating point: each value is a tuple of
    floats, each component an integer multiple of one power of two 2**-E
    and below 2**50 * 2**-E in magnitude. ``float.as_integer_ratio``
    raises on inf and nan, so they fail."""
    if not all(type(value) is tuple for value in values):
        return False
    components = [x for value in values for x in value]
    if not all(type(x) is float for x in components):
        return False
    try:
        ratios = list(map(float.as_integer_ratio, components))
    except (OverflowError, ValueError):
        return False
    unit = max((q for _, q in ratios), default=1)  # 2**E; each q is a power of two
    return all(abs(p) * (unit // q) < _EXACT_UNITS for p, q in ratios)


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

    1. Each chart is measured against one baseline table: the probe when
       one is given, else a reference table holding each cell's value in
       the first chart, in id order, that holds it. A chart's
       deviations come from its section: one whose section items are
       all among the baseline's (one C-level test) has none; only the
       others are walked cell by cell. A library caller's ``Chart``
       holds a value at every member. ``descell gauge`` reads a chart
       file as the probe plus override lines and passes each chart with
       only its overrides as its section (``formats.parse_chart_lines``):
       its value at a member is its override there, even one ``==`` the
       probe's, else the probe's, and its deviations are the overrides
       that ``!=`` the probe. Both tests compare tuples componentwise
       by identity, then ``==``, which on floats is an equivalence
       (0.0 == -0.0, and a nan equals only itself). So two charts that
       match the baseline at a cell agree with each other there, and
       where two sections differ one of them deviates. Where sections
       agree, every section difference is +-0.0, or nan for an infinite
       or nan component, and no residual built from them is reported:
       a nan norm never exceeds the tolerance.
    2. With a probe, a chart's trivialization rows are exactly its
       deviations, sorted: everywhere else its section equals the probe.
    3. A suspect cell is one where a chart deviates, or one that a
       supplied transition between two charts lists. Each is visited
       once, with the charts that hold it, and each holder is flagged
       where its value differs from the first holder's, the reference
       value there; at a listed cell every holder is flagged. The pairs
       and triples that include a flagged chart are checked, except
       where a supplied transition omits the cell. A cell that no
       supplied transition lists, where every holder's value is a tuple
       of floats on one power-of-two grid and below 2**50 grid units
       (``_exact_differences``), is skipped: every transition there is
       a section difference computed exactly, so each t_ij + t_ji and
       t_ik - (t_ij + t_jk) is exactly +-0.0. The work at such a cell
       grows with its holders, not with their triples. A pair with both
       directions supplied is also checked at the cells both list
       outside the overlap. Only the rows it reports are kept, and then
       sorted by chart ids and cell.
    4. At a visited cell each transition is computed once, and kept for
       the pairs and triples that use it.

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

    def record(rows: list[GaugeViolation], identity: str, ids: tuple[str, ...],
               cell: CellId, residual: Descriptor):
        # An all-zero residual has norm 0.0, which never exceeds a tolerance >= 0.
        if any(residual):
            norm = _norm(residual)
            if norm > tolerance:
                rows.append(GaugeViolation(identity, ids, cell, residual, norm))

    for chart in charts:
        if (chart.id, chart.id) in table:
            t_ii = table[(chart.id, chart.id)]
            for cell in t_ii.cells():
                record(violations, "reflexivity", (chart.id,), cell, t_ii.values[cell])

    if probe is not None:
        baseline = probe._table
    else:
        baseline = {}
        for chart in reversed(charts):
            baseline.update(chart.section)
    items, get = baseline.items(), baseline.get
    deviations = [set() if chart.section.items() <= items else
                  {cell for cell, value in chart.section.items() if value != get(cell)}
                  for chart in charts]

    # Raises for the first pair, in id order, that a walk over the pairs would.
    if len({chart.arity for chart in charts}) > 1:
        for a, ci in enumerate(charts):
            for cj in charts[a + 1:]:
                for x, y in ((ci, cj), (cj, ci)):
                    if (x.id, y.id) not in table and not ci.cells.isdisjoint(cj.cells):
                        _check_arities(x, y)

    def at(a: int, cell: CellId) -> Descriptor:
        section = charts[a].section
        return section[cell] if cell in section else baseline[cell]

    def t(a: int, b: int, cell: CellId, memo: dict) -> Descriptor | None:
        """t_ab at the cell, or None where a supplied t_ab omits it;
        ``memo`` keeps the cell's transitions once computed."""
        found = memo.get((a, b), memo)    # memo itself marks a miss: None is a value
        if found is memo:
            if (charts[a].id, charts[b].id) in table:
                found = table[charts[a].id, charts[b].id].values.get(cell)
            else:
                found = _vec_sub(at(a, cell), at(b, cell))
            memo[a, b] = found
        return found

    pairs: list[GaugeViolation] = []
    triples: list[GaugeViolation] = []
    listed = {cell for (i, j), t_ij in table.items() if i != j for cell in t_ij.values}
    suspects = listed.union(*deviations)
    holders: dict[CellId, list[int]] = {cell: [] for cell in suspects}
    for a, chart in enumerate(charts):
        for cell in chart.cells & suspects:
            holders[cell].append(a)
    for cell, held in holders.items():
        if not held:    # a listed cell that no chart holds
            continue
        values = [at(a, cell) for a in held]
        if cell in listed:
            flags = [True] * len(held)
        else:
            flags = [value != values[0] for value in values]
            if not any(flags) or _exact_differences(values):
                continue
        flagged = list(zip(held, flags))
        memo: dict[tuple[int, int], Descriptor | None] = {}
        for (a, da), (b, db) in combinations(flagged, 2):
            if da or db:
                t_ab, t_ba = t(a, b, cell, memo), t(b, a, cell, memo)
                if t_ab is not None and t_ba is not None:
                    record(pairs, "symmetry", (charts[a].id, charts[b].id), cell,
                           _vec_add(t_ab, t_ba))
        for (a, da), (b, db), (c, dc) in combinations(flagged, 3):
            if da or db or dc:
                t_ab, t_bc, t_ac = t(a, b, cell, memo), t(b, c, cell, memo), t(a, c, cell, memo)
                if t_ab is not None and t_bc is not None and t_ac is not None:
                    record(triples, "cocycle", (charts[a].id, charts[b].id, charts[c].id),
                           cell, _vec_sub(t_ac, _vec_add(t_ab, t_bc)))

    # Both directions supplied: also the cells both list outside the overlap.
    index = {chart.id: a for a, chart in enumerate(charts)}
    for i, j in table:
        if i < j and i in index and j in index and (j, i) in table:
            overlap = charts[index[i]].cells & charts[index[j]].cells
            if overlap:
                t_ij, t_ji = table[i, j].values, table[j, i].values
                for cell in (t_ij.keys() & t_ji.keys()) - overlap:
                    record(pairs, "symmetry", (i, j), cell, _vec_add(t_ij[cell], t_ji[cell]))

    # Each (charts, cell) is checked once, and the charts are in id order.
    for found in (pairs, triples):
        violations += sorted(found, key=lambda v: (v.charts, v.cell))

    if probe is not None:
        # A cell off the probe is among the deviations, so probe[cell]
        # raises the KeyError a walk over every sorted cell would.
        for chart, deviant in zip(charts, deviations):
            for cell in sorted(deviant):
                record(violations, "trivialization", (chart.id,), cell,
                       _vec_sub(chart.section[cell], probe[cell]))

    return GaugeReport(tolerance=tolerance, violations=tuple(violations))
