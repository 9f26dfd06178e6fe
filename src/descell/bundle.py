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
from dataclasses import dataclass
from typing import Iterable, Mapping

from .cellcomplex import CellId
from .descriptive import Descriptor, ProbeAssignment, _as_descriptor
from .errors import (
    ArityMismatchError,
    EmptyChartError,
    EmptyOverlapError,
    ForeignCellError,
)


@dataclass(frozen=True)
class Chart:
    """A cell subset with its local section."""

    id: str
    cells: frozenset[CellId]
    section: Mapping[CellId, Descriptor]
    arity: int

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))
        object.__setattr__(self, "section", dict(self.section))
        if set(self.section) != set(self.cells):
            raise ForeignCellError(
                f"chart {self.id!r} section must cover exactly its cells")


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


@dataclass(frozen=True)
class TransitionFunction:
    """Pointwise translation relating two trivializations on an overlap.

    ``values[x]`` is section_i(x) - section_j(x) for the ordered pair
    (i, j).
    """

    pair: tuple[str, str]
    values: Mapping[CellId, Descriptor]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def cells(self) -> tuple[CellId, ...]:
        return tuple(sorted(self.values))


def transition(chart_i: Chart, chart_j: Chart) -> TransitionFunction:
    """The translation taking chart j's section to chart i's.

    Raises:
        EmptyOverlapError: the charts share no cells.
        ArityMismatchError: the charts carry different descriptor arities.
    """
    if chart_i.arity != chart_j.arity:
        raise ArityMismatchError(
            f"charts {chart_i.id!r} and {chart_j.id!r} have arities "
            f"{chart_i.arity} and {chart_j.arity}")
    overlap = chart_i.cells & chart_j.cells
    if not overlap:
        raise EmptyOverlapError(
            f"charts {chart_i.id!r} and {chart_j.id!r} do not overlap")
    values = {
        cid: tuple(a - b for a, b in zip(chart_i.section[cid], chart_j.section[cid]))
        for cid in sorted(overlap)
    }
    return TransitionFunction(pair=(chart_i.id, chart_j.id), values=values)


@dataclass(frozen=True)
class GaugeViolation:
    """One residual exceeding tolerance in a gauge identity."""

    identity: str                 # reflexivity | symmetry | cocycle | trivialization
    charts: tuple[str, ...]
    cell: CellId
    residual: Descriptor
    norm: float

    def __str__(self) -> str:
        vec = ";".join(repr(v) for v in self.residual)
        return (f"{self.identity} charts {','.join(self.charts)} "
                f"cell {self.cell} residual {vec} norm {self.norm!r}")


@dataclass(frozen=True)
class GaugeReport:
    """Outcome of checking the gauge identities over a chart family."""

    tolerance: float
    violations: tuple[GaugeViolation, ...]

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
    reported. Transitions default to pointwise section differences; a
    ``transitions`` table overrides selected pairs, which is how
    non-section-derived (hence potentially inconsistent) data gets
    vetted. With ``probe`` given, every chart section is additionally
    compared against the probe ("trivialization" identity), so charts
    that no longer restrict the global assignment are flagged.

    Absent overlaps make the corresponding checks vacuous; a single
    chart yields only its reflexivity (and trivialization) rows.
    """
    charts = sorted(charts, key=lambda c: c.id)
    if not charts:
        raise ValueError("at least one chart is required")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    by_id = {c.id: c for c in charts}
    if len(by_id) != len(charts):
        raise ValueError("chart ids must be unique")

    def trans(i: str, j: str) -> TransitionFunction:
        if transitions and (i, j) in transitions:
            return transitions[(i, j)]
        if i == j:
            zero = (0.0,) * by_id[i].arity
            return TransitionFunction((i, i), {c: zero for c in by_id[i].cells})
        return transition(by_id[i], by_id[j])

    violations: list[GaugeViolation] = []

    def record(identity: str, ids: tuple[str, ...], cell: CellId, residual: Descriptor):
        norm = _norm(residual)
        if norm > tolerance:
            violations.append(GaugeViolation(identity, ids, cell, residual, norm))

    ids = [c.id for c in charts]
    for i in ids:
        t_ii = trans(i, i)
        for cell in t_ii.cells():
            record("reflexivity", (i,), cell, t_ii.values[cell])

    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            i, j = ids[a], ids[b]
            if not (by_id[i].cells & by_id[j].cells):
                continue
            t_ij, t_ji = trans(i, j), trans(j, i)
            for cell in sorted(set(t_ij.values) & set(t_ji.values)):
                record("symmetry", (i, j), cell,
                       _vec_add(t_ij.values[cell], t_ji.values[cell]))

    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            for c in range(b + 1, len(ids)):
                i, j, k = ids[a], ids[b], ids[c]
                triple = by_id[i].cells & by_id[j].cells & by_id[k].cells
                if not triple:
                    continue
                t_ij, t_jk, t_ik = trans(i, j), trans(j, k), trans(i, k)
                # Supplied tables may omit cells; only shared keys are checkable.
                checkable = triple & set(t_ij.values) & set(t_jk.values) & set(t_ik.values)
                for cell in sorted(checkable):
                    composed = _vec_add(t_ij.values[cell], t_jk.values[cell])
                    record("cocycle", (i, j, k), cell,
                           _vec_sub(t_ik.values[cell], composed))

    if probe is not None:
        for chart in charts:
            for cell in sorted(chart.cells):
                record("trivialization", (chart.id,), cell,
                       _vec_sub(chart.section[cell], probe[cell]))

    return GaugeReport(tolerance=tolerance, violations=tuple(violations))

