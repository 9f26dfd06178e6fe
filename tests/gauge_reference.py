"""The earlier gauge check, kept as a differential reference.

This is ``verify_cocycle`` as it was before the check took residuals
straight from chart sections: it builds a ``TransitionFunction`` over a
pair's whole overlap through ``transition()`` for every pair and every
triple that uses it, and intersects three charts' cell sets per triple.
It is deliberately left as it was, so its reports can be compared byte
for byte with ``descell.verify_cocycle``.
"""

from typing import Iterable, Mapping

from descell.bundle import (
    Chart,
    GaugeReport,
    GaugeViolation,
    TransitionFunction,
    _norm,
    _vec_add,
    _vec_sub,
    transition,
)
from descell.cellcomplex import CellId
from descell.descriptive import Descriptor, ProbeAssignment


def verify_cocycle(charts: Iterable[Chart], tolerance: float = 0.0, *,
                   probe: ProbeAssignment | None = None,
                   transitions: Mapping[tuple[str, str], TransitionFunction] | None = None,
                   ) -> GaugeReport:
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
