"""The earlier signature path, kept as a differential reference.

This is ``signature`` as it was before its entries were read off the
base's kernel bases: ``_reduce_maps`` reduced every distinct removed set
again, over every column of each map that loses a cell (a map that loses
none kept the base's pivots, passed as ``known``), and ``_carver`` called
``DescriptorBall.contains`` on every distinct value of the step for every
ball, keyed its memo on one hit flag per value. It is deliberately left
as it was, so its tables and exceptions can be compared with
``descell.signature``. The engine's private helpers it used (the column
reduction, the survivor check and the dimension and carving checks) are
copied here as they were, so that a fault in the engine's reduction
does not move the reference too.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence

from descell.cellcomplex import CellComplex, CellId, Violation
from descell.descriptive import Descriptor, DescriptorBall, ProbeAssignment, alpha_spectrum
from descell.errors import InvalidComplexError
from descell.persistence import PersistenceSignature, Scenario


def _reduce(columns: Iterable[int]) -> tuple[dict[int, int], dict[int, int]]:
    """Left-to-right column reduction over GF(2), columns as int bitsets:
    the pivot map (top bit -> reduced column) and, per column j that
    reduces to zero, its combination bitset over column indices."""
    pivots: dict[int, int] = {}
    combos: dict[int, int] = {}
    dependent: dict[int, int] = {}
    for j, col in enumerate(columns):
        combo = 1 << j
        while col:
            top = col.bit_length() - 1
            other = pivots.get(top)
            if other is None:
                pivots[top] = col
                combos[top] = combo
                break
            col ^= other
            combo ^= combos[top]
        else:
            dependent[j] = combo
    return pivots, dependent


def _top_dim(base: CellComplex, max_p: int | None) -> int:
    """``max_p``, which must not be negative, or by default the base's
    top dimension."""
    if max_p is None:
        return base.max_dim
    if max_p < 0:
        raise ValueError(f"dimension must be non-negative, got {max_p}")
    return max_p


def _check_carving(p: int, mode: str) -> None:
    if mode not in ("remove", "retain"):
        raise ValueError(f"mode must be 'remove' or 'retain', got {mode!r}")
    if p < 0:
        raise ValueError(f"dimension must be non-negative, got {p}")


def _check_survivors(violations: list[Violation], removed: frozenset[CellId]) -> None:
    """Raise the base's violations whose cells all survive, less the
    dangling faces, which a derived sub-complex drops."""
    found = [v for v in violations if v.code != "dangling-face" and removed.isdisjoint(v.cells)]
    if found:
        raise InvalidComplexError(found)


def _reduce_maps(base: CellComplex, removed: frozenset[CellId], max_p: int,
                 known: Sequence[dict[int, int] | None]) -> list[tuple[int, int]]:
    """(cycle rank, boundary rank) per p <= max_p of ``base`` less the
    ``removed`` cells, closed upward: each map is reduced from d_(max_p+1)
    down to d_0 with the removed columns zeroed and with clearing, unless
    ``known`` holds its pivot map (it loses no cell)."""
    records = []
    image: dict[int, int] = {}
    for p in range(max_p + 1, -1, -1):
        cells = base.cells_of_dim(p)
        pivots = known[p]
        cut = ({j for j, cid in enumerate(cells) if cid in removed}
               if removed and pivots is None else ())
        if pivots is None:
            zeroed = image.keys() | cut if cut else image
            pivots, _ = _reduce(0 if j in zeroed else col
                                for j, col in enumerate(base.boundary_columns(p)))
        if p <= max_p:
            n = len(cells) - len(cut)
            records.append((n - len(pivots), len(image)))
        image = pivots
    return records[::-1]


def _masked_betti(base: CellComplex, max_p: int,
                  ) -> Callable[[frozenset[CellId]], tuple[int, ...]]:
    """Betti numbers 0 .. max_p of ``base`` less a removed set, each
    distinct removed set reduced once."""
    violations = base.validate()
    cell_sets = [frozenset(base.cells_of_dim(q)) for q in range(max_p + 2)]
    base_pivots = [_reduce(base.boundary_columns(q))[0] for q in range(max_p + 2)]

    @functools.cache
    def betti(removed: frozenset[CellId]) -> tuple[int, ...]:
        _check_survivors(violations, removed)
        known = [pivots if removed.isdisjoint(cells) else None
                 for pivots, cells in zip(base_pivots, cell_sets)]
        return tuple(z - b for z, b in _reduce_maps(base, removed, max_p, known))

    return betti


def _carver(probe: ProbeAssignment, p: int, mode: str
            ) -> Callable[[DescriptorBall], frozenset[CellId]]:
    """``removed_cells`` as a function of the ball: one ``contains`` per
    distinct p-cell value and ball, one cascade per selection of values."""
    _check_carving(p, mode)
    base = probe.complex
    groups: dict[Descriptor, list[CellId]] = {}
    for cid in base.cells_of_dim(p):
        groups.setdefault(probe[cid], []).append(cid)
    retain, top = mode == "retain", base.max_dim
    memo: dict[tuple[bool, ...], frozenset[CellId]] = {}

    def carve(ball: DescriptorBall) -> frozenset[CellId]:
        hits = tuple(map(ball.contains, groups))
        removed = memo.get(hits)
        if removed is None:
            cut = {c for cids, hit in zip(groups.values(), hits) if hit != retain for c in cids}
            # One ascending sweep: the faces of a q-cell were settled at q-1.
            for q in range(p + 1, top + 1):
                for cid in base.cells_of_dim(q):
                    if any(fid in cut for fid in base.faces(cid)):
                        cut.add(cid)
            removed = memo[hits] = frozenset(cut)
        return removed
    return carve


def signature(scenario: Scenario, delta: float = 0.0, mode: str = "remove",
              max_p: int | None = None, removal_dim: int = 2) -> PersistenceSignature:
    """Betti signature over every observed descriptor value and step."""
    max_p = _top_dim(scenario.complex, max_p)
    alphas: set[Descriptor] = set()
    for step in scenario.steps:
        alphas.update(alpha_spectrum(step.probe, removal_dim))
    balls = {alpha: DescriptorBall(alpha, delta) for alpha in sorted(alphas)}
    _check_carving(removal_dim, mode)
    dims = tuple(range(0, max_p + 1))
    betti = _masked_betti(scenario.complex, max_p)
    table: dict[tuple[int, Descriptor, int], int] = {}
    for ti, step in enumerate(scenario.steps):
        carve = _carver(step.probe, removal_dim, mode)
        for alpha, ball in balls.items():
            bettis = betti(carve(ball))
            for p in dims:
                table[(ti, alpha, p)] = bettis[p]
    return PersistenceSignature(
        mode=mode, delta=float(delta), removal_dim=removal_dim,
        thetas=scenario.thetas, alphas=tuple(balls), dims=dims, table=table)
