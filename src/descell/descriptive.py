"""Descriptor assignment and descriptor-driven sub-complexes.

A probe attaches a fixed-arity vector of real feature values to every
cell of a complex. Picking a reference value and a radius carves out the
cells whose descriptors fall inside that ball; removing them (or keeping
only them) and cascading the deletion upward through cofaces yields a
sub-complex whose homology reflects the chosen feature region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .cellcomplex import CellComplex, CellId
from .errors import (
    ArityMismatchError,
    DuplicateEntryError,
    ForeignCellError,
    MissingCellError,
)
# bench/test_bench.py::test_tracer_wraps_every_binding_and_restores pins homology.
from .homology import Chain, HomologyResult, _check_survivors, _homology, homology  # noqa: F401

Descriptor = tuple[float, ...]


def _as_descriptor(values: Iterable[float]) -> Descriptor:
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"descriptor component {v!r} is not finite")
    return out


@dataclass(frozen=True)
class DescriptorBall:
    """A closed Euclidean ball in descriptor space."""

    center: Descriptor
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_descriptor(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius >= 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def contains(self, value: Descriptor) -> bool:
        if len(value) != len(self.center):
            raise ArityMismatchError(
                f"ball center has arity {len(self.center)}, value has {len(value)}")
        return math.dist(self.center, value) <= self.radius


class ProbeAssignment:
    """A complex together with one descriptor per cell.

    Immutable; ``assign_probe`` builds one from a table it checks.
    """

    def __init__(self, complex: CellComplex, values: Mapping[CellId, Descriptor], arity: int):
        self._complex = complex
        self._values = dict(values)
        self._arity = arity

    @property
    def complex(self) -> CellComplex:
        return self._complex

    @property
    def values(self) -> Mapping[CellId, Descriptor]:
        return MappingProxyType(self._values)

    @property
    def arity(self) -> int:
        return self._arity

    def __getitem__(self, cell_id: CellId) -> Descriptor:
        return self._values[cell_id]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbeAssignment):
            return NotImplemented
        return (self._complex == other._complex
                and self._values == other._values
                and self._arity == other._arity)

    def __repr__(self) -> str:
        return f"<ProbeAssignment arity {self._arity} on {len(self._values)} cells>"


def assign_probe(complex: CellComplex,
                 table: Iterable[tuple[CellId, Iterable[float]]]) -> ProbeAssignment:
    """Attach descriptors to a complex, one per cell, uniform arity.

    Raises:
        DuplicateEntryError: a cell appears twice in the table.
        ForeignCellError: a table row names a cell not in the complex.
        ArityMismatchError: rows have different lengths.
        MissingCellError: some cell of the complex has no row.
    """
    values: dict[CellId, Descriptor] = {}
    arity: int | None = None
    for cid, raw in table:
        cid = str(cid)
        if cid in values:
            raise DuplicateEntryError(f"cell {cid!r} listed twice")
        if cid not in complex:
            raise ForeignCellError(f"cell {cid!r} is not in the complex")
        desc = _as_descriptor(raw)
        if arity is None:
            arity = len(desc)
        elif len(desc) != arity:
            raise ArityMismatchError(
                f"descriptor for {cid!r} has arity {len(desc)}, expected {arity}")
        values[cid] = desc
    missing = sorted(set(complex.cells) - set(values))
    if missing:
        raise MissingCellError(f"cells without descriptors: {', '.join(missing)}")
    return ProbeAssignment(complex, values, arity if arity is not None else 0)


def ball_members(probe: ProbeAssignment, ball: DescriptorBall, p: int) -> set[CellId]:
    """The p-cells whose descriptor lies inside the ball."""
    return {cid for cid in probe.complex.cells_of_dim(p) if ball.contains(probe[cid])}


@dataclass(frozen=True)
class DescriptiveSubcomplex:
    """Result of carving a complex along a descriptor ball.

    ``complex`` holds the surviving cells; ``removed`` records what was
    dropped, including cofaces removed by the upward cascade.
    """

    probe: ProbeAssignment
    ball: DescriptorBall
    dim: int
    mode: str
    complex: CellComplex
    removed: frozenset[CellId]


def removed_cells(probe: ProbeAssignment, ball: DescriptorBall,
                  p: int = 2, mode: str = "remove") -> frozenset[CellId]:
    """The cells ``derive_subcomplex`` deletes for a descriptor ball.

    In "remove" mode these are the p-cells inside the ball; in "retain"
    mode the p-cells outside it. Cells of dimension below p always
    survive. Every higher cell whose closure meets a deleted cell is
    deleted too, so each surviving cell keeps all of its faces.
    """
    return _carver(probe, p, mode)(ball)


def _carver(probe: ProbeAssignment, p: int, mode: str
            ) -> Callable[[DescriptorBall], frozenset[CellId]]:
    """``removed_cells`` as a function of the ball. A ball calls ``contains``
    once per distinct p-cell value (equal values, signed zeros included, lie
    at equal distances), and each selection of values is carved once."""
    if mode not in ("remove", "retain"):
        raise ValueError(f"mode must be 'remove' or 'retain', got {mode!r}")
    if p < 0:
        raise ValueError(f"dimension must be non-negative, got {p}")
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


def derive_subcomplex(probe: ProbeAssignment, ball: DescriptorBall,
                      p: int = 2, mode: str = "remove") -> DescriptiveSubcomplex:
    """Delete (or keep only) the p-cells inside a descriptor ball.

    The deleted cells, cofaces included, are ``removed_cells``. The
    result is face-closed and passes validation whenever the base does.
    """
    removed = removed_cells(probe, ball, p, mode)
    cells = {cid: d for cid, d in probe.complex.cells.items() if cid not in removed}
    return DescriptiveSubcomplex(
        probe=probe, ball=ball, dim=p, mode=mode,
        complex=probe.complex._induced(cells), removed=removed)


def descriptive_homology(probe: ProbeAssignment, ball: DescriptorBall,
                         p: int = 2, mode: str = "remove",
                         max_p: int | None = None) -> HomologyResult:
    """``homology(derive_subcomplex(probe, ball, p, mode).complex, max_p)``,
    from the base's validation and its maps less the ``removed_cells``
    columns, with no sub-complex built. ``max_p`` defaults to the base
    complex's top dimension so Betti vectors stay comparable across
    different balls.
    """
    removed = removed_cells(probe, ball, p, mode)
    base = probe.complex
    _check_survivors(base.validate(), removed)
    return _homology(base, removed, max_p)


def alpha_spectrum(probe: ProbeAssignment, p: int) -> list[Descriptor]:
    """Distinct descriptor values of the p-cells, lexicographically sorted."""
    return sorted({probe[cid] for cid in probe.complex.cells_of_dim(p)})


def chain_inclusion(sub: DescriptiveSubcomplex, chain: Chain) -> Chain:
    """Reinterpret a sub-complex chain inside the base complex.

    The support is unchanged; inclusion is injective and additive.

    Raises:
        ForeignCellError: the chain uses cells absent from the sub-complex.
    """
    for cid in chain.support:
        if cid not in sub.complex:
            raise ForeignCellError(f"cell {cid!r} is not in the sub-complex")
        if sub.complex.dim_of(cid) != chain.dim:
            raise ForeignCellError(
                f"cell {cid!r} has dimension {sub.complex.dim_of(cid)}, "
                f"chain claims {chain.dim}")
    return Chain(chain.dim, chain.support)
