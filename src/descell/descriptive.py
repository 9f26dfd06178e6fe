"""Descriptor assignment and descriptor-driven sub-complexes.

A probe attaches a fixed-arity vector of real feature values to every
cell of a complex. Picking a reference value and a radius carves out the
cells whose descriptors fall inside that ball; removing them (or keeping
only them) and cascading the deletion upward through cofaces yields a
sub-complex whose homology reflects the chosen feature region.

One ``_carver`` per probe and removal dimension owns the carve: it
groups the p-cells by value, hands back the sorted values (the alphas
that ``alpha_spectrum``, ``signature`` and ``descell descriptive --spectrum``
walk), and carves each ball. Inside the engine a removed set is a tuple
of int masks indexed by dimension, each over ``cells_of_dim`` order:
the carver makes them, and ``descriptive_homology``, ``signature`` and
``betti_curve`` hand them to the homology layer as they are. Cell ids
appear only at the public edges: ``removed_cells`` reads the masks as
ids, and ``derive_subcomplex`` builds its complex from those ids.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from types import MappingProxyType

from ._record import Record
from .cellcomplex import CellComplex, CellId
from .errors import (
    ArityMismatchError,
    DuplicateEntryError,
    ForeignCellError,
    MissingCellError,
)
# bench/test_bench.py::test_tracer_wraps_every_binding_and_restores pins homology.
from .homology import (  # noqa: F401
    Chain,
    HomologyResult,
    _check_survivors,
    _reduce_maps,
    _removed_ids,
    _selected,
    homology,
)

Descriptor = tuple[float, ...]


def _as_descriptor(values: Iterable[float]) -> Descriptor:
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"descriptor component {v!r} is not finite")
    return out


class DescriptorBall(Record):
    """A closed Euclidean ball in descriptor space."""

    __slots__ = ("center", "radius")

    def __init__(self, center: Iterable[float], radius: float):
        center, radius = _as_descriptor(center), float(radius)
        if not radius >= 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        super().__init__(center, radius)

    def contains(self, value: Descriptor) -> bool:
        if len(value) != len(self.center):
            raise ArityMismatchError(
                f"ball center has arity {len(self.center)}, value has {len(value)}")
        return math.dist(self.center, value) <= self.radius


class ProbeAssignment(Record):
    """A complex together with one descriptor per cell, read through the
    ``values`` view or ``probe[cell_id]``.

    ``assign_probe`` builds one from a table it checks.
    """

    __slots__ = ("complex", "_table", "arity")

    def __init__(self, complex: CellComplex, values: Mapping[CellId, Descriptor], arity: int):
        super().__init__(complex, dict(values), arity)

    @property
    def values(self) -> Mapping[CellId, Descriptor]:
        return MappingProxyType(self._table)

    def __getitem__(self, cell_id: CellId) -> Descriptor:
        return self._table[cell_id]

    def __repr__(self) -> str:
        return f"<ProbeAssignment arity {self.arity} on {len(self._table)} cells>"


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


class DescriptiveSubcomplex(Record):
    """Result of carving a complex along a descriptor ball.

    ``complex`` holds the surviving cells; ``removed`` records what was
    dropped, including cofaces removed by the upward cascade.
    """

    __slots__ = ("probe", "ball", "dim", "mode", "complex", "removed")


def removed_cells(probe: ProbeAssignment, ball: DescriptorBall,
                  p: int = 2, mode: str = "remove") -> frozenset[CellId]:
    """The cells ``derive_subcomplex`` deletes for a descriptor ball.

    In "remove" mode these are the p-cells inside the ball; in "retain"
    mode the p-cells outside it. Cells of dimension below p always
    survive. Every higher cell whose closure meets a deleted cell is
    deleted too, so each surviving cell keeps all of its faces. These are
    the ids of the masks that ``_carver`` returns.
    """
    _check_carving(p, mode)
    _, carve = _carver(probe, p, mode)
    return _removed_ids(probe.complex, carve(ball))


def _check_carving(p: int, mode: str) -> None:
    """Raise ValueError unless ``mode`` and the removal dimension ``p`` are
    ones ``_carver`` can carve with. ``_carver`` checks neither, so each
    caller that carves calls this first, at the point its errors are due."""
    if mode not in ("remove", "retain"):
        raise ValueError(f"mode must be 'remove' or 'retain', got {mode!r}")
    if p < 0:
        raise ValueError(f"dimension must be non-negative, got {p}")


def _carver(probe: ProbeAssignment, p: int, mode: str,
            ) -> tuple[list[Descriptor], Callable[[DescriptorBall], tuple[int, ...]]]:
    """A step's carve at removal dimension ``p``: its alphas (the distinct
    values of its p-cells, sorted, as ``alpha_spectrum`` returns them)
    and the cells ``removed_cells`` deletes, as a function of the ball, in
    index form: one mask per dimension 0 .. ``max_dim`` over
    ``cells_of_dim`` order, the form ``_masked_betti`` and
    ``_reduce_maps`` take (a removal dimension above the top removes
    nothing). Raises nothing: ``_check_carving`` checks ``p`` and
    ``mode``, and a carve raises what ``contains`` raises.

    The p-cells are grouped by value, in the order of each value's first
    cell, each group a mask of the cells holding it; equal values (signed
    zeros included) share a group. A ball selects whole groups, in one of
    two ways. When the values and the ball have arity 1, ``math.dist`` is
    exactly |c0 - v|, so a ball of radius r selects the index range
    [lo, hi) of the values sorted (NaN left out) where c0 - v <= r and
    not v - c0 > r, found by bisection (rounded subtraction is monotone);
    a NaN value, at a NaN distance, is never selected. The range's cut is
    ``prefix[hi] ^ prefix[lo]``, from the XORs of the sorted values' masks
    before each index. Any other ball calls ``contains`` on every value,
    in first-cell order, so a ball of another arity raises
    ArityMismatchError on the first value; the cut is the OR of the
    masks of the values it holds.

    In retain mode the cut is XORed with the full p-mask. Above p, one
    ascending sweep removes each cell that records a removed face and sets
    its bit."""
    # Imported here: `import descell` under `python -S` loads no bisect.
    from bisect import bisect_left

    base = probe.complex
    cells = base.cells_of_dim(p)
    groups: dict[Descriptor, int] = {}
    for i, value in enumerate(map(probe._table.__getitem__, cells)):
        groups[value] = groups.get(value, 0) | 1 << i
    # Inserted one at a time, as a set of the cells' values is built, so
    # values holding NaN (which sort by input order) keep that order.
    alphas = sorted({value for value in groups})
    scalar = all(len(value) == 1 for value in groups)
    firsts = sorted(v[0] for v in groups if not math.isnan(v[0])) if scalar else []
    prefix = [0]
    for first in firsts:
        prefix.append(prefix[-1] ^ groups[(first,)])
    top = base.max_dim
    full = (1 << len(cells)) - 1 if mode == "retain" else 0

    def carve(ball: DescriptorBall) -> tuple[int, ...]:
        if scalar and len(ball.center) == 1:
            c0, r = ball.center[0], ball.radius
            lo = bisect_left(firsts, True, key=lambda v: c0 - v <= r)
            hi = bisect_left(firsts, True, lo, key=lambda v: v - c0 > r)
            cut = full ^ prefix[hi] ^ prefix[lo]
        else:
            cut = full
            for value in filter(ball.contains, groups):  # disjoint groups: XOR is their OR
                cut ^= groups[value]
        masks = [0] * (top + 1)
        if cut:  # a p-cell is cut, so p <= top
            masks[p] = cut
        if cut and p < top:
            gone = set(_selected(cells, cut))
            # One ascending sweep: the faces of a q-cell were settled at q-1.
            for q in range(p + 1, top + 1):
                for i, cid in enumerate(base.cells_of_dim(q)):
                    if any(fid in gone for fid in base.faces(cid)):
                        gone.add(cid)
                        masks[q] |= 1 << i
        return tuple(masks)
    return alphas, carve


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
    from the base's validation and its maps less the columns of the
    carver's masks, with no sub-complex built and no ids read. ``max_p``
    defaults to the base complex's top dimension so Betti vectors stay
    comparable across different balls.
    """
    _check_carving(p, mode)
    removed = _carver(probe, p, mode)[1](ball)
    base = probe.complex
    _check_survivors(base, base.validate(), removed)
    return _reduce_maps(base, removed, max_p)


def alpha_spectrum(probe: ProbeAssignment, p: int) -> list[Descriptor]:
    """Distinct descriptor values of the p-cells, lexicographically sorted."""
    return _carver(probe, p, "remove")[0]


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
