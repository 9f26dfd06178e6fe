"""Mod-2 chain arithmetic and cellular homology.

Chains are supports: a p-chain is the set of p-cells carrying
coefficient 1, and addition is symmetric difference. The engine holds
each boundary map as one int bitset per column and reduces it once,
left to right, over the two-element field; that one reduction gives the
boundary rank, an echelon basis of the image and a kernel basis.
``_reduce_maps`` reduces the maps of a complex less a set of removed cells
from the top dimension down, skipping the columns that the map above
shows to be dependent (clearing); ``homology``, ``descriptive_homology``
and ``_masked_betti`` (the signature entries) all run it.
``oracle_homology`` recomputes the same numbers by exhaustive
enumeration of every chain, over its own int columns, as an independent
cross-check on small complexes.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence

from ._record import Record
from .cellcomplex import CellComplex, CellId, Violation
from .errors import (
    DimensionMismatchError,
    ForeignCellError,
    InvalidComplexError,
    TooLargeError,
)


class Chain(Record):
    """A formal sum of cells of one dimension with coefficients in {0, 1}.

    The support holds exactly the cells with coefficient 1. Addition is
    symmetric difference, so every chain is its own inverse and the empty
    chain is the identity.
    """

    __slots__ = ("dim", "support")

    def __init__(self, dim: int, support: Iterable[CellId] = frozenset()):
        support = frozenset(support)
        if dim < -1:
            raise ValueError(f"chain dimension must be >= -1, got {dim}")
        if dim < 0 and support:
            raise ValueError("a chain below dimension 0 must be empty")
        super().__init__(dim, support)

    def __add__(self, other: "Chain") -> "Chain":
        if not isinstance(other, Chain):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"cannot add chains of dimensions {self.dim} and {other.dim}")
        return Chain(self.dim, self.support ^ other.support)

    def __bool__(self) -> bool:
        return bool(self.support)

    def __len__(self) -> int:
        return len(self.support)

    def sorted_support(self) -> tuple[CellId, ...]:
        return tuple(sorted(self.support))

    @classmethod
    def empty(cls, dim: int) -> "Chain":
        return cls(dim, frozenset())


class DimensionHomology(Record):
    """Homology data for a single dimension."""

    __slots__ = ("dim", "n_cells", "cycle_rank", "boundary_rank", "betti", "generators")

    def __init__(self, dim: int, n_cells: int, cycle_rank: int, boundary_rank: int,
                 betti: int, generators: tuple[Chain, ...] = ()):
        super().__init__(dim, n_cells, cycle_rank, boundary_rank, betti, generators)


class HomologyResult(Record):
    """Per-dimension cycle ranks, boundary ranks, Betti numbers and
    generator cycles."""

    __slots__ = ("records",)

    def __init__(self, records: tuple[DimensionHomology, ...]):
        super().__init__(records)

    def record(self, p: int) -> DimensionHomology:
        for r in self.records:
            if r.dim == p:
                return r
        raise KeyError(f"no homology record for dimension {p}")

    def betti(self, p: int) -> int:
        return self.record(p).betti

    def betti_vector(self) -> tuple[int, ...]:
        return tuple(r.betti for r in self.records)

    def ranks(self) -> tuple[tuple[int, int, int], ...]:
        """(cycle_rank, boundary_rank, betti) per dimension, for
        comparisons between the engine and the oracle."""
        return tuple((r.cycle_rank, r.boundary_rank, r.betti) for r in self.records)

    def to_text(self, include_generators: bool = False) -> str:
        """Structured text form: one record line per dimension, optional
        generator lines, and a closing Betti vector line."""
        lines = []
        for r in self.records:
            lines.append(
                f"dim {r.dim} cells {r.n_cells} cycle_rank {r.cycle_rank} "
                f"boundary_rank {r.boundary_rank} betti {r.betti}")
            if include_generators:
                for g in r.generators:
                    lines.append(f"gen {r.dim} {' '.join(g.sorted_support())}")
        lines.append("betti " + " ".join(str(r.betti) for r in self.records))
        return "\n".join(lines) + "\n"


# -- chain-level operations ----------------------------------------------


def _check_chain(complex: CellComplex, chain: Chain) -> None:
    for cid in chain.support:
        if cid not in complex:
            raise ForeignCellError(f"chain references unknown cell {cid!r}")
        if complex.dim_of(cid) != chain.dim:
            raise DimensionMismatchError(
                f"cell {cid!r} has dimension {complex.dim_of(cid)}, "
                f"chain claims {chain.dim}")


def boundary_of(complex: CellComplex, chain: Chain) -> Chain:
    """Apply the mod-2 boundary homomorphism to a chain.

    Chains of dimension 0 (or below) map to the empty chain.
    """
    _check_chain(complex, chain)
    if chain.dim <= 0:
        return Chain(max(chain.dim - 1, -1))
    out: set[CellId] = set()
    for cid in chain.support:
        out.symmetric_difference_update(complex.odd_faces(cid))
    return Chain(chain.dim - 1, frozenset(out))


# -- GF(2) column reduction ---------------------------------------------------


def _reduce(columns: Iterable[int], pivots: dict[int, int] | None = None,
            ) -> tuple[dict[int, int], dict[int, int]]:
    """Left-to-right column reduction over GF(2), columns as int bitsets.

    Each column is cleared of its top bit by adding the column stored
    under that bit, until it is zero or its top bit is free. Returns:

    - the pivot map, top bit -> reduced column: an echelon basis of the
      span of ``pivots`` (extended in place when given) and ``columns``;
    - for each column j that reduces to zero, in ascending order, a
      combination bitset over column indices: bit j plus the earlier
      nonzero columns it was reduced by. Their sum lies in the span of
      the given pivots; without any, the combinations are a kernel
      basis, each the unique kernel vector with j as its only free
      column, which is what a reduced row echelon form yields.
    """
    pivots = {} if pivots is None else pivots
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
            combo ^= combos.get(top, 0)
        else:
            dependent[j] = combo
    return pivots, dependent


def _chain(p: int, cells: tuple[CellId, ...], bits: int) -> Chain:
    """The p-chain whose support is the cells at the set bit positions."""
    support = []
    while bits:
        low = bits & -bits
        support.append(cells[low.bit_length() - 1])
        bits ^= low
    return Chain(p, frozenset(support))


def rank_mod2(matrix) -> int:
    """Rank over GF(2) of a matrix given as a sequence of integer rows.

    A list of lists works, and so does any 2-d array that iterates as
    rows. Entries are reduced mod 2; the input is read, never modified.
    A matrix with no rows has rank 0.

    Raises:
        ValueError: the input is not 2-d (an ``ndim`` other than 2, or
            rows that are not sequences of integers).
    """
    if getattr(matrix, "ndim", 2) != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={matrix.ndim}")
    try:
        rows = [sum((int(x) & 1) << j for j, x in enumerate(row)) for row in matrix]
    except TypeError:
        raise ValueError("expected a 2-d matrix of integer rows") from None
    return len(_reduce(rows)[0])


# -- homology -------------------------------------------------------------------


def cycle_basis(complex: CellComplex, p: int) -> list[Chain]:
    """A basis of the p-cycle space (kernel of the boundary map).

    One cycle per p-cell that the column reduction of the boundary
    matrix finds dependent on the sorted cells before it: that cell plus
    the unique set of earlier independent cells its boundary cancels
    against. Dimension 0 therefore gives the singleton vertex chains.
    """
    _, kernel = _reduce(complex.boundary_columns(p))
    cells = complex.cells_of_dim(p)
    return [_chain(p, cells, z) for z in kernel.values()]


def is_boundary(complex: CellComplex, chain: Chain) -> bool:
    """Whether the chain lies in the image of the next boundary map."""
    _check_chain(complex, chain)
    if not chain.support:
        return True
    pos = {cid: i for i, cid in enumerate(complex.cells_of_dim(chain.dim))}
    target = sum(1 << pos[cid] for cid in chain.support)
    image, _ = _reduce(complex.boundary_columns(chain.dim + 1))
    return bool(_reduce([target], image)[1])


def _reduce_maps(base: CellComplex, removed: frozenset[CellId], max_p: int,
                 known: Sequence[dict[int, int] | None] | None = None) -> list[tuple]:
    """Homology 0 .. max_p of ``base`` less the ``removed`` cells, which
    must be closed upward (as ``removed_cells`` makes them), so that
    every surviving column is zero on the removed rows.

    Each map is reduced once, from d_(max_p+1) down to d_0, over the
    base's columns with the removed ones zeroed, and with clearing: a
    p-column whose index is a pivot of the reduced d_(p+1) is zeroed too.
    Without the zero rows and columns this is the reduction of the
    ``derive_subcomplex`` complex, and a removed column is no cycle of
    it. The generators are those a full reduction picks, by three steps:

    - a cleared column j is the top bit of a boundary b in the image, and
      d_p b = 0 makes column j a sum of the columns before it, so the full
      reduction takes it to zero too;
    - a column reduced to zero never becomes a pivot, so every other
      column's pivot and kernel combination is unchanged;
    - adding the kernel vectors z_j in ascending j to the image raises
      its dimension by 1 - [j is a pivot of d_(p+1)], so the cycles that
      are not in the span of the image and the cycles before them are
      exactly the z_j of the dependent, uncleared columns.

    Returns (p, cells, cycle rank, boundary rank, generators) per p <=
    max_p. With ``known`` (per dimension, the pivot map of a map that
    loses no cell, not reduced then, or None) no generators are built.
    """
    records = []
    image: dict[int, int] = {}
    for p in range(max_p + 1, -1, -1):
        cells = base.cells_of_dim(p)
        pivots = known[p] if known else None
        cut = ({j for j, cid in enumerate(cells) if cid in removed}
               if removed and pivots is None else ())
        if pivots is None:
            zeroed = image.keys() | cut if cut else image
            pivots, kernel = _reduce(0 if j in zeroed else col
                                     for j, col in enumerate(base.boundary_columns(p)))
        if p <= max_p:
            n = len(cells) - len(cut)
            records.append((p, n, n - len(pivots), len(image), () if known else tuple(
                _chain(p, cells, z) for j, z in kernel.items() if j not in zeroed)))
        image = pivots
    return records[::-1]


def _top_dim(base: CellComplex, max_p: int | None) -> int:
    """The top dimension to compute: ``max_p``, which must not be
    negative, or by default the base's (-1 for the empty complex)."""
    if max_p is None:
        return base.max_dim
    if max_p < 0:
        raise ValueError(f"dimension must be non-negative, got {max_p}")
    return max_p


def _homology(base: CellComplex, removed: frozenset[CellId],
              max_p: int | None) -> HomologyResult:
    """``_reduce_maps`` up to ``_top_dim(base, max_p)`` as a ``HomologyResult``."""
    return HomologyResult(tuple(
        DimensionHomology(p, n, z, b, z - b, generators)
        for p, n, z, b, generators in _reduce_maps(base, removed, _top_dim(base, max_p))))


def homology(complex: CellComplex, max_p: int | None = None) -> HomologyResult:
    """Cycle ranks, boundary ranks, Betti numbers and generators, from one
    reduction of each boundary map, top down, with clearing (``_reduce_maps``).

    Raises:
        InvalidComplexError: the complex fails ``validate``.
        ValueError: ``max_p`` is negative.
    """
    violations = complex.validate()
    if violations:
        raise InvalidComplexError(violations)
    return _homology(complex, frozenset(), max_p)


def _check_survivors(violations: list[Violation], removed: frozenset[CellId]) -> None:
    """Raise what ``homology`` raises on a base less the ``removed`` cells:
    the base's violations whose cells all survive, less the dangling
    faces, whose entries ``CellComplex._induced`` drops."""
    found = [v for v in violations if v.code != "dangling-face" and removed.isdisjoint(v.cells)]
    if found:
        raise InvalidComplexError(found)


def _masked_betti(base: CellComplex, max_p: int,
                  ) -> Callable[[frozenset[CellId]], tuple[int, ...]]:
    """Betti numbers 0 .. max_p of the sub-complexes of ``base`` that
    ``removed_cells`` carves, as a function of the removed set that raises
    what ``_check_survivors`` raises. The base is validated once and each
    removed set reduced once. A map that loses no cell keeps the base's
    pivots, reduced without clearing: the base may be invalid where a
    sub-complex is not."""
    violations = base.validate()
    cell_sets = [frozenset(base.cells_of_dim(q)) for q in range(max_p + 2)]
    base_pivots = [_reduce(base.boundary_columns(q))[0] for q in range(max_p + 2)]

    @functools.cache
    def betti(removed: frozenset[CellId]) -> tuple[int, ...]:
        _check_survivors(violations, removed)
        known = [pivots if removed.isdisjoint(cells) else None
                 for pivots, cells in zip(base_pivots, cell_sets)]
        return tuple(z - b for _, _, z, b, _ in _reduce_maps(base, removed, max_p, known))

    return betti


# -- homology: enumeration oracle ---------------------------------------

# Most cells of one dimension the oracle enumerates chains over: 2**20
# chains take about 0.2 s, and each further cell doubles that.
MAX_ORACLE_CELLS = 20


def _dense_boundary(complex: CellComplex, p: int) -> list[int]:
    # Built here from the raw incidence table so the oracle does not share
    # the engine's matrix path: one int per p-cell, bit i set when the
    # i-th sorted (p-1)-cell is an odd face.
    pos = {cid: i for i, cid in enumerate(complex.cells_of_dim(p - 1))}
    return [sum(1 << pos[fid] for fid, deg in complex.faces(cid).items() if deg % 2 and fid in pos)
            for cid in complex.cells_of_dim(p)]


def _exact_log2(count: int) -> int:
    assert count > 0 and count & (count - 1) == 0, f"{count} is not a power of two"
    return count.bit_length() - 1


def _enumerate_chains(columns: list[int]) -> tuple[int, int]:
    """Every chain of a boundary map's columns, in Gray-code order, one
    column XOR per chain: (log2 of the number of chains with zero
    boundary, log2 of the number of distinct boundaries)."""
    if len(columns) > MAX_ORACLE_CELLS:
        raise TooLargeError(f"cannot enumerate 2**{len(columns)} chains")
    boundary, cycles, boundaries = 0, 1, {0}
    for i in range(1, 1 << len(columns)):
        boundary ^= columns[(i & -i).bit_length() - 1]
        if boundary:
            boundaries.add(boundary)
        else:
            cycles += 1
    return _exact_log2(cycles), _exact_log2(len(boundaries))


def oracle_homology(complex: CellComplex, max_cells: int = 14) -> HomologyResult:
    """Brute-force homology by enumerating every chain.

    For each boundary map d_p with p >= 1, all 2**(number of p-cells)
    chains are listed once: the cycle rank z_p is the log of how many
    have empty boundary, and the boundary rank b_(p-1) the log of how
    many distinct boundaries they produce. z_0 is the number of
    vertices and the top boundary rank is 0. No elimination is involved,
    so this is a fully independent check of the reduction engine.
    Generators are not produced.

    Args:
        max_cells: refuse complexes with more cells than this
            (TooLargeError), since the cost is exponential.

    Raises:
        TooLargeError: more than ``max_cells`` cells, or a dimension with
            more than ``MAX_ORACLE_CELLS`` cells.
        InvalidComplexError: the complex fails ``validate``, as in
            ``homology``.
    """
    if len(complex) > max_cells:
        raise TooLargeError(
            f"complex has {len(complex)} cells, enumeration bound is {max_cells}")
    violations = complex.validate()
    if violations:
        raise InvalidComplexError(violations)
    top = complex.max_dim
    maps = [_enumerate_chains(_dense_boundary(complex, p)) for p in range(1, top + 1)]
    cycle_ranks = [len(complex.cells_of_dim(0)), *(z for z, _ in maps)]
    boundary_ranks = [*(b for _, b in maps), 0]
    return HomologyResult(tuple(
        DimensionHomology(dim=p, n_cells=len(complex.cells_of_dim(p)), cycle_rank=z,
                          boundary_rank=b, betti=z - b, generators=())
        for p, z, b in zip(range(top + 1), cycle_ranks, boundary_ranks)))
