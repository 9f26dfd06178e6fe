"""Mod-2 chain arithmetic and cellular homology.

Chains are supports: a p-chain is the set of p-cells carrying
coefficient 1, and addition is symmetric difference. The engine holds
each boundary map as one int bitset per column and reduces it left to
right over the two-element field, with one pivot routine, ``_pivots``,
whose pivot map's length is the rank; ``_reduce`` also records column
combinations, and runs only where a kernel basis is read. One loop over
the maps, ``_reduce_maps``, runs ``homology`` and ``descriptive_homology``:
it reduces the maps of a complex less a set of removed cells from the top
dimension down, skipping the columns that the map above shows to be
dependent (clearing). ``_masked_betti`` (the signature entries) takes
each map of the base once and reads every sub-complex's Betti numbers
off the base's ranks and the kernel bases of the maps that lose cells,
or, for a map that keeps fewer cells than it loses, off the rank of its
kept columns. Both take the removed cells as one int mask per dimension
over ``cells_of_dim`` order, and read the columns and kernel rows they
need by position; ``_check_survivors`` reads the masks as cell ids only
when the base has violations to test.
``oracle_homology`` recomputes the same numbers by exhaustive
enumeration of every chain, over its own int columns, as an independent
cross-check on small complexes.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator, Sequence

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
    _defaults = ((),)


class HomologyResult(Record):
    """Per-dimension cycle ranks, boundary ranks, Betti numbers and
    generator cycles."""

    __slots__ = ("records",)

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
    """Apply the mod-2 boundary homomorphism to a chain: the XOR of its
    cells' columns in ``boundary_columns``, the map the engine reduces.

    Chains of dimension 0 (or below) map to the empty chain.
    """
    # Imported here: `import descell` under `python -S` loads no bisect.
    from bisect import bisect_left

    _check_chain(complex, chain)
    if chain.dim <= 0:
        return Chain(max(chain.dim - 1, -1))
    cells, columns = complex.cells_of_dim(chain.dim), complex.boundary_columns(chain.dim)
    bits = 0
    for cid in chain.support:
        bits ^= columns[bisect_left(cells, cid)]
    return _chain(chain.dim - 1, complex.cells_of_dim(chain.dim - 1), bits)


# -- GF(2) column reduction ---------------------------------------------------


def _pivots(columns: Iterable[int], pivots: dict[int, int] | None = None,
            bound: int | None = None) -> dict[int, int]:
    """Left-to-right column reduction over GF(2), columns as int bitsets:
    each column is cleared of its top bit by adding the column stored
    under that bit, until it is zero or its top bit is free. Returns the
    pivot map, top bit -> reduced column, an echelon basis of the span
    whose length is the rank. Extends ``pivots`` in place when given, and
    reads no further columns once the rank reaches ``bound``."""
    pivots = {} if pivots is None else pivots
    for col in columns:
        if len(pivots) == bound:
            break
        while col:
            top = col.bit_length() - 1
            other = pivots.get(top)
            if other is None:
                pivots[top] = col
                break
            col ^= other
    return pivots


def _reduce(columns: Iterable[tuple[int, int]]) -> tuple[dict[int, int], dict[int, int]]:
    """``_pivots`` over ``(index, column)`` pairs in ascending index, also
    recording column combinations. Returns the pivot map and, for each
    column j that reduces to zero, in ascending order, a combination
    bitset over column indices: bit j plus the earlier nonzero columns it
    was reduced by. These are a kernel basis, each the unique kernel
    vector with j as its only free column, which is what a reduced row
    echelon form yields. An index left out is a zero column that adds no
    kernel vector.
    """
    pivots: dict[int, int] = {}
    combos: dict[int, int] = {}
    dependent: dict[int, int] = {}
    for j, col in columns:
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


def _selected(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of ``mask``, bit i for ``items[i]``, in
    order. Each next set bit is found by a C-level scan of the mask's
    binary digits, so a sparse mask costs little more than its bits."""
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield items[i]
        i = bits.find("1", i + 1)


def _chain(p: int, cells: tuple[CellId, ...], bits: int) -> Chain:
    """The p-chain whose support is the cells at the set bit positions."""
    return Chain(p, frozenset(_selected(cells, bits)))


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
    return len(_pivots(rows))


# -- homology -------------------------------------------------------------------


def cycle_basis(complex: CellComplex, p: int) -> list[Chain]:
    """A basis of the p-cycle space (kernel of the boundary map).

    One cycle per p-cell that the column reduction of the boundary
    matrix finds dependent on the sorted cells before it: that cell plus
    the unique set of earlier independent cells its boundary cancels
    against. Dimension 0 therefore gives the singleton vertex chains.
    """
    _, kernel = _reduce(enumerate(complex.boundary_columns(p)))
    cells = complex.cells_of_dim(p)
    return [_chain(p, cells, z) for z in kernel.values()]


def is_boundary(complex: CellComplex, chain: Chain) -> bool:
    """Whether the chain lies in the image of the next boundary map."""
    _check_chain(complex, chain)
    if not chain.support:
        return True
    pos = {cid: i for i, cid in enumerate(complex.cells_of_dim(chain.dim))}
    target = sum(1 << pos[cid] for cid in chain.support)
    pivots = _pivots(complex.boundary_columns(chain.dim + 1))
    rank = len(pivots)
    return len(_pivots([target], pivots)) == rank


def _top_dim(base: CellComplex, max_p: int | None) -> int:
    """The top dimension to compute: ``max_p``, which must not be
    negative, or by default the base's (-1 for the empty complex)."""
    if max_p is None:
        return base.max_dim
    if max_p < 0:
        raise ValueError(f"dimension must be non-negative, got {max_p}")
    return max_p


def _reduce_maps(base: CellComplex, removed: tuple[int, ...],
                 max_p: int | None) -> HomologyResult:
    """Homology 0 .. ``_top_dim(base, max_p)`` of ``base`` less the
    ``removed`` cells, given as one mask per dimension over
    ``cells_of_dim`` order (a dimension past the tuple's end loses
    nothing, so ``()`` removes nothing). The removed cells must be closed
    upward (as ``_carver`` makes them), so that every surviving column is
    zero on the removed rows.

    Each map is reduced once, from d_(top+1) down to d_0, over the base's
    columns with the removed ones skipped, and with clearing: a p-column
    whose index is a pivot of the reduced d_(p+1) is skipped too. Only the
    pivots of d_(top+1) are read, so ``_pivots`` reduces it, and
    ``_reduce`` the maps below, given each column with its index. Without
    the zero rows and the skipped columns this is the reduction of the
    ``derive_subcomplex`` complex, and a removed column is no cycle of it.
    The generators are those a full reduction picks, by three steps:

    - a cleared column j is the top bit of a boundary b in the image, and
      d_p b = 0 makes column j a sum of the columns before it, so the full
      reduction takes it to zero too;
    - a column reduced to zero never becomes a pivot, so every other
      column's pivot and kernel combination is unchanged;
    - adding the kernel vectors z_j in ascending j to the image raises
      its dimension by 1 - [j is a pivot of d_(p+1)], so the cycles that
      are not in the span of the image and the cycles before them are
      exactly the z_j of the dependent, uncleared columns.
    """
    top = _top_dim(base, max_p)
    records = []
    image: dict[int, int] = {}
    for p in range(top + 1, -1, -1):
        cells = base.cells_of_dim(p)
        cut = removed[p] if p < len(removed) else 0
        skipped = image.keys() | _selected(range(len(cells)), cut) if cut else image
        columns = [(j, col) for j, col in enumerate(base.boundary_columns(p))
                   if j not in skipped]
        if p > top:
            image = _pivots(col for _, col in columns)
            continue
        pivots, kernel = _reduce(columns)
        n = len(cells) - cut.bit_count()
        z, b = n - len(pivots), len(image)
        records.append(DimensionHomology(p, n, z, b, z - b, tuple(
            _chain(p, cells, k) for k in kernel.values())))
        image = pivots
    return HomologyResult(tuple(records[::-1]))


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
    return _reduce_maps(complex, (), max_p)


def _removed_ids(base: CellComplex, removed: tuple[int, ...]) -> frozenset[CellId]:
    """The ids of the cells that the per-dimension masks ``removed`` hold."""
    return frozenset(cid for q, mask in enumerate(removed)
                     for cid in _selected(base.cells_of_dim(q), mask))


def _check_survivors(base: CellComplex, violations: list[Violation],
                     removed: tuple[int, ...]) -> None:
    """Raise what ``homology`` raises on ``base`` less the ``removed``
    cells (masks, as ``_reduce_maps`` takes them), given the base's
    violations: those whose cells all survive, less the dangling faces,
    whose entries ``CellComplex._induced`` drops. The masks are read as
    ids only when the base has violations."""
    ids = _removed_ids(base, removed) if violations else frozenset()
    found = [v for v in violations if v.code != "dangling-face" and ids.isdisjoint(v.cells)]
    if found:
        raise InvalidComplexError(found)


def _masked_betti(base: CellComplex, max_p: int, removal_dim: int,
                  ) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Betti numbers 0 .. max_p of the sub-complexes of ``base`` that
    ``_carver`` carves at ``removal_dim``, as a function of the removed
    masks (one per dimension, over ``cells_of_dim`` order) that raises
    what ``_check_survivors`` raises. The base is validated once, and
    each map d_0 .. d_(max_p+1) of the base is taken once, without
    clearing (the base may be invalid where a sub-complex is not); no
    entry calls ``_reduce``.

    A removed set is closed upward and holds no cell below
    ``removal_dim``, so the maps below it are only ranked, and only the
    maps d_q with q >= ``removal_dim`` are reduced for their kernel basis
    Z_q. The sub-complex's d_q is the base's d_q on the surviving
    columns: n_q - |S_q| of them, for the removed q-cells S_q, the set
    bits of mask q. Its rank is either of two equal counts; the second is
    taken when the survivors are fewer than both |S_q| and dim Z_q,
    which bound the rows and the rank of the first:

    - the survivors less the dimension of the base kernel vectors that
      vanish on S_q, that is dim Z_q less the rank of Z_q restricted to
      S_q. That rank is read from the rows of the basis's transpose at
      S_q (per q-cell position, a bitset of the kernel vectors that hold
      it, built for a map on first need), and it stops at dim Z_q;
    - the rank of the surviving columns (a ball that keeps few cells).

    Then betti_q = (n_q - |S_q|) - rank d_q - rank d_(q+1), both ranks
    on the survivors."""
    violations = base.validate()
    dims = range(max_p + 2)
    sizes = [len(base.cells_of_dim(q)) for q in dims]
    kernels = {q: tuple(_reduce(enumerate(base.boundary_columns(q)))[1].values())
               for q in dims if q >= removal_dim}
    ranks = [sizes[q] - len(kernels[q]) if q in kernels
             else len(_pivots(base.boundary_columns(q))) for q in dims]

    @functools.cache
    def transpose(q: int) -> list[int]:
        rows = [0] * sizes[q]
        for k, z in enumerate(kernels[q]):
            for i in _selected(range(sizes[q]), z):
                rows[i] |= 1 << k
        return rows

    def rank(q: int, cut: int, kept: int) -> int:
        nullity = len(kernels[q])
        if kept < min(sizes[q] - kept, nullity):
            survivors = cut ^ (1 << sizes[q]) - 1
            return len(_pivots(_selected(base.boundary_columns(q), survivors)))
        return kept - nullity + len(_pivots(_selected(transpose(q), cut), bound=nullity))

    @functools.cache
    def betti(removed: tuple[int, ...]) -> tuple[int, ...]:
        _check_survivors(base, violations, removed)
        kept, masked = [], []
        for q in dims:
            cut = removed[q] if removal_dim <= q < len(removed) else 0
            kept.append(sizes[q] - cut.bit_count())
            masked.append(rank(q, cut, kept[q]) if cut else ranks[q])
        return tuple(kept[q] - masked[q] - masked[q + 1] for q in range(max_p + 1))

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
