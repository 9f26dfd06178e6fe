"""Mod-2 chain arithmetic and cellular homology.

Chains are supports: a p-chain is the set of p-cells carrying
coefficient 1, and addition is symmetric difference. The engine holds
each boundary map as one int bitset per column and reduces it once,
left to right, over the two-element field; that one reduction gives the
boundary rank, an echelon basis of the image and a kernel basis.
``homology`` reduces the maps from the top dimension down and skips the
columns that the map above shows to be dependent (clearing).
``_masked_betti`` does the same for the sub-complexes that descriptor
balls carve out of one complex, as masks on that complex's columns.
``oracle_homology`` recomputes the same numbers by exhaustive
enumeration of every chain, as an independent cross-check on small
complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .cellcomplex import CellComplex, CellId
from .errors import (
    DimensionMismatchError,
    ForeignCellError,
    InvalidComplexError,
    TooLargeError,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Chain:
    """A formal sum of cells of one dimension with coefficients in {0, 1}.

    The support holds exactly the cells with coefficient 1. Addition is
    symmetric difference, so every chain is its own inverse and the empty
    chain is the identity.
    """

    dim: int
    support: frozenset[CellId] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(self.support))
        if self.dim < -1:
            raise ValueError(f"chain dimension must be >= -1, got {self.dim}")
        if self.dim < 0 and self.support:
            raise ValueError("a chain below dimension 0 must be empty")

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


@dataclass(frozen=True)
class DimensionHomology:
    """Homology data for a single dimension."""

    dim: int
    n_cells: int
    cycle_rank: int
    boundary_rank: int
    betti: int
    generators: tuple[Chain, ...] = ()


@dataclass(frozen=True)
class HomologyResult:
    """Per-dimension cycle ranks, boundary ranks, Betti numbers and
    generator cycles."""

    records: tuple[DimensionHomology, ...]

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
    """Rank of a binary matrix over GF(2).

    Accepts anything ``np.asarray`` does; the input is copied, never
    modified. Entries are reduced mod 2 first.
    """
    import numpy as np

    mat = np.asarray(matrix, dtype=np.int64) % 2
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={mat.ndim}")
    packed = np.packbits(mat.T.astype(bool), axis=1, bitorder="little")
    return len(_reduce(int.from_bytes(row.tobytes(), "little") for row in packed)[0])


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


def homology(complex: CellComplex, max_p: int | None = None) -> HomologyResult:
    """Cycle ranks, boundary ranks, Betti numbers and generators.

    Each boundary map is reduced once, from d_(max_p+1) down to d_0,
    with clearing: before d_p is reduced, every p-column whose index is
    a pivot of the reduced d_(p+1) is zeroed. The generators are the
    same as a full reduction would pick, by three steps:

    - a cleared column j is the top bit of a boundary b in the image, and
      d_p b = 0 makes column j a sum of the columns before it, so the full
      reduction takes it to zero too;
    - a column reduced to zero never becomes a pivot, so every other
      column's pivot and kernel combination is unchanged;
    - adding the kernel vectors z_j in ascending j to the image raises
      its dimension by 1 - [j is a pivot of d_(p+1)], so the cycles that
      are not in the span of the image and the cycles before them are
      exactly the z_j of the dependent, uncleared columns.

    So ``cycle_rank`` counts the dependent columns, cleared ones
    included, the generators are the combinations of the dependent,
    uncleared columns in ascending order (as ``cycle_basis`` gives
    them), and the output is reproducible run to run.

    Raises:
        InvalidComplexError: the complex fails ``validate``.
    """
    violations = complex.validate()
    if violations:
        raise InvalidComplexError(violations)
    if max_p is None:
        max_p = complex.max_dim
    records = []
    image: dict[int, int] = {}
    for p in range(max_p + 1, -1, -1):
        pivots, kernel = _reduce(0 if j in image else col
                                 for j, col in enumerate(complex.boundary_columns(p)))
        if p <= max_p:
            cells = complex.cells_of_dim(p)
            generators = tuple(_chain(p, cells, z)
                               for j, z in kernel.items() if j not in image)
            records.append(DimensionHomology(
                dim=p, n_cells=len(cells), cycle_rank=len(kernel),
                boundary_rank=len(image), betti=len(kernel) - len(image),
                generators=generators))
        image = pivots
    return HomologyResult(tuple(reversed(records)))


def _masked_betti(base: CellComplex, max_p: int,
                  ) -> Callable[[frozenset[CellId]], tuple[int, ...]]:
    """Betti numbers 0 .. max_p of the sub-complexes of ``base`` that
    ``removed_cells`` carves, as a function of the removed set.

    The base is validated once, and its boundary columns are the ones
    it compiled. A cell that survives keeps all of its faces, so the
    surviving columns are zero on every removed row, and
    betti_q = n_q - rank d_q - rank d_(q+1) with the removed columns
    taken as zero. Each distinct removed set is reduced once, from the
    top map down with the clearing ``homology`` uses; a map that loses
    no cell keeps the base's pivots. The base maps are reduced without
    clearing, because the base itself may fail validation where the
    sub-complexes pass it.

    The function raises what ``homology`` raises on the sub-complex
    ``derive_subcomplex`` builds: InvalidComplexError with the base's
    violations whose cells all survive, in order, less the dangling-face
    ones, which the sub-complex drops with the incidence entry.
    """
    checked = [v for v in base.validate() if v.code != "dangling-face"]
    cells = [base.cells_of_dim(q) for q in range(max_p + 2)]
    cell_sets = [frozenset(ids) for ids in cells]
    columns = [base.boundary_columns(q) for q in range(max_p + 2)]
    base_pivots = [_reduce(cols)[0] for cols in columns]
    memo: dict[frozenset[CellId], tuple[int, ...]] = {}

    def betti(removed: frozenset[CellId]) -> tuple[int, ...]:
        found = memo.get(removed)
        if found is None:
            violations = [v for v in checked if removed.isdisjoint(v.cells)]
            if violations:
                raise InvalidComplexError(violations)
            ranks = [0] * (max_p + 2)
            image: dict[int, int] = {}
            for q in range(max_p + 1, -1, -1):
                if removed.isdisjoint(cell_sets[q]):
                    image = base_pivots[q]
                else:
                    ids = cells[q]
                    image = _reduce(0 if j in image or ids[j] in removed else col
                                    for j, col in enumerate(columns[q]))[0]
                ranks[q] = len(image)
            found = memo[removed] = tuple(
                len(cells[q]) - len(removed & cell_sets[q]) - ranks[q] - ranks[q + 1]
                for q in range(max_p + 1))
        return found

    return betti


# -- homology: enumeration oracle ---------------------------------------

# Most cells of one dimension the oracle enumerates chains over: 2**20
# chains already take about 0.2 GB and a second, and each further cell
# doubles both.
MAX_ORACLE_CELLS = 20


def _indicator_rows(n: int) -> np.ndarray:
    """All 2**n subset indicators of an n-set, one per row."""
    import numpy as np

    if n > MAX_ORACLE_CELLS:
        raise TooLargeError(f"cannot enumerate 2**{n} chains")
    idx = np.arange(2 ** n, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def _dense_boundary(complex: CellComplex, p: int) -> np.ndarray:
    # Built here from the raw incidence table so the oracle does not share
    # the engine's matrix path.
    import numpy as np

    rows = complex.cells_of_dim(p - 1)
    cols = complex.cells_of_dim(p)
    mat = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    pos = {cid: i for i, cid in enumerate(rows)}
    for j, cid in enumerate(cols):
        for fid, deg in complex.faces(cid).items():
            if deg % 2 and fid in pos:
                mat[pos[fid], j] = 1
    return mat


def _exact_log2(count: int) -> int:
    assert count > 0 and count & (count - 1) == 0, f"{count} is not a power of two"
    return count.bit_length() - 1


def oracle_homology(complex: CellComplex, max_cells: int = 14) -> HomologyResult:
    """Brute-force homology by enumerating every chain.

    For each dimension p, all 2**(number of p-cells) chains are listed;
    the cycle rank is the log of how many have empty boundary and the
    boundary rank is the log of how many distinct boundaries the
    (p+1)-chains produce. No elimination is involved, so this is a fully
    independent check of the reduction engine. Generators are not
    produced.

    Args:
        max_cells: refuse complexes with more cells than this
            (TooLargeError), since the cost is exponential.
    """
    import numpy as np

    if len(complex) > max_cells:
        raise TooLargeError(
            f"complex has {len(complex)} cells, enumeration bound is {max_cells}")
    records = []
    for p in range(0, complex.max_dim + 1):
        n_p = len(complex.cells_of_dim(p))
        if p == 0:
            z_p = n_p
        else:
            mat = _dense_boundary(complex, p)
            chains = _indicator_rows(n_p)
            boundaries = chains @ mat.T % 2
            kernel_count = int(np.count_nonzero(boundaries.sum(axis=1) == 0))
            z_p = _exact_log2(kernel_count)
        n_up = len(complex.cells_of_dim(p + 1))
        if n_up == 0 or n_p == 0:
            b_p = 0
        else:
            mat_up = _dense_boundary(complex, p + 1)
            chains_up = _indicator_rows(n_up)
            images = chains_up @ mat_up.T % 2
            image_count = int(np.unique(images, axis=0).shape[0])
            b_p = _exact_log2(image_count)
        records.append(DimensionHomology(
            dim=p, n_cells=n_p, cycle_rank=z_p, boundary_rank=b_p,
            betti=z_p - b_p, generators=()))
    return HomologyResult(tuple(records))
