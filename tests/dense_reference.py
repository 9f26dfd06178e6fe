"""The dense GF(2) homology engine, kept as a differential reference.

This is the elimination the library used before it moved to a single
bitset column reduction: every boundary matrix is a dense uint8 array,
reduced to row echelon form once for its kernel and once more for its
rank, and generators are picked by inserting the image columns and then
the kernel vectors into an incremental span. It is deliberately slow and
shares nothing with the engine beyond the result types, so its output
can be compared byte for byte with ``descell.homology``.
"""

import numpy as np

from descell import Chain, DimensionHomology, HomologyResult
from descell.errors import InvalidComplexError


def dense_boundary(complex, p):
    """Dense mod-2 boundary matrix, straight off the incidence table."""
    rows = complex.cells_of_dim(p - 1)
    cols = complex.cells_of_dim(p)
    mat = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    pos = {cid: i for i, cid in enumerate(rows)}
    for j, cid in enumerate(cols):
        for fid, deg in complex.faces(cid).items():
            if deg % 2 and fid in pos:
                mat[pos[fid], j] = 1
    return mat


def rref_mod2(mat):
    """Reduced row echelon form over GF(2); returns the reduced copy and
    the pivot column list."""
    red = mat.copy()
    m, n = red.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        hit = -1
        for r in range(row, m):
            if red[r, col]:
                hit = r
                break
        if hit < 0:
            continue
        if hit != row:
            red[[row, hit]] = red[[hit, row]]
        for r in range(m):
            if r != row and red[r, col]:
                red[r] ^= red[row]
        pivots.append(col)
        row += 1
    return red, pivots


def rank_mod2(mat):
    return len(rref_mod2(mat)[1])


def null_space_mod2(mat):
    """Kernel basis, one indicator per free column, ascending."""
    n = mat.shape[1]
    red, pivots = rref_mod2(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = np.zeros(n, dtype=np.uint8)
        vec[free] = 1
        for row, pcol in enumerate(pivots):
            if red[row, free]:
                vec[pcol] = 1
        basis.append(vec)
    return basis


class Gf2Span:
    """Incremental GF(2) span over bitmask-encoded vectors."""

    def __init__(self):
        self._rows = {}

    def add(self, vec):
        """Insert a vector; True if it enlarged the span."""
        while vec:
            lead = vec.bit_length() - 1
            other = self._rows.get(lead)
            if other is None:
                self._rows[lead] = vec
                return True
            vec ^= other
        return False


def to_bits(vec):
    out = 0
    for i, v in enumerate(vec):
        if v:
            out |= 1 << i
    return out


def cycle_basis(complex, p):
    cols = complex.cells_of_dim(p)
    if not cols:
        return []
    if p == 0:
        return [Chain(0, frozenset({cid})) for cid in cols]
    basis = null_space_mod2(dense_boundary(complex, p))
    return [Chain(p, frozenset(cols[i] for i in np.flatnonzero(vec))) for vec in basis]


def homology(complex, max_p=None):
    violations = complex.validate()
    if violations:
        raise InvalidComplexError(violations)
    if max_p is None:
        max_p = complex.max_dim
    records = []
    for p in range(0, max_p + 1):
        cols = complex.cells_of_dim(p)
        kernel = cycle_basis(complex, p)
        image_mat = dense_boundary(complex, p + 1)
        b_p = rank_mod2(image_mat)
        span = Gf2Span()
        for j in range(image_mat.shape[1]):
            span.add(to_bits(image_mat[:, j]))
        generators = []
        pos = {cid: i for i, cid in enumerate(cols)}
        for cyc in kernel:
            if span.add(sum(1 << pos[cid] for cid in cyc.support)):
                generators.append(cyc)
        records.append(DimensionHomology(
            dim=p, n_cells=len(cols), cycle_rank=len(kernel), boundary_rank=b_p,
            betti=len(kernel) - b_p, generators=tuple(generators)))
    return HomologyResult(tuple(records))
