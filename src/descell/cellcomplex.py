"""Finite cell complexes with integer incidence degrees.

A complex is a finite set of abstract cells, each with a non-negative
dimension, plus an incidence table mapping (p-cell, (p-1)-cell) pairs to
integer degrees. Attaching maps are not represented; the degree table is
the input data. Ids are ``str``, dimensions and degrees ``int``, stored
as given; all homology arithmetic downstream reduces degrees mod 2, so
a net-zero degree carries no information and is dropped at construction
time. A face with even multiplicity should therefore be recorded with
an even nonzero degree (e.g. 2) if the contact matters for sub-complex
derivation. The mod-2 boundary columns are compiled on first use.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property
from types import MappingProxyType

from ._record import Record
from .errors import DimensionMismatchError, DuplicateIdError, MissingFaceError

CellId = str


class Violation(Record):
    """One structural defect found by ``CellComplex.validate``.

    Severity "error" marks a defect that invalidates the complex;
    "warning" marks an integer-level oddity that vanishes mod 2.
    """

    __slots__ = ("code", "severity", "cells", "message")

    def __init__(self, code: str, severity: str, cells: tuple[CellId, ...], message: str):
        super().__init__(code, severity, cells, message)

    def __str__(self) -> str:
        return f"{self.code} [{' '.join(self.cells)}] {self.message}"


class CellComplex:
    """A finite cell complex, immutable after construction.

    ``cells`` maps ``str`` ids to ``int`` dimensions; ``incidence`` maps
    (cell, face) id pairs to ``int`` degrees. Construction stores both as
    given, with no conversion: it rejects a negative dimension, drops zero
    degrees and sorts each dimension's ids. ``add_cell`` and
    ``from_simplices`` convert their own arguments. All query methods are
    pure, so instances are safe to share across threads. ``add_cell``
    returns a new complex rather than mutating. The compiled
    form (the mod-2 boundary columns and the malformed entries) is built
    on the first ``boundary_columns`` or ``validate`` call, and the face
    and coface maps behind ``faces``, ``cofaces`` and ``odd_faces`` on
    their first use; each is built at most once.
    """

    def __init__(self,
                 cells: Mapping[CellId, int] | None = None,
                 incidence: Mapping[tuple[CellId, CellId], int] | None = None):
        self._cells: dict[CellId, int] = dict(cells or {})
        by_dim: dict[int, list[CellId]] = {}
        for cid, dim in self._cells.items():
            if dim < 0:
                raise ValueError(f"cell {cid!r} has negative dimension {dim}")
            by_dim.setdefault(dim, []).append(cid)
        # Net-zero degrees are indistinguishable from absence mod 2: drop them.
        self._incidence: dict[tuple[CellId, CellId], int] = {
            pair: deg for pair, deg in (incidence or {}).items() if deg
        }
        self._by_dim: dict[int, tuple[CellId, ...]] = {
            d: tuple(sorted(ids)) for d, ids in by_dim.items()
        }

    @cached_property
    def _compiled(self) -> tuple[dict[int, tuple[int, ...]], list[tuple[CellId, CellId]]]:
        """The compiled form: per dimension, the mod-2 boundary columns
        over each dimension's sorted ids, and the incidence entries that
        are not (p, p-1) between declared cells, for ``validate`` to
        report."""
        index = {cid: i for ids in self._by_dim.values() for i, cid in enumerate(ids)}
        columns = {d: [0] * len(ids) for d, ids in self._by_dim.items()}
        cells = self._cells
        malformed = []
        for (cid, fid), deg in self._incidence.items():
            cd = cells.get(cid)
            fd = cells.get(fid)
            if cd is None or fd is None or cd != fd + 1:
                malformed.append((cid, fid))
            elif deg % 2:
                columns[cd][index[cid]] |= 1 << index[fid]
        return {d: tuple(cols) for d, cols in columns.items()}, malformed

    @cached_property
    def _faces(self) -> dict[CellId, dict[CellId, int]]:
        faces: dict[CellId, dict[CellId, int]] = {}
        for (cid, fid), deg in self._incidence.items():
            faces.setdefault(cid, {})[fid] = deg
        return faces

    @cached_property
    def _cofaces(self) -> dict[CellId, tuple[CellId, ...]]:
        cofaces: dict[CellId, set[CellId]] = {}
        for cid, fid in self._incidence:
            cofaces.setdefault(fid, set()).add(cid)
        return {k: tuple(sorted(v)) for k, v in cofaces.items()}

    # -- basic queries -------------------------------------------------

    @property
    def cells(self) -> Mapping[CellId, int]:
        return MappingProxyType(self._cells)

    @property
    def incidence(self) -> Mapping[tuple[CellId, CellId], int]:
        return MappingProxyType(self._incidence)

    @property
    def max_dim(self) -> int:
        """Largest cell dimension, or -1 for the empty complex."""
        return max(self._cells.values(), default=-1)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell_id: CellId) -> bool:
        return cell_id in self._cells

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellComplex):
            return NotImplemented
        return self._cells == other._cells and self._incidence == other._incidence

    def __repr__(self) -> str:
        counts = " ".join(
            f"{d}:{len(self._by_dim[d])}" for d in sorted(self._by_dim)
        )
        return f"<CellComplex {len(self._cells)} cells [{counts}]>"

    def dim_of(self, cell_id: CellId) -> int:
        return self._cells[cell_id]

    def cells_of_dim(self, p: int) -> tuple[CellId, ...]:
        """All p-cells in sorted id order (the canonical basis order)."""
        return self._by_dim.get(p, ())

    def faces(self, cell_id: CellId) -> Mapping[CellId, int]:
        """Recorded faces of a cell with their nonzero degrees."""
        return MappingProxyType(self._faces.get(cell_id, {}))

    def cofaces(self, cell_id: CellId) -> tuple[CellId, ...]:
        """Cells one dimension up whose boundary touches the given cell."""
        return self._cofaces.get(cell_id, ())

    # -- construction ----------------------------------------------------

    def add_cell(self, cell_id: CellId, dim: int,
                 boundary: Iterable[tuple[CellId, int]] = ()) -> "CellComplex":
        """Return a new complex with one extra cell attached.

        Args:
            cell_id: fresh id, unique within the complex.
            dim: dimension of the new cell.
            boundary: (face id, integer degree) pairs. Faces must already
                be present with dimension ``dim - 1``. Repeated faces
                accumulate by integer addition; net zero entries vanish.

        Raises:
            DuplicateIdError, MissingFaceError, DimensionMismatchError.
        """
        cell_id = str(cell_id)
        if cell_id in self._cells:
            raise DuplicateIdError(f"cell id {cell_id!r} already present")
        if dim < 0:
            raise ValueError(f"dimension must be non-negative, got {dim}")
        acc: dict[CellId, int] = {}
        for fid, deg in boundary:
            fid = str(fid)
            if fid not in self._cells:
                raise MissingFaceError(f"boundary of {cell_id!r} references missing cell {fid!r}")
            if self._cells[fid] != dim - 1:
                raise DimensionMismatchError(
                    f"face {fid!r} has dimension {self._cells[fid]}, expected {dim - 1}")
            acc[fid] = acc.get(fid, 0) + int(deg)
        cells = dict(self._cells)
        cells[cell_id] = int(dim)
        incidence = dict(self._incidence)
        for fid, deg in acc.items():
            if deg != 0:
                incidence[(cell_id, fid)] = deg
        return CellComplex(cells, incidence)

    # -- derived structure -----------------------------------------------

    def skeleton(self, n: int) -> "Skeleton":
        """The n-skeleton: every cell of dimension at most n.

        ``n`` past ``max_dim`` returns the whole complex.
        """
        if n < 0:
            raise ValueError(f"skeleton level must be non-negative, got {n}")
        cells = {cid: d for cid, d in self._cells.items() if d <= n}
        return Skeleton(parent=self, level=n, complex=self._induced(cells))

    def _induced(self, cells: dict[CellId, int]) -> "CellComplex":
        """The complex on ``cells``, a subset of this one's, with the
        incidence entries between them; every other entry is dropped."""
        return CellComplex(cells, {(c, f): deg for (c, f), deg in self._incidence.items()
                                   if c in cells and f in cells})

    def odd_faces(self, cell_id: CellId) -> tuple[CellId, ...]:
        """The faces of a cell with odd degree, in sorted id order: the
        support of the cell's mod-2 boundary."""
        return tuple(sorted(f for f, d in self._faces.get(cell_id, {}).items() if d % 2))

    def boundary_columns(self, p: int) -> tuple[int, ...]:
        """The mod-2 boundary map from p-cells to (p-1)-cells as bitsets.

        One int per sorted p-cell; bit i is set when the i-th sorted
        (p-1)-cell is an odd face. Faces of any other dimension are
        ignored. Every column is 0 for p = 0. The tuple is built once,
        on first use, and every call returns that same tuple.
        """
        if p < 0:
            raise ValueError(f"dimension must be non-negative, got {p}")
        return self._compiled[0].get(p, ())

    def boundary_matrix(self, p: int) -> "numpy.ndarray":
        """Mod-2 boundary matrix from p-cells to (p-1)-cells.

        Rows are indexed by the sorted (p-1)-cells, columns by the sorted
        p-cells; entry (i, j) is bit i of ``boundary_columns(p)[j]``.
        Dimensions with no cells give the corresponding empty shape.
        """
        import numpy as np

        if p < 1:
            raise ValueError(f"boundary matrix requires p >= 1, got {p}")
        rows = len(self.cells_of_dim(p - 1))
        cols = self.boundary_columns(p)
        width = (rows + 7) // 8
        packed = np.frombuffer(b"".join(c.to_bytes(width, "little") for c in cols),
                               dtype=np.uint8).reshape(len(cols), width)
        bits = np.unpackbits(packed, axis=1, count=rows, bitorder="little")
        return np.ascontiguousarray(bits.T)

    # -- validation --------------------------------------------------------

    def validate(self, include_warnings: bool = False) -> list[Violation]:
        """Check structural integrity; empty result means valid.

        Errors reported: incidence entries referencing undeclared cells,
        entries whose dimensions are not (p, p-1), and any pair
        (p-cell, (p-2)-cell) whose composite boundary coefficient is odd.
        With ``include_warnings`` the report also lists composite
        coefficients that are nonzero but even (harmless mod 2).
        """
        columns, malformed = self._compiled
        issues: list[Violation] = []
        for cid, fid in sorted(malformed):
            cd = self._cells.get(cid)
            fd = self._cells.get(fid)
            if cd is None:
                issues.append(Violation(
                    "dangling-face", "error", (cid, fid),
                    f"incidence references undeclared cell {cid!r}"))
            if fd is None:
                issues.append(Violation(
                    "dangling-face", "error", (cid, fid),
                    f"incidence references undeclared face {fid!r}"))
            if cd is not None and fd is not None and cd != fd + 1:
                issues.append(Violation(
                    "dimension-mismatch", "error", (cid, fid),
                    f"incidence relates dimensions ({cd}, {fd}), expected ({fd + 1}, {fd})"))

        # Composite boundary coefficients, restricted to well-formed entries.
        # A coefficient's parity is the bit of the XOR of the cell's face
        # columns, so without warnings only a cell with an odd one needs
        # the integer walk, for the message.
        for p in sorted(self._by_dim):
            if p < 2:
                continue
            lower = columns.get(p - 1, ())
            for cid, col in zip(self._by_dim[p], columns[p]):
                odd = 0
                while col:
                    low = col & -col
                    odd ^= lower[low.bit_length() - 1]
                    col ^= low
                if not (odd or include_warnings):
                    continue
                composite: dict[CellId, int] = {}
                for rid, d1 in self._faces.get(cid, {}).items():
                    if self._cells.get(rid) != p - 1:
                        continue
                    for tid, d2 in self._faces.get(rid, {}).items():
                        if self._cells.get(tid) != p - 2:
                            continue
                        composite[tid] = composite.get(tid, 0) + d1 * d2
                for tid in sorted(composite):
                    coeff = composite[tid]
                    if coeff % 2:
                        issues.append(Violation(
                            "composite-odd", "error", (cid, tid),
                            f"composite boundary coefficient {coeff} is odd"))
                    elif coeff != 0 and include_warnings:
                        issues.append(Violation(
                            "composite-nonzero", "warning", (cid, tid),
                            f"composite boundary coefficient {coeff} nonzero over the integers"))
        return issues

    def is_valid(self) -> bool:
        return not self.validate()

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(ids) for d, ids in self._by_dim.items())


class Skeleton(Record):
    """An n-skeleton: the induced sub-complex of cells of dimension <= n."""

    __slots__ = ("parent", "level", "complex")

    def __init__(self, parent: CellComplex, level: int, complex: CellComplex):
        super().__init__(parent, level, complex)


def from_simplices(simplices: Iterable[Iterable]) -> CellComplex:
    """Build a complex from abstract simplices, closing under faces.

    Every simplex is given as an iterable of vertex labels; all faces
    are generated automatically and every codimension-1 incidence gets
    degree 1. Cell ids join the sorted vertex labels with "-", so labels
    must not contain "-" themselves.
    """
    from itertools import combinations

    simps: set[tuple[str, ...]] = set()
    for s in simplices:
        verts = tuple(sorted(str(v) for v in s))
        if len(set(verts)) != len(verts):
            raise ValueError(f"simplex {verts} repeats a vertex")
        for k in range(1, len(verts) + 1):
            simps.update(combinations(verts, k))

    cells = {"-".join(s): len(s) - 1 for s in simps}
    incidence = {}
    for s in simps:
        if len(s) < 2:
            continue
        cid = "-".join(s)
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            incidence[(cid, "-".join(face))] = 1
    return CellComplex(cells, incidence)
