"""Finite cell complexes with integer incidence degrees.

A complex is a finite set of abstract cells, each with a non-negative
dimension, plus each cell's faces: the (p-1)-cells its boundary meets,
with integer degrees. Attaching maps are not represented; the degrees
are the input data. Ids are ``str``, dimensions and degrees ``int``,
stored as given; all homology arithmetic downstream reduces degrees
mod 2, so a net-zero degree carries no information and is dropped at
construction time. A face with even multiplicity should therefore be
recorded with an even nonzero degree (e.g. 2) if the contact matters for
sub-complex derivation. The basis order (each dimension's ids, sorted)
and each id's row in it are set here only, by ``_basis`` and
``_row_index``. Every builder (the constructor, ``add_cell``,
``skeleton``, ``derive_subcomplex`` and ``from_simplices``) hands its
cells and per-cell faces to one private setup, which drops the net-zero
degrees. ``formats.parse_complex`` hands over instead each bnd line's
face rows, from which the per-cell faces are built only when read and
the mod-2 boundary columns are compiled with no id looked up. The
columns of any complex are compiled on first use.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property
from itertools import compress
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

    def __str__(self) -> str:
        return f"{self.code} [{' '.join(self.cells)}] {self.message}"


class CellComplex:
    """A finite cell complex, immutable after construction.

    ``cells`` maps ``str`` ids to ``int`` dimensions; ``incidence`` maps
    (cell, face) id pairs to ``int`` degrees. Construction converts
    nothing: it rejects a negative dimension, groups the degrees by cell
    and hands them to ``_setup``, which every builder but the parser
    (``_of_rows``) shares: it sorts each dimension's ids and keeps each
    cell's nonzero degrees as the per-cell face map that ``faces`` reads;
    no cell keeps an empty one. ``add_cell`` and ``from_simplices``
    convert their own arguments. All query methods are pure, so
    instances are safe to share across threads. ``add_cell`` returns a
    new complex rather than mutating. The compiled form (the mod-2
    boundary columns, the malformed entries and the cells with an odd
    composite boundary) is built on the first ``boundary_columns`` or
    ``validate`` call, a parsed complex's face maps on their first read,
    the ``incidence`` view on its first read and the coface map behind
    ``cofaces`` on its first use; each is built at most once.
    """

    def __init__(self,
                 cells: Mapping[CellId, int] | None = None,
                 incidence: Mapping[tuple[CellId, CellId], int] | None = None):
        cells = dict(cells or {})
        for cid, dim in cells.items():
            if dim < 0:
                raise ValueError(f"cell {cid!r} has negative dimension {dim}")
        faces: dict[CellId, dict[CellId, int]] = {}
        for (cid, fid), deg in (incidence or {}).items():
            faces.setdefault(cid, {})[fid] = deg
        self._setup(cells, faces)

    @classmethod
    def _of(cls, cells: dict[CellId, int],
            faces: dict[CellId, dict[CellId, int]]) -> "CellComplex":
        """A complex on tables its caller built and hands over, uncopied:
        ``cells`` and each cell's face degrees. ``_setup`` may replace or
        delete entries of ``faces``, never change a face dict, so the
        face dicts may be shared with another complex."""
        k = cls.__new__(cls)
        k._setup(cells, faces)
        return k

    @classmethod
    def _of_rows(cls, cells: dict[CellId, int], by_dim: dict[int, tuple[CellId, ...]],
                 rows: list[tuple[int, int, list[int], dict[CellId, int] | None]],
                 ) -> "CellComplex":
        """A complex on ``cells``, ``_basis(cells)`` and face rows, handed
        over uncopied. Each row holds a cell's dimension d, its position
        among the d-cells, the rows among the (d-1)-cells of its faces of
        odd degree, and either None, when each of its faces has degree 1,
        or its faces' degrees by id."""
        k = cls.__new__(cls)
        k._cells, k._by_dim, k._rows = cells, by_dim, rows
        return k

    def _setup(self, cells: dict[CellId, int], faces: dict[CellId, dict[CellId, int]]) -> None:
        """The setup of every builder but ``_of_rows``: it sorts each
        dimension's ids (the basis order) and drops the net-zero degrees."""
        self._cells: dict[CellId, int] = cells
        self._by_dim: dict[int, tuple[CellId, ...]] = _basis(cells)
        self._faces: dict[CellId, dict[CellId, int]] = _drop_zeros(faces)

    # The face rows of a complex built by ``_of_rows``, kept once its face
    # dicts are built, so a concurrent first read still finds them.
    _rows: list[tuple[int, int, list[int], dict[CellId, int] | None]] | None = None

    @cached_property
    def _faces(self) -> dict[CellId, dict[CellId, int]]:
        """A complex's face dicts from its rows, in their order, the
        degrees of a repeated face added up; ``_setup`` sets the others'."""
        by_dim, faces = self._by_dim, {}
        for d, pos, odd_rows, line_faces in self._rows:
            acc = faces.setdefault(by_dim[d][pos], {})
            if line_faces is None:
                below = by_dim[d - 1]
                for i in odd_rows:
                    acc[below[i]] = acc.get(below[i], 0) + 1
            else:
                for fid, deg in line_faces.items():
                    acc[fid] = acc.get(fid, 0) + deg
        return _drop_zeros(faces)

    @cached_property
    def _compiled(self) -> tuple[dict[int, tuple[int, ...]], list[tuple], list[CellId]]:
        """The compiled form: per dimension, the mod-2 boundary columns
        over each dimension's sorted ids; the incidence entries that are
        not (p, p-1) between declared cells, with both cells' dimensions
        (None if undeclared); and the cells whose composite boundary
        d(d(cell)) is odd somewhere, in basis order, dimension by
        dimension. ``validate`` reports the last two.

        A column has the bit of each row of an odd face, and a cell's
        composite mod 2 is the XOR of the lower columns at those rows.
        A parsed complex's rows are compiled in two passes, so that the
        lower columns are whole before any composite is read; a cell
        may have several rows, and a repeated face's bits cancel. Other
        complexes are compiled dimension by dimension in ascending order
        from their face dicts, each face looked up once among the ids one
        dimension down, a miss being malformed: making rows for them
        first costs more than their whole compile."""
        if self._rows is not None:
            return self._compiled_rows()
        cells, faces = self._cells, self._faces
        columns: dict[int, tuple[int, ...]] = {}
        malformed = []
        odd = []
        no_faces: dict[CellId, int] = {}
        for d in sorted(self._by_dim):
            row = _row_index(self._by_dim.get(d - 1, ()))
            lower = columns.get(d - 1, ())
            cols = []
            for cid in self._by_dim[d]:
                col = composite = 0
                for fid, deg in faces.get(cid, no_faces).items():
                    i = row.get(fid)
                    if i is None:
                        malformed.append((cid, fid, d, cells.get(fid)))
                    elif deg % 2:
                        col |= 1 << i
                        composite ^= lower[i]
                if composite:
                    odd.append(cid)
                cols.append(col)
            columns[d] = tuple(cols)
        for cid in faces.keys() - cells.keys():
            malformed.extend((cid, fid, None, cells.get(fid)) for fid in faces[cid])
        return columns, malformed, odd

    def _compiled_rows(self) -> tuple[dict[int, tuple[int, ...]], list[tuple], list[CellId]]:
        """``_compiled`` of a complex built by ``_of_rows``, which has no
        malformed entry."""
        by_dim, rows = self._by_dim, self._rows
        columns = {d: [0] * len(ids) for d, ids in by_dim.items()}
        for d, pos, odd_rows, _ in rows:
            col = 0
            for i in odd_rows:
                col ^= 1 << i
            columns[d][pos] ^= col
        composites = {d: [0] * len(ids) for d, ids in by_dim.items() if d > 1}
        for d, pos, odd_rows, _ in rows:
            if d > 1:
                lower, composite = columns[d - 1], 0
                for i in odd_rows:
                    composite ^= lower[i]
                composites[d][pos] ^= composite
        odd = [cid for d in sorted(composites) for cid in compress(by_dim[d], composites[d])]
        return {d: tuple(cols) for d, cols in columns.items()}, [], odd

    @cached_property
    def _incidence(self) -> dict[tuple[CellId, CellId], int]:
        return {(cid, fid): deg for cid, entries in self._faces.items()
                for fid, deg in entries.items()}

    @cached_property
    def _cofaces(self) -> dict[CellId, tuple[CellId, ...]]:
        cofaces: dict[CellId, set[CellId]] = {}
        for cid, entries in self._faces.items():
            for fid in entries:
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
        return max(self._by_dim, default=-1)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell_id: CellId) -> bool:
        return cell_id in self._cells

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellComplex):
            return NotImplemented
        return self._cells == other._cells and self._faces == other._faces

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
        """Every cell that records the given cell as a face, of any
        dimension, declared or not, in sorted id order."""
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
        return CellComplex._of(cells, {**self._faces, cell_id: acc})

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
        return CellComplex._of(cells, {c: {f: deg for f, deg in entries.items() if f in cells}
                                       for c, entries in self._faces.items() if c in cells})

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
        _, malformed, odd = self._compiled
        issues: list[Violation] = []
        for cid, fid, cd, fd in sorted(malformed):
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
        # The compile found the cells with an odd one, so without warnings
        # only those need the integer walk, for the message.
        if include_warnings:
            odd = [cid for p in sorted(self._by_dim) if p >= 2 for cid in self._by_dim[p]]
        for cid in odd:
            p = self._cells[cid]
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


def _basis(cells: Mapping[CellId, int]) -> dict[int, tuple[CellId, ...]]:
    """Each dimension's cell ids, sorted: the basis order of the chains,
    whose positions are the rows and columns of the boundary maps."""
    by_dim: dict[int, list[CellId]] = {}
    for cid, dim in cells.items():
        by_dim.setdefault(dim, []).append(cid)
    return {d: tuple(sorted(ids)) for d, ids in by_dim.items()}


def _drop_zeros(faces: dict[CellId, dict[CellId, int]]) -> dict[CellId, dict[CellId, int]]:
    """``faces`` without its zero degrees and then without the face dicts
    left empty: net-zero degrees are indistinguishable from absence mod 2.
    A face dict is replaced, never changed, so it may be shared with
    another complex; each is scanned only when one C-level pass over the
    degrees finds an empty face dict or a zero."""
    if not (all(faces.values()) and all(map(all, map(dict.values, faces.values())))):
        for cid in [c for c, entries in faces.items() if not entries or 0 in entries.values()]:
            entries = {fid: deg for fid, deg in faces[cid].items() if deg}
            if entries:
                faces[cid] = entries
            else:
                del faces[cid]
    return faces


def _row_index(ids: tuple[CellId, ...], suffix: str = "") -> dict[CellId, int]:
    """Each id's row, its position in ``ids`` (one dimension's basis
    order), keyed by the id with ``suffix`` appended."""
    return dict(zip([cid + suffix for cid in ids] if suffix else ids, range(len(ids))))


class Skeleton(Record):
    """An n-skeleton: the induced sub-complex of cells of dimension <= n."""

    __slots__ = ("parent", "level", "complex")


def from_simplices(simplices: Iterable[Iterable]) -> CellComplex:
    """Build a complex from abstract simplices, closing under faces.

    Every simplex is given as an iterable of vertex labels; all faces
    are generated automatically and every codimension-1 incidence gets
    degree 1. Cell ids join the sorted vertex labels with "-", so a label
    that contains "-" (``str(-1)`` among them) raises ValueError, as a
    simplex that repeats a vertex does.
    """
    from itertools import combinations

    simps: set[tuple[str, ...]] = set()
    for s in simplices:
        verts = tuple(sorted(str(v) for v in s))
        if len(set(verts)) != len(verts):
            raise ValueError(f"simplex {verts} repeats a vertex")
        for v in verts:
            if "-" in v:
                raise ValueError(f"vertex label {v!r} contains '-', which joins cell ids")
        for k in range(1, len(verts) + 1):
            simps.update(combinations(verts, k))

    cells = {"-".join(s): len(s) - 1 for s in simps}
    faces = {"-".join(s): {"-".join(s[:i] + s[i + 1:]): 1 for i in range(len(s))}
             for s in simps if len(s) > 1}
    return CellComplex._of(cells, faces)
