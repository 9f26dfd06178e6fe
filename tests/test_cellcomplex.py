import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import support
from descell import (
    CellComplex,
    Chain,
    boundary_of,
    build_scenario,
    cycle_basis,
    from_simplices,
    homology,
    is_boundary,
    signature,
)
from descell.errors import (
    DimensionMismatchError,
    DuplicateIdError,
    MissingFaceError,
)
from descell.formats import emit_complex, parse_complex


def test_add_vertex():
    k = CellComplex().add_cell("v0", 0)
    assert len(k) == 1
    assert k.dim_of("v0") == 0
    assert k.max_dim == 0


def test_add_interval():
    k = CellComplex().add_cell("v0", 0).add_cell("v1", 0)
    k = k.add_cell("e", 1, [("v0", 1), ("v1", 1)])
    assert dict(k.faces("e")) == {"v0": 1, "v1": 1}
    assert k.cofaces("v0") == ("e",)


def test_add_circle_loop_degree_zero():
    # attaching map hits the vertex twice with net degree 1 - 1 = 0
    k = CellComplex().add_cell("v", 0).add_cell("a", 1, [("v", 0)])
    assert dict(k.faces("a")) == {}
    assert k == support.circle()
    assert k != "k" and not k == "k"


def test_add_cell_is_functional():
    k0 = CellComplex().add_cell("v", 0)
    k1 = k0.add_cell("w", 0)
    assert "w" not in k0
    assert "w" in k1


def test_add_cell_accumulates_repeated_faces():
    k = CellComplex().add_cell("v", 0).add_cell("w", 0)
    k = k.add_cell("e", 1, [("v", 1), ("v", -1), ("w", 1)])
    assert dict(k.faces("e")) == {"w": 1}


def test_add_cell_duplicate_id(circle):
    with pytest.raises(DuplicateIdError):
        circle.add_cell("v", 0)


def test_add_cell_missing_face():
    with pytest.raises(MissingFaceError):
        CellComplex().add_cell("e", 1, [("v", 1)])


@pytest.mark.parametrize("build,message", [
    (lambda: CellComplex({"v": 0, "w": -1}, {}), "cell 'w' has negative dimension -1"),
    (lambda: CellComplex().add_cell("v", -1), "dimension must be non-negative, got -1"),
    (lambda: support.interval().boundary_columns(-1), "dimension must be non-negative, got -1"),
    (lambda: from_simplices([("a", "b", "a")]), r"simplex \('a', 'a', 'b'\) repeats a vertex"),
], ids=["constructor-dim", "add-cell-dim", "boundary-columns", "repeated-vertex"])
def test_negative_dimensions_and_repeated_vertices_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_add_cell_dimension_mismatch():
    k = CellComplex().add_cell("v", 0)
    with pytest.raises(DimensionMismatchError):
        k.add_cell("f", 2, [("v", 1)])


# -- builders -------------------------------------------------------------


def noisy(rng, entries, below):
    """A cell's boundary as (face, degree) pairs: ``entries`` plus zero
    degrees and repeated faces whose degrees cancel, shuffled."""
    pairs = list(entries)
    for _ in range(rng.randint(0, 3) if below else 0):
        face, deg = rng.choice(below), rng.randint(1, 3)
        pairs += rng.choice(([(face, 0)], [(face, deg), (face, -deg)]))
    rng.shuffle(pairs)
    return pairs


def random_simplicial_table(rng):
    """Random simplices, and their closure as cells in (dimension, id)
    order with each cell's noisy boundary."""
    verts = [f"x{i}" for i in range(rng.randint(1, 5))]
    simplices = [rng.sample(verts, rng.randint(1, min(4, len(verts))))
                 for _ in range(rng.randint(1, 4))]
    closure = {tuple(sorted(face)) for s in simplices
               for r in range(1, len(s) + 1) for face in itertools.combinations(s, r)}
    cells = {"-".join(s): len(s) - 1 for s in sorted(closure, key=lambda s: (len(s), s))}
    boundaries = {}
    for s in closure:
        below = [c for c, d in cells.items() if d == len(s) - 2]
        faces = ["-".join(f) for f in itertools.combinations(s, len(s) - 1)] if len(s) > 1 else []
        boundaries["-".join(s)] = noisy(rng, [(f, 1) for f in faces], below)
    return simplices, cells, boundaries


def random_cw_table(rng):
    """Cells in dimension order with noisy boundaries of degrees -2 to 2,
    often with odd or even nonzero composites, and one cell whose whole
    boundary cancels."""
    cells, boundaries = {}, {}
    for d in range(rng.randint(1, 4)):
        for i in range(rng.randint(1, 4)):
            below = [c for c, dc in cells.items() if dc == d - 1]
            entries = [(rng.choice(below), rng.randint(-2, 2))
                       for _ in range(rng.randint(0, 3) if below else 0)]
            cells[f"c{d}x{i}"] = d
            boundaries[f"c{d}x{i}"] = noisy(rng, entries, below)
    d = rng.randint(1, max(cells.values()) + 1)
    face = rng.choice([c for c, dc in cells.items() if dc == d - 1])
    cells["zero"] = d
    boundaries["zero"] = [(face, 1), (face, 2), (face, -3)]
    return cells, boundaries


def builds(cells, boundaries):
    """The complex of a table through each builder that can take it."""
    incidence = {}
    for cid, pairs in boundaries.items():
        for fid, deg in pairs:
            incidence[(cid, fid)] = incidence.get((cid, fid), 0) + deg
    direct = CellComplex(cells, incidence)
    chained = CellComplex()
    for cid, dim in cells.items():
        parent, before = chained, {c: dict(chained.faces(c)) for c in chained.cells}
        chained = parent.add_cell(cid, dim, boundaries[cid])
        assert "_incidence" not in vars(parent)
        assert {c: dict(parent.faces(c)) for c in parent.cells} == before
    parsed, diags = parse_complex(emit_complex(direct))
    assert not diags
    return [direct, chained, chained.skeleton(max(cells.values())).complex, parsed]


def assert_same_complex(built):
    first = built[0]
    for k in built[1:]:
        assert k == first
        assert k.max_dim == first.max_dim
        assert dict(k.incidence) == dict(first.incidence)
        for p in range(first.max_dim + 2):
            assert k.cells_of_dim(p) == first.cells_of_dim(p)
            assert k.boundary_columns(p) == first.boundary_columns(p)
        for cid in first.cells:
            assert dict(k.faces(cid)) == dict(first.faces(cid))
            assert k.cofaces(cid) == first.cofaces(cid)
        assert k.validate(include_warnings=True) == first.validate(include_warnings=True)


def test_every_builder_gives_the_same_complex():
    rng = random.Random(2024)
    composite_errors = 0
    for _ in range(150):
        simplices, cells, boundaries = random_simplicial_table(rng)
        assert_same_complex([from_simplices(simplices), *builds(cells, boundaries)])
        cells, boundaries = random_cw_table(rng)
        built = builds(cells, boundaries)
        assert_same_complex(built)
        assert not built[0].faces("zero") and all(c != "zero" for c, _ in built[0].incidence)
        composite_errors += not built[0].is_valid()
    assert composite_errors > 10, composite_errors


# -- validation -------------------------------------------------------


def test_validate_torus(torus):
    assert torus.validate() == []
    assert torus.is_valid()


def test_validate_empty():
    assert CellComplex().validate() == []


def test_validate_odd_composite():
    # a 2-cell glued once to a single edge with two distinct endpoints
    k = CellComplex(
        {"v0": 0, "v1": 0, "a": 1, "f": 2},
        {("a", "v0"): 1, ("a", "v1"): 1, ("f", "a"): 1})
    violations = k.validate()
    pairs = {v.cells for v in violations}
    assert pairs == {("f", "v0"), ("f", "v1")}
    assert all(v.code == "composite-odd" for v in violations)
    assert not k.is_valid()


def test_validate_dangling_face():
    k = CellComplex({"a": 1}, {("a", "ghost"): 1})
    violations = k.validate()
    assert any(v.code == "dangling-face" for v in violations)


def test_validate_dimension_mismatch():
    k = CellComplex({"v": 0, "f": 2}, {("f", "v"): 1})
    violations = k.validate()
    assert [v.code for v in violations] == ["dimension-mismatch"]


def test_validate_integer_warning(disk3):
    # simplicial degrees are all 1, so composites are 2 over the
    # integers: even, hence a warning and never an error
    assert disk3.validate() == []
    warned = disk3.validate(include_warnings=True)
    assert warned
    assert all(v.severity == "warning" and v.code == "composite-nonzero"
               for v in warned)


def test_simplicial_complexes_always_valid():
    rng = random.Random(7)
    for _ in range(30):
        assert support.random_simplicial_complex(rng).validate() == []


# -- skeletons ---------------------------------------------------------


def test_skeleton_of_torus_is_wedge(torus):
    sk = torus.skeleton(1)
    assert sk.level == 1
    assert sk.parent is torus
    # one vertex, two loops: a wedge of two circles
    assert sk.complex == CellComplex({"v": 0, "a": 1, "b": 1})


def test_skeleton_zero(disk3):
    sk = disk3.skeleton(0)
    assert set(sk.complex.cells) == {"A", "B", "C", "D", "E"}
    assert not sk.complex.incidence


def test_skeleton_at_max_dim_is_identity(disk3):
    assert disk3.skeleton(disk3.max_dim).complex == disk3
    assert disk3.skeleton(99).complex == disk3


def test_skeleton_monotone():
    rng = random.Random(11)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        for n in range(0, k.max_dim + 1):
            small = set(k.skeleton(n).complex.cells)
            large = set(k.skeleton(n + 1).complex.cells)
            assert small <= large


def test_skeleton_negative_level(circle):
    with pytest.raises(ValueError):
        circle.skeleton(-1)


# -- boundary matrices --------------------------------------------------


def test_boundary_matrix_interval(interval):
    mat = interval.boundary_matrix(1)
    assert mat.tolist() == [[1], [1]]


def test_boundary_matrix_circle(circle):
    assert circle.boundary_matrix(1).tolist() == [[0]]


def test_boundary_matrix_torus_top(torus):
    # both edges appear twice in the attaching word: zero column mod 2
    assert torus.boundary_matrix(2).tolist() == [[0], [0]]


def test_boundary_matrix_empty_dimension(circle):
    assert circle.boundary_matrix(2).shape == (1, 0)


def test_boundary_matrix_requires_positive_p(circle):
    with pytest.raises(ValueError):
        circle.boundary_matrix(0)


def test_boundary_matrices_compose_to_zero():
    rng = random.Random(23)
    for _ in range(25):
        k = support.random_cw_complex(rng)
        assert k.is_valid()
        for p in range(1, k.max_dim + 1):
            prod = k.boundary_matrix(p) @ k.boundary_matrix(p + 1) % 2
            assert not prod.any()


def test_boundary_columns_are_built_once():
    k = support.grid_surface(5)
    assert k.boundary_columns(2) is k.boundary_columns(2)
    assert isinstance(k.boundary_columns(1), tuple)
    assert k.boundary_columns(0) == (0,) * 25 and k.boundary_columns(3) == ()


def test_homology_builds_no_face_maps():
    # The per-cell faces are the one incidence store; the tuple-keyed
    # incidence view and the coface map are built on first use, and
    # validation and homology read neither.
    k, diags = parse_complex(emit_complex(support.grid_surface(5)))
    assert not diags
    homology(k, 3)
    assert "_incidence" not in vars(k) and "_cofaces" not in vars(k)
    assert boundary_of(k, Chain(1, {"v0x0-v0x1"})) == Chain(0, {"v0x0", "v0x1"})
    assert "_incidence" not in vars(k) and "_cofaces" not in vars(k)
    assert k.cofaces("v0x0-v0x1") == ("v0x0-v0x1-v1x1", "v0x0-v0x1-v4x0")
    assert "_incidence" not in vars(k) and "_cofaces" in vars(k)
    assert k.incidence[("v0x0-v0x1", "v0x0")] == 1
    assert "_incidence" in vars(k)


def test_homology_layer_reads_only_the_compiled_columns(monkeypatch):
    # The chain operations, the reduction and a signature at the top
    # dimension read boundary_columns, never a cell's faces. A file whose
    # every degree is 1 is compiled from its face rows, so none of its
    # per-cell face dicts is ever built.
    k, diags = parse_complex(emit_complex(support.grid_surface(5)))
    assert not diags

    def no_faces(self, cell_id):
        raise AssertionError(f"faces({cell_id!r}) read")

    monkeypatch.setattr(CellComplex, "faces", no_faces)
    face = "v0x0-v0x1-v1x1"
    edges = boundary_of(k, Chain(2, {face}))
    assert edges.support == {"v0x0-v0x1", "v0x1-v1x1", "v0x0-v1x1"}
    assert not boundary_of(k, edges)
    assert is_boundary(k, edges)
    assert not is_boundary(k, Chain(1, {"v0x0-v0x1"}))
    assert len(cycle_basis(k, 1)) == 75 - 25 + 1
    assert homology(k).betti_vector() == (1, 2, 1)
    rng = random.Random(5)
    tables = [[(cid, (rng.choice((0.0, 0.5, 1.0)),)) for cid in k.cells] for _ in range(2)]
    assert len(signature(build_scenario(k, enumerate(tables)), delta=0.25).table) == 2 * 3 * 3
    assert "_faces" not in vars(k)


def test_boundary_matrix_ordering_is_sorted(disk3):
    mat = disk3.boundary_matrix(2)
    cols = disk3.cells_of_dim(2)
    assert cols == ("A-B-C", "B-C-E", "C-D-E")
    rows = disk3.cells_of_dim(1)
    assert rows == tuple(sorted(rows))
    assert mat.shape == (7, 3)
    assert isinstance(mat, np.ndarray)


# -- misc ---------------------------------------------------------------


def test_zero_degrees_are_normalized():
    k = CellComplex({"v": 0, "a": 1}, {("a", "v"): 0})
    assert k == CellComplex({"v": 0, "a": 1})


def test_euler_characteristic(torus, sphere, disk3):
    assert torus.euler_characteristic() == 0
    assert sphere.euler_characteristic() == 2
    assert disk3.euler_characteristic() == 1


def test_from_simplices_closes_faces():
    k = from_simplices([("x", "y", "z")])
    assert len(k) == 7
    assert k.dim_of("x-y-z") == 2
    assert set(k.faces("x-y-z")) == {"x-y", "x-z", "y-z"}


SEPARATOR_LABELS = """
import pytest
from descell import from_simplices
for simplices, label in [([("a", "b"), ("a-b",)], "a-b"), ([("a-b",), ("a", "b")], "a-b"),
                         ([(-1, 0)], "-1"), ([("x", "y", "z-")], "z-")]:
    with pytest.raises(ValueError, match=repr(label)):
        from_simplices(simplices)
print("ok")
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_from_simplices_rejects_the_id_separator_in_a_label(hash_seed):
    # The vertex "a-b" and the edge of a and b would share the id "a-b",
    # and which dimension won depended on the string hash seed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", SEPARATOR_LABELS], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
