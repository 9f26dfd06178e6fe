import random

import numpy as np
import pytest

import support
from descell import CellComplex, from_simplices, homology
from descell.errors import (
    DimensionMismatchError,
    DuplicateIdError,
    MissingFaceError,
)


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


def test_add_cell_dimension_mismatch():
    k = CellComplex().add_cell("v", 0)
    with pytest.raises(DimensionMismatchError):
        k.add_cell("f", 2, [("v", 1)])


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
    # The face and coface maps are built on first use; validation and
    # homology read only the compiled columns.
    k = support.grid_surface(5)
    homology(k, 3)
    assert "_faces" not in vars(k) and "_cofaces" not in vars(k)
    assert k.odd_faces("v0x0-v0x1") == ("v0x0", "v0x1")
    assert "_faces" in vars(k) and "_cofaces" not in vars(k)
    assert k.cofaces("v0x0-v0x1") == ("v0x0-v0x1-v1x1", "v0x0-v0x1-v4x0")


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
