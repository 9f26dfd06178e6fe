import random

import numpy as np
import pytest

import support
from descell import (
    Chain,
    CellComplex,
    boundary_of,
    cycle_basis,
    homology,
    is_boundary,
    oracle_homology,
    rank_mod2,
)
from descell.errors import (
    DimensionMismatchError,
    ForeignCellError,
    InvalidComplexError,
    TooLargeError,
)
from descell.homology import MAX_ORACLE_CELLS


# -- chain arithmetic ----------------------------------------------------


def test_chain_add_symmetric_difference():
    c1 = Chain(1, {"e1", "e2"})
    c2 = Chain(1, {"e2", "e3"})
    assert (c1 + c2).support == {"e1", "e3"}


def test_chain_self_inverse():
    c = Chain(1, {"e1", "e2"})
    assert not (c + c)


def test_chain_identity():
    c = Chain(2, {"f"})
    assert c + Chain.empty(2) == c


def test_chain_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        Chain(1, {"e"}) + Chain(2, {"f"})


def test_chain_group_laws():
    rng = random.Random(3)
    for _ in range(25):
        k = support.random_cw_complex(rng)
        dims = [d for d in range(k.max_dim + 1) if k.cells_of_dim(d)]
        if not dims:
            continue
        d = rng.choice(dims)
        a = support.random_chain(rng, k, d)
        b = support.random_chain(rng, k, d)
        c = support.random_chain(rng, k, d)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + Chain.empty(d) == a
        assert not (a + a)


# -- boundary map ---------------------------------------------------------


def test_boundary_of_interval_edge(interval):
    out = boundary_of(interval, Chain(1, {"e"}))
    assert out == Chain(0, {"v0", "v1"})


def test_boundary_of_torus_face(torus):
    assert not boundary_of(torus, Chain(2, {"f"}))


def test_boundary_of_vertex_chain_is_empty(interval):
    out = boundary_of(interval, Chain(0, {"v0"}))
    assert not out


def test_boundary_of_checks_cells(interval):
    with pytest.raises(ForeignCellError):
        boundary_of(interval, Chain(1, {"nope"}))
    with pytest.raises(DimensionMismatchError):
        boundary_of(interval, Chain(1, {"v0"}))


def test_boundary_squared_is_zero():
    rng = random.Random(5)
    for _ in range(40):
        k = support.random_cw_complex(rng)
        for _ in range(10):
            c = support.random_chain(rng, k)
            assert not boundary_of(k, boundary_of(k, c))


# -- rank over GF(2) ------------------------------------------------------


def test_rank_identity():
    assert rank_mod2(np.eye(3, dtype=int)) == 3


def test_rank_zero():
    assert rank_mod2(np.zeros((4, 2), dtype=int)) == 0


def test_rank_equal_rows():
    assert rank_mod2([[1, 1], [1, 1]]) == 1


def test_rank_input_unmodified():
    mat = np.array([[1, 1], [1, 0]], dtype=np.uint8)
    before = mat.copy()
    rank_mod2(mat)
    assert (mat == before).all()


def test_rank_reduces_mod2():
    # degree 2 entries vanish
    assert rank_mod2([[2, 0], [0, 3]]) == 1


# -- cycles and boundaries -------------------------------------------------


def test_cycle_basis_circle(circle):
    assert cycle_basis(circle, 1) == [Chain(1, {"a"})]


def test_cycle_basis_interval(interval):
    assert cycle_basis(interval, 1) == []


def test_cycle_basis_dim0_singletons(disk3):
    basis = cycle_basis(disk3, 0)
    assert basis == [Chain(0, {v}) for v in ("A", "B", "C", "D", "E")]


def test_cycle_basis_spans_kernel():
    rng = random.Random(9)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        for p in range(0, k.max_dim + 1):
            basis = cycle_basis(k, p)
            for c in basis:
                assert not boundary_of(k, c)
            n_p = len(k.cells_of_dim(p))
            rank = rank_mod2(k.boundary_matrix(p)) if p >= 1 else 0
            assert len(basis) == n_p - rank


def test_is_boundary_interval(interval):
    assert is_boundary(interval, Chain(0, {"v0", "v1"}))
    assert not is_boundary(interval, Chain(0, {"v0"}))


def test_is_boundary_circle_loop(circle):
    assert not is_boundary(circle, Chain(1, {"a"}))


def test_is_boundary_empty_chain(circle):
    assert is_boundary(circle, Chain.empty(1))


# -- homology ---------------------------------------------------------------


@pytest.mark.parametrize("builder,expected", [
    (support.circle, (1, 1)),
    (support.interval, (1, 0)),
    (support.two_points, (2,)),
    (support.sphere, (1, 0, 1)),
    (support.torus, (1, 2, 1)),
    (support.disk3, (1, 0, 0)),
])
def test_betti_numbers(builder, expected):
    assert homology(builder()).betti_vector() == expected


def test_wedge_of_two_circles():
    assert homology(support.wedge_of_circles(2)).betti_vector() == (1, 2)


def test_homology_rejects_invalid():
    k = CellComplex(
        {"v0": 0, "v1": 0, "a": 1, "f": 2},
        {("a", "v0"): 1, ("a", "v1"): 1, ("f", "a"): 1})
    with pytest.raises(InvalidComplexError):
        homology(k)


def test_homology_max_p_restriction(torus):
    result = homology(torus, max_p=0)
    assert result.betti_vector() == (1,)


def test_homology_empty_complex():
    assert homology(CellComplex()).betti_vector() == ()


def test_generators_are_cycles_not_boundaries():
    rng = random.Random(13)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        result = homology(k)
        for rec in result.records:
            assert len(rec.generators) == rec.betti
            for g in rec.generators:
                assert not boundary_of(k, g)
                assert not is_boundary(k, g)


def test_rank_nullity():
    rng = random.Random(17)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        result = homology(k)
        for rec in result.records:
            rank = rank_mod2(k.boundary_matrix(rec.dim)) if rec.dim >= 1 else 0
            assert rec.cycle_rank + rank == rec.n_cells


def test_euler_consistency():
    rng = random.Random(19)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        betti = homology(k).betti_vector()
        alt = sum((-1) ** p * b for p, b in enumerate(betti))
        assert alt == k.euler_characteristic()


def test_image_chains_are_cycles():
    rng = random.Random(21)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        for p in range(1, k.max_dim + 1):
            for cid in k.cells_of_dim(p):
                image = boundary_of(k, Chain(p, {cid}))
                assert not boundary_of(k, image)


def test_to_text_torus(torus):
    text = homology(torus).to_text()
    assert "dim 1 cells 2 cycle_rank 2 boundary_rank 0 betti 2" in text
    assert text.endswith("betti 1 2 1\n")


# Surfaces of 10**3 to 10**4 cells and their known mod-2 Betti numbers.
LARGE_SURFACES = {
    "torus": (lambda: support.grid_surface(48), (1, 2, 1)),  # 13,824 cells
    "klein": (lambda: support.grid_surface(40, flip=True), (1, 2, 1)),  # 9,600 cells
    "rp2": (lambda: support.glued_surface("rp2", 36), (1, 1, 1)),  # 7,777 cells
    "sphere": (lambda: support.glued_surface("sphere", 24), (1, 0, 1)),  # 3,458 cells
}


@pytest.mark.parametrize("kind", LARGE_SURFACES)
def test_large_surfaces_known_answers(kind):
    build, known = LARGE_SURFACES[kind]
    k = build()
    assert len(k) > 1000
    assert k.validate() == []  # every composite coefficient even: dd = 0 mod 2
    betti = homology(k).betti_vector()
    assert betti == known
    assert k.euler_characteristic() == sum((-1) ** p * b for p, b in enumerate(betti))


# -- oracle ---------------------------------------------------------------


def test_oracle_interval(interval):
    assert oracle_homology(interval).betti_vector() == (1, 0)


def test_oracle_two_points():
    assert oracle_homology(support.two_points()).betti(0) == 2


def test_oracle_wedge():
    assert oracle_homology(support.wedge_of_circles(2)).betti_vector() == (1, 2)


def test_oracle_too_large():
    k = support.disk3()  # 15 cells
    with pytest.raises(TooLargeError):
        oracle_homology(k)
    assert oracle_homology(k, max_cells=15).betti_vector() == (1, 0, 0)


def test_oracle_enumeration_cap():
    # 21 loops on one vertex: 2**21 one-chains, past MAX_ORACLE_CELLS,
    # even when the caller lifts the cell-count bound.
    assert MAX_ORACLE_CELLS == 20
    k = support.wedge_of_circles(MAX_ORACLE_CELLS + 1)
    with pytest.raises(TooLargeError, match=r"2\*\*21 chains"):
        oracle_homology(k, max_cells=100)


def test_oracle_matches_engine():
    rng = random.Random(29)
    for _ in range(40):
        k = support.random_cw_complex(rng, max_cells=11)
        assert homology(k).ranks() == oracle_homology(k).ranks()
