"""Product cell complexes: known answers in dimensions 3 and 4.

The product K x L of two cell complexes has a cell e*f per pair of cells,
and mod 2 its boundary is (boundary e) x f + e x (boundary f). Over a
field the Kuenneth formula gives its Betti numbers from the factors':
b_n(K x L) = sum over i of b_i(K) b_(n-i)(L) (Hatcher, Algebraic
Topology, 3.B). These are the only known-answer complexes whose top
boundary map reaches dimension 3 or 4.
"""

import itertools
import random
from pathlib import Path

import pytest

import support
from descell import boundary_of, homology, oracle_homology
from descell.formats import emit_complex, parse_complex
from descell.homology import MAX_ORACLE_CELLS

DATA = Path(__file__).parent / "data"

FACTORS = {
    "point": support.point,
    "circle": support.circle,
    "sphere": support.sphere,
    "rp2": support.rp2,
    "torus": support.torus,
    "wedge": support.wedge_of_circles,
    "grid4": lambda: support.grid_surface(4),
    "klein4": lambda: support.grid_surface(4, flip=True),
}
SMALL = ("point", "circle", "sphere", "rp2", "torus", "wedge")
PAIRS = [*itertools.combinations_with_replacement(SMALL, 2),
         *((big, small) for big in ("grid4", "klein4") for small in SMALL[1:]),
         ("grid4", "klein4")]


def kuenneth(bk, bl):
    """The Betti numbers of K x L over a field, from those of K and L."""
    out = [0] * (len(bk) + len(bl) - 1)
    for i, a in enumerate(bk):
        for j, b in enumerate(bl):
            out[i + j] += a * b
    return tuple(out)


def check_product(k, l):
    """Every property a product must have; returns its Betti numbers."""
    prod = support.product(k, l)
    assert len(prod) == len(k) * len(l)
    assert prod.validate() == []
    result = homology(prod)
    betti = result.betti_vector()
    assert betti == kuenneth(homology(k).betti_vector(), homology(l).betti_vector())
    for record in result.records:
        for gen in record.generators:
            assert not boundary_of(prod, gen)
    sizes = [len(prod.cells_of_dim(p)) for p in range(prod.max_dim + 1)]
    if max(sizes) <= min(12, MAX_ORACLE_CELLS):
        assert oracle_homology(prod, max_cells=len(prod)).ranks() == result.ranks()
    back, diags = parse_complex(emit_complex(prod))
    assert not diags and back == prod
    return betti


@pytest.mark.parametrize("left,right", PAIRS, ids=lambda name: name)
def test_products_of_known_complexes(left, right):
    check_product(FACTORS[left](), FACTORS[right]())


def test_products_of_random_cw_complexes():
    rng = random.Random(31)
    tops = set()
    for _ in range(40):
        k = support.random_cw_complex(rng, max_cells=8)
        l = support.random_cw_complex(rng, max_cells=8)
        check_product(k, l)
        tops.add(k.max_dim + l.max_dim)
    assert max(tops) >= 4, tops


def test_named_products():
    assert check_product(support.rp2(), support.rp2()) == (1, 2, 3, 2, 1)
    assert check_product(support.torus(), support.circle()) == (1, 3, 3, 1)
    # The triangulated torus times a circle has a top map with no zero column.
    assert all(support.product(support.grid_surface(4), support.circle()).boundary_columns(3))


def test_torus_x_circle_data_file_is_the_product():
    text = emit_complex(support.product(support.torus(), support.circle()))
    assert (DATA / "torus_x_circle.cw").read_text() == text
