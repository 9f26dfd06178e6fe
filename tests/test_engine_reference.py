"""Differential tests: the bitset engine against the dense reference.

``dense_reference`` is the earlier dense elimination engine. Both must
print byte-identical homology, generators included, since the kernel
basis is unique once the free columns are fixed.
"""

import importlib
import random

import numpy as np
import pytest

import dense_reference
import support
from descell import cycle_basis, homology, rank_mod2

engine = importlib.import_module("descell.homology")


def _text(result):
    return result.to_text(include_generators=True)


def test_random_corpus_matches_reference():
    rng = random.Random(2011)
    for i in range(240):
        k = support.random_cw_complex(rng, max_cells=12 if i % 2 else 40)
        assert _text(homology(k)) == _text(dense_reference.homology(k))
        for p in range(k.max_dim + 2):
            assert cycle_basis(k, p) == dense_reference.cycle_basis(k, p)


@pytest.mark.parametrize("flip", [False, True], ids=["torus", "klein"])
def test_surfaces_match_reference(flip):
    k = support.grid_surface(13, flip)
    assert len(k) == 1014
    result = homology(k)
    assert result.betti_vector() == (1, 2, 1)
    assert _text(result) == _text(dense_reference.homology(k))


def test_rank_matches_reference():
    rng = np.random.default_rng(7)
    for _ in range(200):
        shape = tuple(rng.integers(0, 12, size=2))
        mat = rng.integers(0, 2, size=shape).astype(np.uint8)
        assert rank_mod2(mat) == dense_reference.rank_mod2(mat)


def test_homology_reduces_each_boundary_map_once(monkeypatch):
    calls = []
    reduce = engine._reduce

    def counted(columns, pivots=None):
        calls.append((list(columns), pivots is None))
        return reduce(columns, pivots)

    monkeypatch.setattr(engine, "_reduce", counted)
    rng = random.Random(5)
    cases = [support.grid_surface(5), support.grid_surface(5, flip=True),
             support.torus(), support.disk3()]
    cases += [support.random_cw_complex(rng, max_cells=30) for _ in range(20)]
    for k in cases:
        calls.clear()
        homology(k)
        boundary_maps = [cols for cols, fresh in calls if fresh]
        assert boundary_maps == [k.boundary_columns(p) for p in range(k.max_dim + 2)]
        # the other calls only reduce cycles against an image already found
        assert sum(not fresh for _, fresh in calls) == k.max_dim + 1
