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


MAX_PS = (None, 0, 1, 3)


def _text(result):
    return result.to_text(include_generators=True)


def test_random_corpus_matches_reference():
    rng = random.Random(2011)
    for i in range(240):
        k = support.random_cw_complex(rng, max_cells=12 if i % 2 else 40)
        assert _text(homology(k)) == _text(dense_reference.homology(k))
        for p in range(k.max_dim + 2):
            assert cycle_basis(k, p) == dense_reference.cycle_basis(k, p)


@pytest.mark.parametrize("max_p", MAX_PS)
def test_truncated_homology_matches_reference(max_p):
    # Clearing starts from the map above max_p, so each cut-off gives
    # the reduction different columns to skip.
    rng = random.Random(1011)
    for i in range(150):
        k = (support.random_cw_complex(rng, max_cells=40) if i % 2
             else support.random_simplicial_complex(rng, max_vertices=9))
        assert _text(homology(k, max_p)) == _text(dense_reference.homology(k, max_p))


@pytest.mark.parametrize("flip", [False, True], ids=["torus", "klein"])
def test_surfaces_match_reference(flip):
    k = support.grid_surface(13, flip)
    assert len(k) == 1014
    result = homology(k)
    assert result.betti_vector() == (1, 2, 1)
    assert _text(result) == _text(dense_reference.homology(k))
    for max_p in (0, 1):
        assert _text(homology(k, max_p)) == _text(dense_reference.homology(k, max_p))


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
        columns = list(columns)
        calls.append((columns, pivots))
        return reduce(columns, pivots)

    monkeypatch.setattr(engine, "_reduce", counted)
    rng = random.Random(5)
    cases = [support.grid_surface(5), support.grid_surface(5, flip=True),
             support.torus(), support.disk3()]
    cases += [support.random_cw_complex(rng, max_cells=30) for _ in range(20)]
    cleared = 0
    for k in cases:
        for max_p in MAX_PS:
            calls.clear()
            homology(k, max_p)
            top = k.max_dim if max_p is None else max_p
            # One reduction per map, d_(top+1) down to d_0, and no second
            # pass that reduces cycles against an image.
            assert [pivots for _, pivots in calls] == [None] * (top + 2)
            image = {}
            for (columns, _), p in zip(calls, range(top + 1, -1, -1)):
                full = k.boundary_columns(p)
                # The map's columns, but those at the pivots of the map
                # above are cleared.
                assert columns == [0 if j in image else col for j, col in enumerate(full)]
                cleared += sum(col != 0 for j, col in enumerate(full) if j in image)
                image = reduce(columns)[0]
    assert cleared > 100
