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
from descell import Chain, boundary_of, cycle_basis, homology, is_boundary, rank_mod2

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
        mat = rng.integers(-3, 4, size=shape)
        want = dense_reference.rank_mod2((mat % 2).astype(np.uint8))
        assert rank_mod2(mat) == rank_mod2(mat.tolist()) == want


def test_homology_reduces_each_boundary_map_once(monkeypatch):
    calls = []
    reduce, pivots = engine._reduce, engine._pivots

    def counted(pairs):
        pairs = list(pairs)
        calls.append(("_reduce", pairs))
        return reduce(pairs)

    def counted_pivots(columns, *args, **kwargs):
        columns = list(columns)
        calls.append(("_pivots", columns))
        return pivots(columns, *args, **kwargs)

    monkeypatch.setattr(engine, "_reduce", counted)
    monkeypatch.setattr(engine, "_pivots", counted_pivots)
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
            # pass that reduces cycles against an image. Only the pivots of
            # d_(top+1) are read, so it records no kernel combinations.
            assert [name for name, _ in calls] == ["_pivots"] + ["_reduce"] * (top + 1)
            image = {}
            for (name, handed), p in zip(calls, range(top + 1, -1, -1)):
                full = k.boundary_columns(p)
                # The map's columns with their indices, but those at the
                # pivots of the map above are cleared: not handed over at
                # all. _pivots takes the columns alone.
                kept = [(j, col) for j, col in enumerate(full) if j not in image]
                assert handed == (kept if name == "_reduce" else [col for _, col in kept])
                cleared += sum(col != 0 for j, col in enumerate(full) if j in image)
                image = pivots(col for _, col in kept)
    assert cleared > 100


def reference_is_boundary(k, chain):
    """Whether adding the chain as a column leaves the dense rank of
    d_(p+1) unchanged."""
    d = dense_reference.dense_boundary(k, chain.dim + 1)
    target = np.array([[cid in chain.support] for cid in k.cells_of_dim(chain.dim)],
                      dtype=np.uint8).reshape(d.shape[0], 1)
    return dense_reference.rank_mod2(np.hstack([d, target])) == dense_reference.rank_mod2(d)


def test_is_boundary_matches_reference_in_one_pass(monkeypatch):
    """Boundaries of random (p+1)-chains read as boundaries, and random
    p-chains agree with the dense reference. Each call reduces the
    columns of d_(p+1) once, then the target against their pivots."""
    calls = []
    pivots = engine._pivots
    monkeypatch.setattr(engine, "_pivots",
                        lambda columns, *args: calls.append(columns) or pivots(columns, *args))
    rng = random.Random(31)
    cases = [k for k in (support.random_cw_complex(rng, max_cells=30) for _ in range(80))
             if k.is_valid()]
    cases += [support.grid_surface(4, flip) for flip in (False, True)]
    verdicts = set()
    for k in cases:
        for p in range(k.max_dim + 1):
            for _ in range(4):
                chain = support.random_chain(rng, k, p)
                upper = support.random_chain(rng, k, p + 1) if p < k.max_dim else Chain(p + 1)
                border = boundary_of(k, upper)
                for c, want in ((chain, reference_is_boundary(k, chain)), (border, True)):
                    calls.clear()
                    assert is_boundary(k, c) == want
                    verdicts.add(want)
                    if c:
                        assert calls[0] is k.boundary_columns(p + 1)
                        assert len(calls) == 2 and len(calls[1]) == 1
    assert verdicts == {False, True} and len(cases) > 60
