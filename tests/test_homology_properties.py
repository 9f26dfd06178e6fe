"""Property tests: the reduction engine against the enumeration oracle
and the Euler characteristic, and the oracle against the dense
row-echelon reference in ``tests/dense_reference.py``, on random
complexes of at most 14 cells.

The complexes come from the ``tests/support.py`` builders, seeded by
``hypothesis``: random CW complexes (loops, collapsed boundaries, even
degrees) and random simplicial complexes.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import dense_reference  # noqa: E402
import support  # noqa: E402
from descell import homology, oracle_homology  # noqa: E402

MAX_CELLS = 14

complexes = st.builds(
    lambda build, seed: build(random.Random(seed)),
    st.sampled_from([lambda rng: support.random_cw_complex(rng, max_cells=MAX_CELLS),
                     lambda rng: support.random_simplicial_complex(rng, max_vertices=6)]),
    st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(complexes)
def test_engine_ranks_match_oracle(k):
    assume(len(k) <= MAX_CELLS)
    assert homology(k).ranks() == oracle_homology(k, max_cells=MAX_CELLS).ranks()


@settings(max_examples=200, deadline=None)
@given(complexes)
def test_oracle_ranks_match_dense_reference(k):
    assume(len(k) <= MAX_CELLS)
    want = dense_reference.homology(k).ranks()
    assert oracle_homology(k, max_cells=MAX_CELLS).ranks() == want


@settings(max_examples=200, deadline=None)
@given(complexes)
def test_euler_characteristic_is_alternating_betti_sum(k):
    assume(len(k) <= MAX_CELLS)
    betti = homology(k).betti_vector()
    assert k.euler_characteristic() == sum((-1) ** p * b for p, b in enumerate(betti))
