"""Property tests: ``signature`` against ``signature_reference`` on
random scenarios seeded by ``hypothesis``, over random CW and simplicial
complexes, in both modes, at every removal dimension, and for balls of
radius 0 to infinity."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import support  # noqa: E402
from test_signature_masks import random_scenario  # noqa: E402
from test_signature_reference import assert_same  # noqa: E402


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.sampled_from(("remove", "retain")),
       st.sampled_from((0.0, 0.25, 0.6, float("inf"))),
       st.sampled_from((None, 0, 1, 3)))
def test_signature_matches_reference(seed, removal_dim, mode, delta, max_p):
    rng = random.Random(seed)
    k = (support.random_cw_complex(rng, max_cells=20) if seed % 2
         else support.random_simplicial_complex(rng, max_vertices=7))
    assert_same(random_scenario(rng, k), delta, mode, max_p, removal_dim)
