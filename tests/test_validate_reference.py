"""Differential tests: ``CellComplex.validate`` against the earlier check.

``validate_reference`` is ``validate`` as it was when it sorted the
whole incidence table and computed every composite coefficient over the
integers. Both must give the same violations, in the same order and with
the same messages, with and without warnings.
"""

import random
from collections import Counter

import support
import validate_reference


def assert_same(k):
    report = []
    for warnings in (False, True):
        got = k.validate(warnings)
        assert got == validate_reference.validate(k, warnings)
        report += got
    return report


def test_random_tables_match_reference():
    rng = random.Random(2014)
    codes = Counter()
    degrees = Counter()
    for _ in range(1200):
        k = support.random_incidence_complex(rng)
        degrees.update("zero" if d == 0 else "negative" if d < 0 else
                       "even" if d % 2 == 0 else "odd" for d in k.incidence.values())
        codes.update(v.code for v in assert_same(k))
    assert min(codes[c] for c in ("dangling-face", "dimension-mismatch",
                                  "composite-odd", "composite-nonzero")) > 100
    assert not degrees["zero"] and min(degrees.values()) > 1000


def test_valid_complexes_match_reference():
    rng = random.Random(2011)
    for i in range(300):
        k = (support.random_cw_complex(rng, max_cells=30) if i % 2
             else support.random_simplicial_complex(rng, max_vertices=7))
        assert_same(k)
        assert k.validate() == []
    k = support.grid_surface(6, flip=True)
    assert_same(k)
    assert k.validate() == []
