"""Property tests: the descriptor, chart and scenario parsers never raise,
and the complex format round-trips.

Whatever text they get, ``parse_descriptors``, ``load_probe``,
``parse_charts`` and ``parse_scenario`` return an artifact or error
diagnostics, and the artifact is None exactly when there is an error. The texts mix arbitrary
strings with lines built from the formats' own words, real cell ids and
awkward numbers (``nan``, ``inf``, overflowing exponents), so most of
them get past the header and the directive checks.

The round trip ``parse_complex(emit_complex(k)) == k`` must also give
the same compiled boundary columns, on random CW and simplicial
complexes and on random tables with negative, even and odd degrees.
"""

import math
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import support  # noqa: E402
from descell import CellComplex  # noqa: E402
from descell.formats import (  # noqa: E402
    emit_complex,
    has_errors,
    load_probe,
    parse_charts,
    parse_complex,
    parse_descriptors,
    parse_scenario,
)

COMPLEX = support.disk3()
PROBE = support.disk3_probe()
CELLS = sorted(COMPLEX.cells)
VALUES = ["0.5", "-0", "1e999", "-1e999", "nan", "NaN", "inf", "-inf", "Infinity",
          "0x1p-2", "1_0", "", " ", "apple"]
WORDS = ["cell", "chart", "member", "override", "#", ",", "f1", "X"] + CELLS + VALUES

word = st.sampled_from(WORDS) | st.text(max_size=4)
free_line = st.lists(word, max_size=5).flatmap(
    lambda ws: st.sampled_from([" ", ",", "\t"]).map(lambda sep: sep.join(ws)))
free_text = st.lists(free_line, max_size=10).map("\n".join) | st.text()


def full_table(values):
    return "cell,f1\n" + "\n".join(f"{c},{v}" for c, v in zip(CELLS, values))


csv_text = (free_text
            | free_text.map(lambda t: "cell,f1\n" + t)
            | st.lists(st.sampled_from(VALUES) | st.just("0.25"),
                       min_size=len(CELLS), max_size=len(CELLS)).map(full_table))

chart_line = (free_line
              | st.builds("chart {}".format, st.sampled_from(["a", "b", "a b"]))
              | st.builds("member {}".format, st.sampled_from(CELLS + ["X"]))
              | st.builds("override {} {}".format, st.sampled_from(CELLS),
                          st.sampled_from(VALUES)))

def chart_block(cid, members, overrides):
    return "\n".join([f"chart {cid}"] + [f"member {c}" for c in members]
                     + [f"override {c} {v}" for c, v in overrides])


members = st.lists(st.sampled_from(CELLS), min_size=1, max_size=5, unique=True)
block = members.flatmap(lambda ms: st.builds(
    chart_block, st.sampled_from(["a", "b"]), st.just(ms),
    st.lists(st.tuples(st.sampled_from(ms + ["X"]), st.sampled_from(VALUES)), max_size=3)))
chart_text = st.lists(block | chart_line, max_size=6).map("\n".join) | st.text()

scenario_line = (free_line
                 | st.builds("complex {}".format, st.sampled_from(["a.cw", "", "a b.cw"]))
                 | st.builds("step {} {}".format, st.sampled_from(VALUES + ["-1.5", "2"]),
                             st.sampled_from(["s.csv", "", "# c"])))
scenario_text = st.lists(scenario_line, max_size=6).map("\n".join) | st.text()


@settings(max_examples=200, deadline=None)
@given(csv_text)
def test_descriptor_parsers_never_raise(text):
    table, diags = parse_descriptors(text, COMPLEX)
    assert (table is None) == has_errors(diags)
    probe, diags = load_probe(text, COMPLEX)
    assert (probe is None) == has_errors(diags)


@settings(max_examples=200, deadline=None)
@given(chart_text)
def test_parse_charts_never_raises(text):
    charts, diags = parse_charts(text, PROBE)
    assert (charts is None) == has_errors(diags)


@settings(max_examples=200, deadline=None)
@given(scenario_text)
def test_parse_scenario_never_raises(text):
    sf, diags = parse_scenario(text)
    assert (sf is None) == has_errors(diags)
    if sf is not None:
        assert all(math.isfinite(theta) for theta, _ in sf.steps)


def adjacent_only(k):
    """``k`` less its dangling and wrong-dimension entries, which the
    complex format cannot express."""
    dims = k.cells
    return CellComplex(dims, {(c, f): deg for (c, f), deg in k.incidence.items()
                              if c in dims and f in dims and dims[c] == dims[f] + 1})


complexes = st.builds(
    lambda build, seed: build(random.Random(seed)),
    st.sampled_from([lambda rng: support.random_cw_complex(rng, max_cells=30),
                     lambda rng: support.random_simplicial_complex(rng, max_vertices=8),
                     lambda rng: adjacent_only(support.random_incidence_complex(rng))]),
    st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(complexes)
def test_complex_round_trip(k):
    again, diags = parse_complex(emit_complex(k))
    assert diags == [] and again == k
    for p in range(k.max_dim + 2):
        assert again.boundary_columns(p) == k.boundary_columns(p)
