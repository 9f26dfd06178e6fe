"""Property tests: the parsers never raise, and all five formats
round-trip.

Whatever text they get, ``parse_complex``, ``parse_descriptors``,
``load_probe``, ``parse_charts``, ``parse_scenario`` and
``parse_signature`` return an artifact or error diagnostics, and the
artifact is None exactly when there is an error. The texts mix
arbitrary strings with lines built from the formats' own words, real
cell ids and awkward numbers (``nan``, ``inf``, overflowing exponents,
5,000-digit integers), so most of them get past the header and the
directive checks.

The round trip ``parse_complex(emit_complex(k)) == k`` must also give
the same compiled boundary columns, on random CW and simplicial
complexes and on random tables with negative, even and odd degrees.
``parse(emit(x)) == x`` also holds for descriptor tables, charts with
overrides, scenario files and signatures, among them signatures with no
alphas, which have no rows and keep their thetas and dimensions in
metadata lines.
"""

import math
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import support  # noqa: E402
from descell import (  # noqa: E402
    CellComplex,
    PersistenceSignature,
    assign_probe,
    make_chart,
    with_overrides,
)
from descell.formats import (  # noqa: E402
    ScenarioFile,
    emit_charts,
    emit_complex,
    emit_descriptors,
    emit_scenario,
    emit_signature,
    has_errors,
    load_probe,
    parse_charts,
    parse_complex,
    parse_descriptors,
    parse_scenario,
    parse_signature,
)

COMPLEX = support.disk3()
PROBE = support.disk3_probe()
CELLS = sorted(COMPLEX.cells)
VALUES = ["0.5", "-0", "1e999", "-1e999", "nan", "NaN", "inf", "-inf", "Infinity",
          "0x1p-2", "1_0", "", " ", "apple"]
WORDS = ["cell", "bnd", "chart", "member", "override", "#", ",", "f1", "X"] + CELLS + VALUES

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


complex_line = (free_line
                | st.builds("cell {} {}".format, st.sampled_from(CELLS + ["X"]),
                            st.sampled_from(["0", "1", "2", "-1", "65", "9" * 5000] + VALUES))
                | st.builds("bnd {} {}".format, st.sampled_from(CELLS + ["X"]),
                            st.lists(st.builds("{}:{}".format, st.sampled_from(CELLS + ["X"]),
                                               st.sampled_from(["1", "-1", "2"] + VALUES)),
                                     max_size=3).map(" ".join)))
complex_text = st.lists(complex_line, max_size=10).map("\n".join) | st.text()


@settings(max_examples=200, deadline=None)
@given(complex_text)
def test_parse_complex_never_raises(text):
    k, diags = parse_complex(text)
    assert (k is None) == has_errors(diags)


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


signature_line = (free_line
                  | st.sampled_from(["# mode remove", "# delta 0.5", "# rdim 2", "# delta x",
                                     "# rdim -1", "# delta nan", "# delta -0.5",
                                     "# mode sideways", "# thetas 0.5;1", "# thetas 1;nan",
                                     "# dims 0;2", "# dims -1", "# dims x",
                                     "theta,alpha,dim,betti"])
                  | st.lists(st.sampled_from(VALUES + ["0", "-3", "1;2", "0.5;nan"]),
                             min_size=4, max_size=4).map(",".join))
signature_text = st.lists(signature_line, max_size=8).map("\n".join) | st.text()


@settings(max_examples=200, deadline=None)
@given(signature_text)
def test_parse_signature_never_raises(text):
    sig, diags = parse_signature(text)
    assert (sig is None) == has_errors(diags)
    if sig is not None:
        assert all(map(math.isfinite, sig.thetas))
        assert all(math.isfinite(v) for alpha in sig.alphas for v in alpha)
        assert all(p >= 0 for p in sig.dims)
        assert sig.mode in ("remove", "retain") and sig.delta >= 0 and sig.removal_dim >= 0


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


finite = st.floats(allow_nan=False, allow_infinity=False)
word_id = st.from_regex(r"[A-Za-z0-9_.-]{1,6}", fullmatch=True)
path = st.from_regex(r"[A-Za-z0-9_./-]([A-Za-z0-9_. /-]{0,8}[A-Za-z0-9_./-])?",
                     fullmatch=True)


@settings(max_examples=100, deadline=None)
@given(complexes, st.integers(1, 3), st.data())
def test_descriptors_round_trip(k, arity, data):
    table = [(cid, tuple(data.draw(st.tuples(*[finite] * arity))))
             for cid in data.draw(st.permutations(sorted(k.cells)))]
    text = emit_descriptors(table)
    assert parse_descriptors(text, k) == (sorted(table), [])
    assert load_probe(text, k) == (assign_probe(k, table), [])


@settings(max_examples=100, deadline=None)
@given(complexes, st.integers(1, 3), st.data())
def test_charts_round_trip(k, arity, data):
    cells = sorted(k.cells)
    probe = assign_probe(k, [(cid, data.draw(st.tuples(*[finite] * arity))) for cid in cells])
    charts = []
    for cid in data.draw(st.lists(word_id, min_size=1, max_size=4, unique=True)):
        members = data.draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
        overrides = data.draw(st.dictionaries(st.sampled_from(members),
                                              st.tuples(*[finite] * arity)))
        charts.append(with_overrides(make_chart(probe, members, cid), overrides))
    parsed = parse_charts(emit_charts(charts, probe), probe)
    assert parsed == (sorted(charts, key=lambda c: c.id), [])


@settings(max_examples=200, deadline=None)
@given(st.builds(ScenarioFile, path,
                 st.lists(st.tuples(finite, path), min_size=1, max_size=5).map(tuple)))
def test_scenario_file_round_trip(sf):
    assert parse_scenario(emit_scenario(sf)) == (sf, [])


def sorted_unique(elements, min_size=1):
    return st.lists(elements, min_size=min_size, max_size=4, unique=True).map(sorted).map(tuple)


@st.composite
def signatures(draw):
    arity = draw(st.integers(1, 3))
    alphas = draw(sorted_unique(st.tuples(*[finite] * arity), min_size=0))
    # With no alphas there are no rows, and the thetas and dims may be empty too.
    least = 1 if alphas else 0
    thetas = draw(sorted_unique(finite, least))
    dims = draw(sorted_unique(st.integers(0, 64), least))
    table = {(ti, alpha, p): draw(st.integers(0, 10**6))
             for ti in range(len(thetas)) for alpha in alphas for p in dims}
    return PersistenceSignature(
        mode=draw(st.sampled_from(["remove", "retain"])),
        delta=draw(finite.filter(lambda v: v >= 0)),
        removal_dim=draw(st.integers(0, 64)), thetas=thetas, alphas=alphas, dims=dims,
        table=table)


@settings(max_examples=200, deadline=None)
@given(signatures())
def test_signature_round_trip(sig):
    assert parse_signature(emit_signature(sig)) == (sig, [])
