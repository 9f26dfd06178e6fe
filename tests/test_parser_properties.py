"""Property tests: the parsers never raise, and all five formats
round-trip.

Whatever text they get, ``parse_complex``, ``parse_descriptors``,
``load_probe``, ``parse_charts``, ``parse_scenario`` and
``parse_signature`` return an artifact or error diagnostics, and the
artifact is None exactly when there is an error; ``parse_charts`` also
gives what ``formats_reference.parse_charts`` gives. The texts mix
arbitrary strings with lines built from the formats' own words, real
cell ids and awkward numbers (``nan``, ``inf``, overflowing exponents,
5,000-digit integers), so most of them get past the header and the
directive checks.

The round trip ``parse_complex(emit_complex(k)) == k`` must also give
the same compiled boundary columns, on random CW and simplicial
complexes and on random tables with negative, even and odd degrees;
``emit_complex`` refuses exactly the tables with an entry that is not
(p, p-1) between declared cells or a dimension past ``MAX_CELL_DIM``.
``parse(emit(x)) == x`` also holds for descriptor tables, charts with
overrides, scenario files and signatures, among them empty tables and
tables of arity 0, and signatures with no alphas, which have no rows and
keep their thetas and dimensions in metadata lines. Ids and paths are
drawn from any text, and numbers from any float (nan and ±inf among
them) and from negative integers: an emitter writes what its parser
reads back, and raises ValueError exactly for the values its format
cannot carry. Half the tables hold finite numbers alone, so that tables
of any size are still read back.
"""

import math
import random
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import formats_reference  # noqa: E402
import support  # noqa: E402
from descell import (  # noqa: E402
    CellComplex,
    Chart,
    PersistenceSignature,
    assign_probe,
    make_chart,
)
from descell.formats import (  # noqa: E402
    MAX_CELL_DIM,
    ScenarioFile,
    _fmt_descriptor,
    _fmt_float,
    _non_negative,
    _readable,
    emit_charts,
    emit_complex,
    emit_descriptors,
    emit_scenario,
    emit_signature,
    has_errors,
    load_probe,
    load_scenario_file,
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
# Relative paths only, so that they resolve inside the directory given.
scenario_path = st.text(st.sampled_from("ab. \0#"), max_size=6)
scenario_shape = st.builds(
    lambda cpath, steps: "\n".join([f"complex {cpath}"] + [f"step {t} {p}" for t, p in steps]),
    scenario_path,
    st.lists(st.tuples(st.sampled_from(["0", "1.5", "-2"]), scenario_path), min_size=1, max_size=3))


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
    assert (charts, diags) == formats_reference.parse_charts(text, PROBE)


@settings(max_examples=200, deadline=None)
@given(scenario_text)
def test_parse_scenario_never_raises(text):
    sf, diags = parse_scenario(text)
    assert (sf is None) == has_errors(diags)
    if sf is not None:
        assert all(math.isfinite(theta) for theta, _ in sf.steps)


@settings(max_examples=200, deadline=None)
@given(scenario_text | scenario_shape)
def test_accepted_scenario_loads_without_raising(text):
    """Whatever paths an accepted scenario names, resolving them in an
    empty directory gives error diagnostics, never an exception."""
    sf, _ = parse_scenario(text)
    if sf is not None:
        with tempfile.TemporaryDirectory() as empty:
            scenario, diags = load_scenario_file(sf, empty)
        assert scenario is None and has_errors(diags)


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


def beyond_the_bound(k, rng):
    """``k`` with one cell moved to dimension MAX_CELL_DIM or one past it."""
    cells = dict(k.cells)
    cells[rng.choice(sorted(cells))] = MAX_CELL_DIM + rng.randint(0, 1)
    return CellComplex(cells, k.incidence)


def unwritable(k):
    """Whether ``k`` has a dimension past the bound or an entry that is
    not (p, p-1) between declared cells, which the format cannot carry."""
    dims = k.cells
    return k.max_dim > MAX_CELL_DIM or any(
        c not in dims or f not in dims or dims[c] != dims[f] + 1 for c, f in k.incidence)


complexes = st.builds(
    lambda build, seed: build(random.Random(seed)),
    st.sampled_from([lambda rng: support.random_cw_complex(rng, max_cells=30),
                     lambda rng: support.random_simplicial_complex(rng, max_vertices=8),
                     lambda rng: support.random_incidence_complex(rng),
                     lambda rng: beyond_the_bound(support.random_incidence_complex(rng), rng)]),
    st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(complexes)
def test_complex_round_trip(k):
    text = emit_or_refuse(emit_complex, k)
    assert (text is None) == unwritable(k)
    if text is None:
        return
    again, diags = parse_complex(text)
    assert diags == [] and again == k
    for p in range(k.max_dim + 2):
        assert again.boundary_columns(p) == k.boundary_columns(p)


finite = st.floats(allow_nan=False, allow_infinity=False)
number = finite | st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats()
# Besides plain names, any text: the characters the formats split or cut
# lines on (every str.splitlines separator among them), NUL, U+001F, and
# the empty string.
AWKWARD = "#,:; \t\n\v\f\r\x1c\x1d\x1e\x1f\x85\u2028\u2029\0"
any_text = st.text(st.sampled_from(AWKWARD) | st.characters(), max_size=8)
word_id = st.from_regex(r"[A-Za-z0-9_.-]{1,6}", fullmatch=True) | any_text
path = st.from_regex(r"[A-Za-z0-9_./-]([A-Za-z0-9_. /-]{0,8}[A-Za-z0-9_./-])?",
                     fullmatch=True) | any_text
# Complexes of vertices with such ids, the empty complex among them.
vertices = st.lists(word_id, max_size=5, unique=True).map(
    lambda ids: CellComplex(dict.fromkeys(ids, 0), {}))


def emit_or_refuse(emit, *args):
    """What ``emit`` writes, or None when it refuses a value that its
    format cannot carry."""
    try:
        return emit(*args)
    except ValueError as exc:
        assert "cannot be serialized" in str(exc)
        return None


LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # what str.splitlines cuts on


def one_field(text, banned, word=True):
    """Whether a format reads ``text`` back as it is: not empty, none of
    ``banned``, and, as a word, no whitespace at all, or else no line
    break and no whitespace at either end."""
    if not text or any(ch in banned for ch in text):
        return False
    if word:
        return not any(ch.isspace() for ch in text)
    return text == text.strip() and not any(ch in LINE_BREAKS for ch in text)


def all_finite(values):
    return all(map(math.isfinite, values))


# Each table below holds, on a drawn ``clean``, finite numbers alone, so
# that half the tables of any size are round-tripped; otherwise any
# float, and the emitter must refuse exactly the tables that hold a
# number its parser rejects or an id it cannot carry.


@settings(max_examples=200, deadline=None)
@given(complexes | vertices, st.integers(0, 3), st.booleans(), st.data())
def test_descriptors_round_trip(k, arity, clean, data):
    value = finite if clean else number
    table = [(cid, data.draw(st.tuples(*[value] * arity)))
             for cid in data.draw(st.permutations(sorted(k.cells)))]
    text = emit_or_refuse(emit_descriptors, table)
    refused = bool(table) and not (
        arity and all(one_field(cid, ",", word=False) for cid, _ in table)
        and all_finite(v for _, desc in table for v in desc))
    assert (text is None) == refused
    if text is None:
        return
    assert parse_descriptors(text, k) == (sorted(table), [])
    assert load_probe(text, k) == (assign_probe(k, table), [])


@settings(max_examples=200, deadline=None)
@given(complexes | vertices.filter(len), st.integers(0, 3), st.booleans(), st.data())
def test_charts_round_trip(k, arity, clean, data):
    cells = sorted(k.cells)
    probe = assign_probe(k, [(cid, data.draw(st.tuples(*[finite] * arity))) for cid in cells])
    charts, overridden = [], []
    for cid in data.draw(st.lists(word_id, min_size=1, max_size=4, unique=True)):
        members = data.draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
        overrides = data.draw(st.dictionaries(st.sampled_from(members),
                                              st.tuples(*[finite if clean else number] * arity)))
        chart = make_chart(probe, members, cid)
        charts.append(Chart(cid, members, {**chart.section, **overrides}, arity))
        overridden += [v for desc in overrides.values() for v in desc]
    text = emit_or_refuse(emit_charts, charts, probe)
    # The probe is finite, so every non-finite override differs from it
    # and is written.
    ids = [c.id for c in charts] + [cell for c in charts for cell in c.cells]
    assert (text is None) == (not (all(one_field(i, "#") for i in ids)
                                   and all_finite(overridden)))
    if text is None:
        return
    assert parse_charts(text, probe) == (sorted(charts, key=lambda c: c.id), [])


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.data())
def test_scenario_file_round_trip(clean, data):
    theta = finite if clean else number
    sf = data.draw(st.builds(ScenarioFile, path,
                             st.lists(st.tuples(theta, path), min_size=1, max_size=5).map(tuple)))
    text = emit_or_refuse(emit_scenario, sf)
    paths = [sf.complex_path, *(p for _, p in sf.steps)]
    assert (text is None) == (not (all(one_field(p, "#\0", word=False) for p in paths)
                                   and all_finite(t for t, _ in sf.steps)))
    if text is not None:
        assert parse_scenario(text) == (sf, [])


def sorted_unique(elements, min_size=1):
    return st.lists(elements, min_size=min_size, max_size=4, unique=True).map(sorted).map(tuple)


@st.composite
def signatures(draw):
    # Half the signatures hold only values the parser accepts (an infinite
    # delta among them), and half any float and integers down to -2.
    clean = draw(st.booleans())
    value, least_int = (finite, 0) if clean else (number, -2)
    arity = draw(st.integers(0, 3))
    alphas = draw(sorted_unique(st.tuples(*[value] * arity), min_size=0))
    # With no alphas there are no rows, and the thetas and dims may be empty too.
    least = 1 if alphas else 0
    thetas = draw(sorted_unique(value, least))
    dims = draw(sorted_unique(st.integers(least_int, 64), least))
    table = {(ti, alpha, p): draw(st.integers(least_int, 10**6 if clean else 2))
             for ti in range(len(thetas)) for alpha in alphas for p in dims}
    return PersistenceSignature(
        mode=draw(st.sampled_from(["remove", "retain"])),
        delta=draw(st.floats(min_value=0) if clean else number),
        removal_dim=draw(st.integers(least_int, 64)),
        thetas=thetas, alphas=alphas, dims=dims, table=table)


def readable(sig):
    """Whether ``parse_signature`` accepts every value of the signature."""
    values = [*sig.thetas, *(v for alpha in sig.alphas for v in alpha)]
    return (() not in sig.alphas and all(map(math.isfinite, values)) and sig.delta >= 0
            and min([sig.removal_dim, *sig.dims, *sig.table.values()]) >= 0)


@settings(max_examples=300, deadline=None)
@given(signatures())
def test_signature_round_trip(sig):
    """Alpha components are ';'-joined, so an alpha of arity 0 would
    write an empty field, and is refused, as is any number the parser
    rejects; an infinite delta is written and read back."""
    text = emit_or_refuse(emit_signature, sig)
    assert (text is None) == (not readable(sig))
    if text is not None:
        assert parse_signature(text) == (sig, [])


def emit_signature_per_row(sig):
    """``emit_signature`` as it was, formatting every theta and alpha
    again on each of its rows: the byte-for-byte reference."""
    if () in sig.alphas:
        raise ValueError("alpha () of arity 0 cannot be serialized")
    _readable(sig.thetas, "theta")
    _readable((v for alpha in sig.alphas for v in alpha), "alpha value")
    _readable([sig.delta], "delta", _non_negative)
    _readable([sig.removal_dim, *sig.dims], "dimension", _non_negative)
    _readable(sig.table.values(), "betti", _non_negative)
    lines = [f"# mode {sig.mode}", f"# delta {_fmt_float(sig.delta)}", f"# rdim {sig.removal_dim}"]
    rows = [f"{_fmt_float(theta)},{_fmt_descriptor(alpha)},{p},{betti}"
            for theta, alpha, p, betti in sig.rows()]
    if not rows and sig.thetas:
        lines.append(f"# thetas {_fmt_descriptor(sig.thetas)}")
    if not rows and sig.dims:
        lines.append(f"# dims {';'.join(map(str, sig.dims))}")
    lines.append("theta,alpha,dim,betti")
    lines.extend(rows)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(signatures())
def test_emit_signature_matches_the_per_row_formatter(sig):
    assert emit_or_refuse(emit_signature, sig) == emit_or_refuse(emit_signature_per_row, sig)


@pytest.mark.parametrize("thetas", [(-0.0, 0.0), (0.0, -0.0), (0.0,)])
@pytest.mark.parametrize("alphas", [((0.0,), (-0.0,)), ((-0.0,), (0.0,)),
                                    ((-0.0, 0.0), (0.0, -0.0))])
def test_emit_signature_keeps_the_sign_of_zero(thetas, alphas):
    # Equal keys that print differently: each must keep its own spelling,
    # so a cache keyed by value would write one spelling for both.
    dims = (0, 1)
    table = {(ti, alpha, p): ti + p for ti in range(len(thetas)) for alpha in alphas for p in dims}
    sig = PersistenceSignature(mode="remove", delta=0.0, removal_dim=1,
                               thetas=thetas, alphas=alphas, dims=dims, table=table)
    assert emit_signature(sig) == emit_signature_per_row(sig)
