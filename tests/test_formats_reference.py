"""Differential tests: the complex, descriptor and chart parsers, and
``load_probe``, against the earlier parsers.

``formats_reference`` holds the parsers as they were when every line
was cut at '#' and stripped, every face was looked up in the whole
declared-cell table and every member and section value went through a
method call. On hostile texts both must return equal artifacts and the
same diagnostics: text, line number, code and order.

The texts mix the formats' own words with tabs, U+001F (whitespace
that ``float()`` does not strip and ``splitlines`` does not break on),
U+3000, CRLF, U+0085 and U+2028 line breaks, '#' comments, numbers
written ``+1``, ``1_0``, with an Arabic-Indic digit (U+0663) or with
5,000 digits, faces that repeat with zero net degree, undeclared and
wrong-dimension faces, and repeated rows, members and overrides. A
600-row torus probe, clean and with one defect at a time, exercises both
sides of ``load_probe``'s whole-column acceptance: a file it accepts in
one pass, and one whose rows it walks to word the diagnostics. Chart
texts that ``emit_charts`` writes, as they are and with one defect
each, exercise both sides of ``parse_charts``' whole-file accept.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import formats_reference  # noqa: E402
import support  # noqa: E402
from descell import (  # noqa: E402
    CellComplex,
    Chart,
    ProbeAssignment,
    assign_probe,
    make_chart,
    with_overrides,
)
from descell import formats  # noqa: E402
from descell.errors import ArityMismatchError  # noqa: E402
from descell.formats import (  # noqa: E402
    _accept_blocks,
    _charts,
    emit_charts,
    emit_complex,
    emit_descriptors,
    load_probe,
    parse_charts,
    parse_complex,
    parse_descriptors,
)

BIG = "7" * 5000
SEPARATORS = [" ", "\t", "\x1f", "\u3000", " \t "]
BREAKS = ["\n", "\r\n", "\r", "\u0085", "\u2028"]
NUMBERS = ["0", "1", "2", "-1", "+1", "1_0", "\u0663", BIG, "-" + BIG, "0.5", "x", ""]
VALUES = ["0.25", "-0", "+1", "1_0", "\u0663", "1e999", "nan", "inf", BIG, "x", "",
          "0.5\x1f", "\x1f0.5", "\u30000.5", "\t0.5 "]


def line_of(words, commented_out=True):
    """Words joined by one separator, maybe padded, with or without a
    '#' comment, which may start the line."""
    return st.builds(str.join, st.sampled_from(SEPARATORS), words).flatmap(
        lambda line: st.sampled_from([line, f"\t{line}\x1f ", line + "#c", line + " # bnd x:1"]
                                     + ["#" + line] * commented_out))


def text_of(lines):
    """Lines joined by assorted breaks; some lines are blank or whitespace."""
    line = lines | st.sampled_from(["", " ", "\x1f", "\u3000\t"])
    return st.lists(st.tuples(line, st.sampled_from(BREAKS)), max_size=14).map(
        lambda pairs: "".join(a + b for a, b in pairs))


# -- complex ----------------------------------------------------------------

IDS = ["v", "w", "e", "f", "t", "X"]
cell_id = st.sampled_from(IDS)
# Mostly sensible dimensions, so many texts declare a usable complex.
dim = st.sampled_from(["0", "0", "1", "1", "2"]) | st.sampled_from(NUMBERS + ["65", "64"])
face = st.builds("{}:{}".format, cell_id, st.sampled_from(["1", "-1", "2", "3"]))
odd_entry = (st.builds("{}:{}".format, cell_id, st.sampled_from(NUMBERS))
             | st.sampled_from(["v", ":1", "v:", "a:b:1", "v::1", "X:1"]))
# A face listed with opposite degrees nets to zero.
cancelling = cell_id.map(lambda f: [f"{f}:1", f"{f}:-1"])
bnd_words = st.builds(
    lambda cid, faces, extra: ["bnd", cid] + faces + extra, cell_id,
    st.lists(face | odd_entry, max_size=4),
    cancelling | st.just([]))
cell_words = st.builds(lambda cid, d: ["cell", cid, d], cell_id, dim)
other_words = st.lists(st.sampled_from(["cell", "bnd", "Cell", "v", "1", "v:1"])
                       | st.text(max_size=3), min_size=1, max_size=4)

# Every cell of a small valid complex declared, then boundary lines that
# name only faces one dimension down, so many texts parse to a complex.
DECLARED = [["cell", "v", "0"], ["cell", "w", "0"], ["cell", "e", "1"], ["cell", "f", "1"],
            ["cell", "t", "2"]]
FACES = {"e": ["v", "w"], "f": ["v", "w"], "t": ["e", "f"]}
degree = st.sampled_from(["1", "-1", "2", "3", "+1", "1_0", "\u0663"])
good_bnd = st.sampled_from(sorted(FACES)).flatmap(lambda cid: st.lists(
    st.builds("{}:{}".format, st.sampled_from(FACES[cid]), degree), min_size=1,
    max_size=4).map(lambda entries: ["bnd", cid] + entries))


@st.composite
def complex_texts(draw):
    lines = DECLARED + draw(st.lists(good_bnd, max_size=5))
    lines = [draw(line_of(st.just(words), commented_out=False)) for words in lines]
    lines += draw(st.lists(line_of(cell_words | bnd_words | other_words), max_size=2))
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in draw(st.permutations(lines)))


complex_text = (complex_texts()
                | text_of(line_of(cell_words | bnd_words | other_words))
                | st.text())


@settings(max_examples=200, deadline=None)
@given(complex_text)
def test_parse_complex_matches_reference(text):
    assert parse_complex(text, "k.cw") == formats_reference.parse_complex(text, "k.cw")


def test_parse_complex_matches_reference_on_surfaces():
    rng = random.Random(12)
    for k in (support.grid_surface(6), support.grid_surface(5, flip=True)):
        lines = emit_complex(k).splitlines()
        # Declarations after their use, a comment, CRLF, a duplicate,
        # a wrong-dimension face and an undeclared one.
        rng.shuffle(lines)
        lines[3] += " # comment"
        lines.append(lines[0])
        lines.append("bnd " + k.cells_of_dim(2)[0] + " " + k.cells_of_dim(0)[0] + ":1 nope:1")
        text = "\r\n".join(lines)
        assert parse_complex(text) == formats_reference.parse_complex(text)
        text = "\n".join(lines[:-2])
        got = parse_complex(text)
        assert got == formats_reference.parse_complex(text) and got == (k, [])


# -- descriptors --------------------------------------------------------------

COMPLEX = support.disk3()
CELLS = sorted(COMPLEX.cells)


def padded(cid):
    return st.sampled_from([cid, f" {cid}", f"{cid}\x1f", f"\u3000{cid}\t"])


header = st.sampled_from(["cell,f1", "cell,f1,f2", " cell , f1 ", "cell\x1f,f1", "cell",
                          "\ufeffcell,f1", "id,f1", ",", "cell,f1,"])
row = st.builds(lambda cid, values, sep: sep.join([cid] + values),
                st.sampled_from(CELLS + ["X", ""]).flatmap(padded),
                st.lists(st.sampled_from(VALUES), min_size=0, max_size=3),
                st.sampled_from([",", ";"]))
GOOD_HEADERS = {1: ["cell,f1", " cell , f1 ", "cell\x1f,f1\x1f"], 2: ["cell,\u3000f1,f2"]}
good_value = st.sampled_from(["0.25", "-0", "+1", "1_0", "\u0663", "0.5\x1f", "\x1f0.5",
                              "\u30000.5", "\t0.5 "])


@st.composite
def csv_texts(draw):
    """A row for every cell with finite values, some of them padded with
    whitespace, plus a few hostile or blank rows."""
    arity = draw(st.sampled_from(sorted(GOOD_HEADERS)))
    lines = [draw(padded(cid)) + "," + ",".join(draw(st.lists(good_value, min_size=arity,
                                                              max_size=arity)))
             for cid in draw(st.permutations(CELLS))]
    lines += draw(st.lists(row | st.sampled_from(["", " ", "\x1f", ",", " ,\x1f,\t"]),
                           max_size=2))
    lines = draw(st.permutations(lines))
    # A row whose value fails to parse, then a valid row for its cell:
    # only the first is an error, and the second is no duplicate.
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(CELLS) - 1))
        cid = lines[at].split(",")[0]
        lines.insert(at, cid + "," + ",".join(["x"] + ["0.5"] * (arity - 1)))
    lines = [draw(st.sampled_from(GOOD_HEADERS[arity]))] + lines
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)


csv_text = (csv_texts()
            | st.builds(lambda head, body: head + body, header,
                        text_of(row).map(lambda body: "\n" + body))
            | st.text())


@settings(max_examples=200, deadline=None)
@given(csv_text)
def test_parse_descriptors_matches_reference(text):
    rows, diags = formats_reference.parse_descriptors(text, COMPLEX, "p.csv")
    assert parse_descriptors(text, COMPLEX, "p.csv") == (rows, diags)
    # load_probe builds its probe from the same rows, unsorted.
    probe = None if rows is None else ProbeAssignment(COMPLEX, dict(rows), len(rows[0][1]))
    assert load_probe(text, COMPLEX, "p.csv") == (probe, diags)


TORUS = support.grid_surface(10)
TORUS_ROWS = emit_descriptors(support.random_probe_table(
    random.Random(23), TORUS, 2, support.decimal_value)).splitlines()
assert len(TORUS_ROWS) == 601


def defective(at, *replacement):
    """The torus probe's CSV with its row ``at`` replaced by ``replacement``."""
    return "\n".join(TORUS_ROWS[:at] + list(replacement) + TORUS_ROWS[at + 1:]) + "\n"


ROW = TORUS_ROWS[300]
ROW_BUT_ID = ROW[ROW.index(","):]
ROW_BUT_LAST_VALUE = ROW.rsplit(",", 1)[0]
TORUS_CSVS = {
    "clean": "\n".join(TORUS_ROWS) + "\n",
    "too few fields": defective(300, ROW_BUT_LAST_VALUE),
    "duplicate row": defective(300, ROW, ROW),
    "unknown id": defective(300, "nope" + ROW_BUT_ID),
    "empty id": defective(300, ROW_BUT_ID),
    "x": defective(300, ROW_BUT_LAST_VALUE + ",x"),
    "nan": defective(300, ROW_BUT_LAST_VALUE + ",nan"),
    "missing row": defective(300),
    "separators only": defective(300, ",,"),
    "padded separators only": defective(300, " \t,\x1f,\u3000"),
    "blank line": defective(300, ROW, ""),
    "unit separator line": defective(300, ROW, "\x1f"),
    "bad value, then its cell": defective(300, ROW_BUT_LAST_VALUE + ",1.0.0", ROW),
}


@pytest.mark.parametrize("name", sorted(TORUS_CSVS))
def test_load_probe_matches_reference_on_a_torus_probe(name):
    """One defect at a time in a 600-row probe: the clean files, blank
    lines included, pass the whole-column checks, and every other file is
    walked row by row, with the reference's diagnostics."""
    text = TORUS_CSVS[name]
    rows, diags = formats_reference.parse_descriptors(text, TORUS, "t.csv")
    assert (rows is not None) == (name in ("clean", "blank line", "unit separator line"))
    assert parse_descriptors(text, TORUS, "t.csv") == (rows, diags)
    probe = None if rows is None else ProbeAssignment(TORUS, dict(rows), 2)
    assert load_probe(text, TORUS, "t.csv") == (probe, diags)


def test_unit_separator_around_a_value_is_accepted():
    text = "cell,f1\n" + "\n".join(f"{c},\x1f0.5\x1f" for c in CELLS)
    table, diags = parse_descriptors(text, COMPLEX)
    assert diags == [] and table == [(c, (0.5,)) for c in CELLS]
    assert (table, diags) == formats_reference.parse_descriptors(text, COMPLEX)


# -- charts ---------------------------------------------------------------------

PROBES = [support.disk3_probe(),
          assign_probe(COMPLEX, [(c, (i / 4, -i / 8)) for i, c in enumerate(CELLS)])]
chart_cell = st.sampled_from(CELLS[:5] + ["X"])
chart_words = (st.builds(lambda cid: ["chart", cid], st.sampled_from(["a", "b", "c"]))
               | st.builds(lambda cid: ["member", cid], chart_cell)
               | st.sampled_from([["member"], ["member", "A", "B"], ["chart", "a", "b"]])
               | st.builds(lambda cid, values: ["override", cid] + values, chart_cell,
                           st.lists(st.sampled_from(VALUES[:9]), min_size=1, max_size=3))
               | st.lists(st.sampled_from(["chart", "member", "override", "a", "A"])
                          | st.text(max_size=3), min_size=1, max_size=3))


override_value = st.sampled_from(["0.5", "-0", "+1", "1_0", "\u0663", "1e-3", "2.5E-1"])


@st.composite
def chart_cases(draw):
    """A probe and well-formed blocks with overrides of its arity, plus a
    few hostile lines, so that many texts parse to charts."""
    probe = draw(st.sampled_from(PROBES))
    lines = []
    for cid in draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, unique=True)):
        members = draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=6, unique=True))
        lines += [["chart", cid]] + [["member", cell] for cell in members]
        for cell in draw(st.lists(st.sampled_from(members), max_size=2, unique=True)):
            values = draw(st.lists(override_value, min_size=probe.arity, max_size=probe.arity))
            lines.append(["override", cell] + values)
    lines = [draw(line_of(st.just(words), commented_out=False)) for words in lines]
    for hostile in draw(st.lists(line_of(chart_words), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), hostile)
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines), probe


chart_text = text_of(line_of(chart_words)) | st.text()


@settings(max_examples=200, deadline=None)
@given(chart_cases() | st.tuples(chart_text, st.sampled_from(PROBES)))
def test_parse_charts_matches_reference(case):
    text, probe = case
    assert (parse_charts(text, probe, "c.chart")
            == formats_reference.parse_charts(text, probe, "c.chart"))


def test_parse_charts_matches_reference_on_torus_cover():
    rng = random.Random(10)
    k = support.grid_surface(10)
    probe = support.random_probe(rng, k, 2, support.decimal_value)
    lines = []
    for n, cells in enumerate(support.grid_windows(10, (6, 4), 5)):
        lines.append(f"chart ch{n:02d}  # window {n}")
        lines += [f"\tmember {c}" for c in sorted(cells)]
        lines.append(f"override {min(cells)} 0.5 {n}")
    text = "\r\n".join(lines)
    charts, diags = parse_charts(text, probe)
    assert diags == [] and len(charts) == 24
    assert (charts, diags) == formats_reference.parse_charts(text, probe)


# -- the chart parser on a 24-chart torus cover ---------------------------------

TORUS_PROBE = support.random_probe(random.Random(10), TORUS, 2, support.decimal_value)
COVER = [sorted(cells) for cells in support.grid_windows(10, (6, 4), 5)]
assert len(COVER) == 24


def cover_text(*extra, comments=False, crlf=False, at=None):
    """The 24-chart torus cover, each block with an override of its first
    member, with the ``extra`` lines inserted before line ``at`` or at the
    end; maybe with comments and tab-indented members, and CRLF line
    breaks."""
    lines = []
    for n, cells in enumerate(COVER):
        lines.append(f"chart ch{n:02d}" + ("  # window" if comments else ""))
        lines += [("\tmember " if comments else "member ") + c for c in cells]
        lines.append(f"override {cells[0]} 0.5 {n}")
    at = len(lines) if at is None else at
    lines[at:at] = extra
    return ("\r\n" if crlf else "\n").join(lines) + "\n"


LAST = COVER[-1]
OUTSIDE_LAST = sorted(set(TORUS.cells) - set(LAST))[:1]
# A line inside block 12, before its last two members and its override.
MIDDLE = sum(len(cells) + 2 for cells in COVER[:13]) - 3
COVERS = {
    "clean": cover_text(),
    "comments, tabs and CRLF": cover_text(comments=True, crlf=True),
    "duplicate member in the last block": cover_text(f"member {LAST[3]}"),
    "unknown member in the last block": cover_text("member nope"),
    "override for a non-member": cover_text(f"override {OUTSIDE_LAST[0]} 1 2"),
    "override given twice": cover_text(f"override {LAST[0]} 1 2"),
    "empty final block": cover_text("chart zz"),
    "member before any chart": "member " + LAST[0] + "\n" + cover_text(),
    # The rest of block 12, its override included, then belongs to no chart.
    "3-word chart line in the middle": cover_text("chart mid x", at=MIDDLE),
    "chart declared twice, then members and an override": cover_text(
        "chart ch03", f"member {LAST[0]}", "member nope", f"override {LAST[0]} 1 2"),
    "override before any chart": f"override {LAST[0]} 1 2\n" + cover_text(),
    # Member errors fall between the line errors; the override's comes last.
    "unknown, repeated and overridden member among bad lines": cover_text(
        "frob", "member nope", "member", f"member {LAST[3]}", "override nope 1 2",
        "override nope 1 x"),
    # Every member unknown: "has no members" comes after every line error.
    "every member unknown": cover_text("chart zz", "member nope", "member nada", "frob"),
    "canonical, as emit_charts writes it": emit_charts(
        formats_reference.parse_charts(cover_text(), TORUS_PROBE)[0], TORUS_PROBE),
}
# The files in the form emit_charts writes, which _accept_blocks takes whole.
CANONICAL = ("clean", "canonical, as emit_charts writes it")
ACCEPTED = CANONICAL + ("comments, tabs and CRLF",)


def counting_charts(monkeypatch):
    """The names of the Chart builders called from now on, in order."""
    calls = []
    real_of, real_init = Chart._of.__func__, Chart.__init__

    def of(cls, *args):
        calls.append("_of")
        return real_of(cls, *args)

    def init(self, *args, **kwargs):
        calls.append("__init__")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Chart, "_of", classmethod(of))
    monkeypatch.setattr(Chart, "__init__", init)
    return calls


@pytest.mark.parametrize("name", sorted(COVERS))
def test_parse_charts_matches_reference_on_torus_covers(name, monkeypatch):
    """One defect at a time in the 24-chart cover: a clean file has its
    charts handed to ``Chart._of``, by the whole-file accept when it is
    canonical; any other gets the reference's diagnostics, in its order,
    and builds no chart. The probe's table is checked once for a file
    that gives charts, by the accept or after the walk, and at most once
    for any other."""
    text = COVERS[name]
    expected = formats_reference.parse_charts(text, TORUS_PROBE, "t.chart")
    assert (expected[0] is not None) == (name in ACCEPTED)
    assert (_accept_blocks(text, TORUS_PROBE) is not None) == (name in CANONICAL)
    calls = counting_charts(monkeypatch)
    checked = formats._checked
    monkeypatch.setattr(formats, "_checked", lambda probe: calls.append("_checked")
                        or checked(probe))
    assert parse_charts(text, TORUS_PROBE, "t.chart") == expected
    if name in ACCEPTED:
        assert calls == ["_checked"] + ["_of"] * 24
    else:
        assert calls in ([], ["_checked"])


def outcome(parse, *args):
    """What ``parse`` returns, or the type and text of what it raises."""
    try:
        return parse(*args)
    except (ArityMismatchError, KeyError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cells,value,error", [
    (LAST[:1], (0.5,), None),       # overridden in every block that holds it
    (LAST[:1], None, None),
    (LAST[1:2], (0.5, 0.25, 0.0), ArityMismatchError),
    (OUTSIDE_LAST, (0.5,), ArityMismatchError),
    # Cells of later blocks only: a chart is built before the KeyError.
    ([c for c in LAST if c not in COVER[0]][:6], None, KeyError),
])
def test_parse_charts_raises_as_the_reference_on_a_hand_built_probe(cells, value, error,
                                                                     monkeypatch):
    """A probe built by hand with a value of another arity, or with cells
    left out, is not checked by its constructor. Its charts are built
    through ``Chart.__init__``, as the reference builds them: the same
    charts, or the same exception."""
    table = dict(TORUS_PROBE.values)
    for cell in cells:
        if value is None:
            del table[cell]
        else:
            table[cell] = value
    probe = ProbeAssignment(TORUS, table, 2)
    text = cover_text()
    expected = outcome(formats_reference.parse_charts, text, probe, "t.chart")
    assert (expected[0] if error else type(expected[0])) is (error or list)
    calls = counting_charts(monkeypatch)
    assert outcome(parse_charts, text, probe, "t.chart") == expected
    assert calls and "_of" not in calls



# -- the whole-file accept of canonical chart files ------------------------------
#
# Texts that emit_charts writes for random covers, each taken whole by
# _accept_blocks, and each again with one defect that leaves that form:
# the line walk reads those, and both must match the reference.


def on_lines(mutate):
    """A change of a canonical text by ``mutate(lines, rng, probe)``,
    which edits the list of its lines in place."""
    def change(text, rng, probe):
        lines = text.split("\n")[:-1]
        mutate(lines, rng, probe)
        return "\n".join(lines) + "\n"
    return change


def pick(lines, rng, prefix):
    """The index of a random line that starts with ``prefix``."""
    return rng.choice([i for i, line in enumerate(lines) if line.startswith(prefix)])


def edit(prefix, change):
    """Rewrite a random line that starts with ``prefix`` by ``change(line, rng)``."""
    def mutate(lines, rng, probe):
        i = pick(lines, rng, prefix)
        lines[i] = change(lines[i], rng)
    return on_lines(mutate)


def insert(prefix, new):
    """Insert the lines ``new(line, members, rng, probe)`` after a random
    line that starts with ``prefix``; ``members`` are its block's."""
    def mutate(lines, rng, probe):
        i = pick(lines, rng, prefix)
        start = max(j for j in range(i + 1) if lines[j].startswith("chart "))
        end = next((j for j in range(start + 1, len(lines)) if lines[j].startswith("chart ")),
                   len(lines))
        members = [line[7:] for line in lines[start:end] if line.startswith("member ")]
        lines[i + 1:i + 1] = new(lines[i], members, rng, probe)
    return on_lines(mutate)


def shuffle_blocks(lines, rng, probe):
    """Put the blocks of ``lines`` in a random order, in place."""
    starts = [i for i, line in enumerate(lines) if line.startswith("chart ")]
    blocks = [lines[i:j] for i, j in zip(starts, starts[1:] + [len(lines)])]
    rng.shuffle(blocks)
    lines[:] = [line for block in blocks for line in block]


def override(cell, values):
    return " ".join(["override", cell, *values])


def good_values(probe, rng):
    return [rng.choice(["0.5", "-0.25", "3"]) for _ in range(probe.arity)]


def append_overrides(new):
    """Append the override lines ``new(members, rng, probe)`` to the last
    block, after its members and overrides."""
    def mutate(lines, rng, probe):
        start = max(i for i, line in enumerate(lines) if line.startswith("chart "))
        lines += new([line[7:] for line in lines[start:] if line.startswith("member ")],
                     rng, probe)
    return on_lines(mutate)


ODD_SPACES = "\x0b\x0c\x1c\x1d\x1e\x1f"
MUTATIONS = {
    # Whitespace
    "tab": edit("", lambda line, rng: line.replace(" ", "\t", 1)),
    "double space": edit("", lambda line, rng: line.replace(" ", "  ", 1)),
    "trailing space": edit("", lambda line, rng: line + " "),
    "blank line": on_lines(lambda lines, rng, probe: lines.insert(rng.randint(0, len(lines)), "")),
    "comment": edit("", lambda line, rng: rng.choice([line + " # c", line + "#", "#" + line])),
    "CR": edit("", lambda line, rng: line + "\r"),
    "odd space": edit("", lambda line, rng: rng.choice(
        [line.replace(" ", rng.choice(ODD_SPACES), 1), line + rng.choice(ODD_SPACES)])),
    # Ids
    "non-ASCII id": edit(("chart ", "member "), lambda line, rng: line + "\u00e9"),
    "empty id": edit(("chart ", "member "), lambda line, rng: line.split(" ")[0] + " "),
    "repeated chart id": insert("chart ", lambda line, members, rng, probe: [
        "member " + rng.choice(members), line, "member " + rng.choice(members)]),
    "repeated member": insert("member ", lambda line, members, rng, probe: [line]),
    "unknown member": insert("member ", lambda line, members, rng, probe: ["member nope"]),
    "member member x": edit("member ", lambda line, rng: "member " + line),
    # Overrides
    "override before a member": insert("chart ", lambda line, members, rng, probe: [
        override(rng.choice(members), good_values(probe, rng))]),
    "override for a non-member": append_overrides(lambda members, rng, probe: [
        override(rng.choice([c for c in CELLS if c not in members] + ["nope"]),
                 good_values(probe, rng))]),
    "override given twice": append_overrides(lambda members, rng, probe: [
        override(rng.choice(members), good_values(probe, rng))] * 2),
    "non-finite value": append_overrides(lambda members, rng, probe: [
        override(rng.choice(members), good_values(probe, rng)[1:]
                 + [rng.choice(["inf", "-inf", "nan", "1e999"])])]),
    "wrong arity": append_overrides(lambda members, rng, probe: [
        override(rng.choice(members),
                 (good_values(probe, rng) + ["1"])[:probe.arity + rng.choice([-1, 1])])]),
    # Layout
    "missing final newline": lambda text, rng, probe: text[:-1],
    "empty block": on_lines(lambda lines, rng, probe: lines.insert(
        rng.choice([i for i, line in enumerate(lines) if line.startswith("chart ")]
                   + [len(lines)]), "chart zz")),
}
# A change that keeps that form: the benchmark's covers list their blocks
# shuffled, and the accept must take them whole too.
REORDERINGS = {"shuffled blocks": on_lines(shuffle_blocks)}
override_component = st.sampled_from([0.5, -0.25, 1e-3, 3.0])


@st.composite
def covers(draw):
    """A probe of arity 1 or 2 and a random cover of its complex, whose
    charts may override some of their cells."""
    probe = draw(st.sampled_from(PROBES))
    charts = []
    for cid in draw(st.lists(st.sampled_from(["a", "b", "ch01", "chart", "member", "override"]),
                             min_size=1, max_size=4, unique=True)):
        cells = draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=8, unique=True))
        overridden = draw(st.lists(st.sampled_from(cells), max_size=2, unique=True))
        value = st.tuples(*[override_component] * probe.arity)
        charts.append(with_overrides(make_chart(probe, cells, cid),
                                     {cell: draw(value) for cell in overridden}))
    return probe, sorted(charts, key=lambda c: c.id)


@pytest.mark.parametrize("mutation", [None, *REORDERINGS, *MUTATIONS])
@settings(max_examples=40, deadline=None)
@given(cover=covers(), rng=st.randoms(use_true_random=False))
def test_canonical_chart_files_are_accepted_whole(mutation, cover, rng):
    """A text as emit_charts writes it, its blocks in any order, is taken
    whole, to the charts it came from; with any one mutation, the line
    walk reads it. Either way the result is the reference's."""
    probe, charts = cover
    text = emit_charts(charts, probe)
    if mutation is not None:
        text = {**REORDERINGS, **MUTATIONS}[mutation](text, rng, probe)
    expected = formats_reference.parse_charts(text, probe, "c.chart")
    assert parse_charts(text, probe, "c.chart") == expected
    if mutation in MUTATIONS:
        assert _accept_blocks(text, probe) is None
    else:
        assert _charts(_accept_blocks(text, probe), probe, True) == expected[0] == charts


def test_an_empty_member_is_refused_on_a_complex_with_an_empty_cell_id():
    """``CellComplex`` allows a cell "", which no member line can name."""
    probe = assign_probe(CellComplex({"": 0, "v": 0}, {}), [("", (0.5,)), ("v", (1.0,))])
    text = "chart a\nmember \nmember v\n"
    assert _accept_blocks(text, probe) is None
    assert parse_charts(text, probe) == formats_reference.parse_charts(text, probe)
    assert parse_charts(text, probe)[0] is None
