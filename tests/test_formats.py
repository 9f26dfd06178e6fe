import copy
import pickle
import random

import pytest

import support
from descell import (
    CellComplex,
    Chart,
    PersistenceSignature,
    ProbeAssignment,
    build_scenario,
    compare_signatures,
    from_simplices,
    make_chart,
    signature,
    with_overrides,
)
from descell.formats import (
    MAX_CELL_DIM,
    ScenarioFile,
    emit_charts,
    emit_complex,
    emit_curves,
    emit_descriptors,
    emit_scenario,
    emit_signature,
    has_errors,
    load_probe,
    load_scenario,
    parse_charts,
    parse_complex,
    parse_descriptors,
    parse_scenario,
    parse_signature,
    read_text,
)
from test_persistence import cooling_scenario

POINT_PROBE = ProbeAssignment(CellComplex({"v": 0}, {}), {"v": (0.5,)}, 1)


# -- complex format ----------------------------------------------------------


def test_parse_minimal_circle():
    k, diags = parse_complex("cell v 0\ncell a 1\nbnd a v:0\n")
    assert not diags
    assert k == support.circle()


def test_parse_empty_file():
    k, diags = parse_complex("")
    assert k == CellComplex()
    assert diags == []


def test_parse_undeclared_bnd_cell():
    k, diags = parse_complex("cell v 0\nbnd a v:0\n")
    assert k is None
    assert len(diags) == 1
    assert diags[0].line == 2
    assert diags[0].severity == "error"


def test_parse_unknown_directive():
    k, diags = parse_complex("vertex v\n")
    assert k is None and has_errors(diags)


def test_parse_dimension_mismatch_diagnostic():
    text = "cell v 0\ncell f 2\nbnd f v:1\n"
    k, diags = parse_complex(text)
    assert k is None
    assert any("dimension" in d.message for d in diags)


def test_parse_cell_dimension_bound():
    k, diags = parse_complex(f"cell v 0\ncell b {MAX_CELL_DIM}\n")
    assert not diags and k.max_dim == MAX_CELL_DIM
    k, diags = parse_complex(f"cell v 0\ncell b {MAX_CELL_DIM + 1}\n")
    assert k is None
    assert [(d.line, d.severity) for d in diags] == [(2, "error")]
    assert "exceeds the bound" in diags[0].message


def test_parse_accepts_crlf_and_comments():
    text = "# a comment\r\ncell v 0\r\ncell a 1 # trailing\r\n"
    k, diags = parse_complex(text)
    assert not diags
    assert set(k.cells) == {"v", "a"}


def test_parse_bnd_accumulates_degrees():
    text = "cell v 0\ncell w 0\ncell e 1\nbnd e v:1 v:-1 w:1\n"
    k, _ = parse_complex(text)
    assert dict(k.faces("e")) == {"w": 1}


TRIANGLE = "cell a 0\ncell b 0\ncell c 0\ncell ab 1\ncell bc 1\ncell ca 1\n"


@pytest.mark.parametrize("text,cells,pairs", [
    # a cell's faces split over several bnd lines
    (TRIANGLE + "bnd ab a:1\nbnd ab b:1\nbnd bc b:1 c:1\nbnd ca c:1\nbnd ca a:1\n",
     {"a": 0, "b": 0, "c": 0, "ab": 1, "bc": 1, "ca": 1},
     {("ab", "a"): 1, ("ab", "b"): 1, ("bc", "b"): 1, ("bc", "c"): 1,
      ("ca", "c"): 1, ("ca", "a"): 1}),
    # a face repeated in one line, even degrees, and a total that cancels
    ("cell v 0\ncell w 0\ncell e 1\ncell f 2\nbnd e v:1 v:1 w:1 w:-1\nbnd f e:2\n",
     {"v": 0, "w": 0, "e": 1, "f": 2}, {("e", "v"): 2, ("e", "w"): 0, ("f", "e"): 2}),
    # a cell whose every entry cancels, over two lines, beside one that keeps an odd total
    ("bnd loop v:1\ncell v 0\nbnd loop v:-1\ncell x 1\nbnd x v:3\nbnd x v:-2\ncell loop 1\n",
     {"v": 0, "loop": 1, "x": 1}, {("loop", "v"): 0, ("x", "v"): 1}),
    # no face survives anywhere
    ("cell v 0\ncell e 1\nbnd e v:2 v:-2\n", {"v": 0, "e": 1}, {("e", "v"): 0}),
])
def test_parse_equals_the_complex_of_the_summed_entries(text, cells, pairs):
    k, diags = parse_complex(text)
    assert diags == []
    built = CellComplex(cells, pairs)
    assert k == built and dict(k.incidence) == dict(built.incidence)
    assert dict(k.incidence) == {pair: deg for pair, deg in pairs.items() if deg}
    for cid in cells:
        assert dict(k.faces(cid)) == dict(built.faces(cid))
        assert k.cofaces(cid) == built.cofaces(cid)
    for p in range(k.max_dim + 2):
        assert k.boundary_columns(p) == built.boundary_columns(p)
    assert k.validate(include_warnings=True) == built.validate(include_warnings=True)


@pytest.mark.parametrize("text,expected", [
    ("cell v 0\ncell v 1\ncell w\ncell x 0 extra\ncell y one\ncell z -1\ncell u 65\n",
     [(2, "cell 'v' declared twice", "reference"),
      (3, "expected 'cell <id> <dim>', got 'cell w'", "syntax"),
      (4, "expected 'cell <id> <dim>', got 'cell x 0 extra'", "syntax"),
      (5, "dimension 'one' is not an integer", "syntax"),
      (6, "dimension -1 is negative", "syntax"),
      (7, "dimension 65 exceeds the bound 64", "syntax")]),
    ("cell v 0\ncell e 1\nbnd e\nbnd e v\nbnd e :1\nbnd e v:x\nbnd e ghost:1\nbnd ghost v:1\n",
     [(3, "expected 'bnd <id> <face>:<degree> ...', got 'bnd e'", "syntax"),
      (4, "expected '<face>:<degree>', got 'v'", "syntax"),
      (5, "expected '<face>:<degree>', got ':1'", "syntax"),
      (6, "degree 'x' is not an integer", "syntax"),
      (7, "bnd references undeclared face 'ghost'", "reference"),
      (8, "bnd references undeclared cell 'ghost'", "reference")]),
    # every line's own diagnostics come before those of the bnd lines
    ("cell v 0\ncell f 2\nbnd f v:1 v:1 v:-2\nbnd v v:1\nedge e 1\n",
     [(5, "unknown directive 'edge'", "syntax"),
      (3, "face 'v' has dimension 0, expected 1", "reference"),
      (3, "face 'v' has dimension 0, expected 1", "reference"),
      (3, "face 'v' has dimension 0, expected 1", "reference"),
      (4, "face 'v' has dimension 0, expected -1", "reference")]),
    # dimensions that int() reads in another spelling are accepted
    ("bnd e v:1 w:1 # note\ncell e +1\ncell v 00\ncell w 0\ncell t 1_0\nbnd t e:1\n"
     "cell g ٣\nbnd e v:1 v:2:3\n",
     [(6, "face 'e' has dimension 1, expected 9", "reference"),
      (8, "bnd references undeclared face 'v:2'", "reference")]),
])
def test_parse_malformed_complex_diagnostics(text, expected):
    k, diags = parse_complex(text, "k.cw")
    assert k is None
    assert [(d.line, d.message, d.code) for d in diags] == expected
    assert {(d.file, d.severity) for d in diags} == {("k.cw", "error")}


def test_parse_declaration_order_is_free():
    # bnd lines may precede the cells they reference
    text = "bnd e v0:1 v1:1\ncell e 1\ncell v0 0\ncell v1 0\n"
    k, diags = parse_complex(text)
    assert not diags
    assert k == support.interval()


@pytest.mark.parametrize("read", [False, True])
def test_parsed_complex_survives_copy_and_pickle(read):
    """Before and after its face dicts are first built, a complex parsed
    into face rows copies and pickles to an equal complex that reads alike.
    Its second bnd line has degrees not spelled 1, so it keeps them."""
    text = "bnd ab b:1\ncell a 0\ncell b 0\ncell ab 1\nbnd ab a:1 a:-1 a:3\n"
    k, _ = parse_complex(text)
    assert k._rows == [(1, 0, [1], None), (1, 0, [0, 0, 0], {"a": 3})]
    if read:
        assert dict(k.faces("ab")) == {"b": 1, "a": 3}
    assert ("_faces" in vars(k)) == read
    for again in (copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
        assert again == k and again.boundary_columns(1) == k.boundary_columns(1) == (0b11,)
        assert list(again.incidence.items()) == [(("ab", "b"), 1), (("ab", "a"), 3)]
        assert again._rows == k._rows


def test_emit_torus_canonical(torus):
    assert emit_complex(torus) == (
        "cell v 0\ncell a 1\ncell b 1\ncell f 2\nbnd f a:2 b:2\n")


def test_emit_empty():
    assert emit_complex(CellComplex()) == ""


def test_complex_roundtrip_fixture_files(data_dir):
    for name in ("circle.cw", "interval.cw", "two_points.cw", "wedge.cw",
                 "sphere.cw", "torus.cw", "disk3.cw", "square.cw"):
        text = (data_dir / name).read_text()
        k, diags = parse_complex(text, name)
        assert k is not None, (name, diags)
        again, diags2 = parse_complex(emit_complex(k), name)
        assert not diags2
        assert again == k


def test_complex_roundtrip_random():
    rng = random.Random(83)
    for _ in range(25):
        k = support.random_cw_complex(rng)
        again, diags = parse_complex(emit_complex(k))
        assert not diags
        assert again == k
        assert dict(again.incidence) == dict(k.incidence)


def test_builder_roundtrip_preserves_incidence(torus):
    built = support.torus()
    again, _ = parse_complex(emit_complex(built))
    assert dict(again.incidence) == {("f", "a"): 2, ("f", "b"): 2}


def test_fixture_files_match_builders(data_dir):
    pairs = [
        ("circle.cw", support.circle()),
        ("interval.cw", support.interval()),
        ("two_points.cw", support.two_points()),
        ("sphere.cw", support.sphere()),
        ("torus.cw", support.torus()),
        ("disk3.cw", support.disk3()),
        ("square.cw", support.square()),
    ]
    for name, built in pairs:
        parsed, _ = parse_complex((data_dir / name).read_text(), name)
        assert parsed == built, name


# -- descriptor CSV -----------------------------------------------------------


def test_parse_descriptors_disk(data_dir, disk3):
    table, diags = parse_descriptors((data_dir / "disk3_probe.csv").read_text(), disk3)
    assert not diags
    assert ("C-D-E", (0.9,)) in table
    assert len(table) == 15


def test_parse_descriptors_duplicate(circle):
    text = "cell,f1\nv,1.0\nv,2.0\na,0.0\n"
    table, diags = parse_descriptors(text, circle)
    assert table is None
    assert any("duplicate" in d.message for d in diags)


@pytest.mark.parametrize("value", ["apple", "nan", "-inf", "1e999"])
def test_parse_descriptors_non_numeric(circle, value):
    text = f"cell,f1\nv,{value}\na,0.0\n"
    table, diags = parse_descriptors(text, circle)
    assert table is None
    assert any(d.line == 2 and d.code == "syntax" for d in diags)


def test_parse_descriptors_coverage(circle):
    text = "cell,f1\nv,1.0\n"
    table, diags = parse_descriptors(text, circle)
    assert table is None
    assert any(d.code == "coverage" and "a" in d.message for d in diags)


def test_parse_descriptors_unknown_cell(circle):
    text = "cell,f1\nv,1.0\na,2.0\nzz,3.0\n"
    table, diags = parse_descriptors(text, circle)
    assert table is None
    assert any("unknown" in d.message for d in diags)


def test_descriptors_roundtrip(disk3):
    rng = random.Random(89)
    table = support.random_probe_table(rng, disk3, arity=3)
    text = emit_descriptors(table)
    parsed, diags = parse_descriptors(text, disk3)
    assert not diags
    assert parsed == sorted(table)


def test_empty_descriptor_table_roundtrip():
    """The probe of the empty complex, which ``homology`` accepts."""
    empty = CellComplex()
    assert load_probe(emit_descriptors([]), empty) == (ProbeAssignment(empty, {}, 0), [])


def test_load_probe(disk3, data_dir):
    probe, diags = load_probe((data_dir / "disk3_probe.csv").read_text(), disk3)
    assert not diags
    assert probe == support.disk3_probe()


# -- chart file ----------------------------------------------------------------


def test_parsing_a_cover_makes_no_per_row_method_calls(monkeypatch):
    # The benchmark's cover: 24 charts of a 600-cell torus, about 4,100
    # member lines, read against its 600-row probe.
    rng = random.Random(24)
    k = support.grid_surface(10)
    probe = support.random_probe(rng, k, 2, support.decimal_value)
    charts = [make_chart(probe, cells, f"ch{n:02d}")
              for n, cells in enumerate(support.grid_windows(10, (6, 4), 5))]
    charts[3] = with_overrides(charts[3], {min(charts[3].cells): (0.5, 0.25)})
    csv_text, chart_text = emit_descriptors(probe.values.items()), emit_charts(charts, probe)

    def per_row_call(*args):
        raise AssertionError("a method call per row")
    monkeypatch.setattr(CellComplex, "__contains__", per_row_call)
    monkeypatch.setattr(ProbeAssignment, "__getitem__", per_row_call)
    assert load_probe(csv_text, k) == (probe, [])
    assert parse_charts(chart_text, probe) == (charts, [])


def test_parse_charts_ok(data_dir, disk3_probe):
    charts, diags = parse_charts((data_dir / "charts_ok.chart").read_text(), disk3_probe)
    assert not diags
    assert [c.id for c in charts] == ["left", "right"]
    assert charts[0].cells & charts[1].cells == {"B", "B-C", "C"}


def test_parse_charts_override(data_dir, disk3_probe):
    charts, _ = parse_charts((data_dir / "charts_override.chart").read_text(), disk3_probe)
    right = [c for c in charts if c.id == "right"][0]
    assert right.section["C"] == (0.77,)


def test_parse_charts_unknown_member(disk3_probe):
    charts, diags = parse_charts("chart c\nmember nope\n", disk3_probe)
    assert charts is None and has_errors(diags)


def test_parse_charts_member_before_chart(disk3_probe):
    charts, diags = parse_charts("member A\n", disk3_probe)
    assert charts is None and has_errors(diags)


def test_parse_charts_duplicate_id(disk3_probe):
    charts, diags = parse_charts("chart c\nmember A\nchart c\nmember B\n", disk3_probe)
    assert charts is None and has_errors(diags)


def test_parse_charts_override_non_member(disk3_probe):
    charts, diags = parse_charts("chart c\nmember A\noverride B 1.0\n", disk3_probe)
    assert charts is None and has_errors(diags)


def test_parse_charts_repeated_override(disk3_probe):
    text = ("chart c\nmember A\noverride A 1.0\noverride A 2.0\n"
            "chart d\nmember A\noverride A 3.0\n")
    charts, diags = parse_charts(text, disk3_probe, "c.chart")
    assert charts is None
    assert [str(d) for d in diags] == [
        "c.chart:4: error: override for 'A' given twice in chart 'c'"]
    assert diags[0].code == "reference"


def test_charts_roundtrip(disk3_probe):
    c1 = make_chart(disk3_probe, {"A", "B", "C"}, "one")
    c2 = with_overrides(make_chart(disk3_probe, {"B", "C", "D"}, "two"), {"D": (0.5,)})
    text = emit_charts([c2, c1], disk3_probe)
    parsed, diags = parse_charts(text, disk3_probe)
    assert not diags
    assert parsed == [c1, c2]


# -- scenario file ---------------------------------------------------------------


def test_parse_scenario(data_dir):
    sf, diags = parse_scenario((data_dir / "cooling.scenario").read_text())
    assert not diags
    assert sf.complex_path == "square.cw"
    assert sf.steps == ((0.0, "cooling_step1.csv"), (1.0, "cooling_step2.csv"),
                        (2.0, "cooling_step3.csv"))


def test_parse_scenario_missing_complex():
    sf, diags = parse_scenario("step 0.0 a.csv\n")
    assert sf is None and has_errors(diags)


def test_parse_scenario_no_steps():
    sf, diags = parse_scenario("complex k.cw\n")
    assert sf is None and has_errors(diags)


def test_parse_scenario_bad_theta():
    sf, diags = parse_scenario("complex k.cw\nstep pi a.csv\n")
    assert sf is None and has_errors(diags)


@pytest.mark.parametrize("text,lineno", [("complex k\0.cw\nstep 0.0 a.csv\n", 1),
                                         ("complex k.cw\nstep 0.0 a\0b.csv\n", 2)],
                         ids=["complex", "step"])
def test_parse_scenario_nul_in_path(text, lineno):
    """No file path can hold a NUL, and ``open`` raises on one."""
    sf, diags = parse_scenario(text)
    assert sf is None
    assert (lineno, "error", "line holds a NUL character") in [
        (d.line, d.severity, d.message) for d in diags]


def test_scenario_roundtrip():
    sf = ScenarioFile(complex_path="base.cw",
                      steps=((0.0, "s1.csv"), (1.5, "s2.csv")))
    parsed, diags = parse_scenario(emit_scenario(sf))
    assert not diags
    assert parsed == sf


@pytest.mark.parametrize("emit", [
    lambda: emit_scenario(ScenarioFile("k.cw", ((0.0, "a#b.csv"),))),
    lambda: emit_scenario(ScenarioFile("k.cw", ((0.0, " lead.csv"),))),
    lambda: emit_scenario(ScenarioFile("ba#se.cw", ((0.0, "a.csv"),))),
    lambda: emit_scenario(ScenarioFile("k.cw", ((0.0, "a\nb.csv"),))),
    lambda: emit_scenario(ScenarioFile("k\0.cw", ((0.0, "a.csv"),))),
    lambda: emit_charts([Chart("x#y", {"v"}, {"v": (0.5,)}, 1)], POINT_PROBE),
    lambda: emit_charts([Chart("two words", {"v"}, {"v": (0.5,)}, 1)], POINT_PROBE),
    lambda: emit_charts([Chart("", {"v"}, {"v": (0.5,)}, 1)], POINT_PROBE),
    lambda: emit_charts([Chart("c", {"w"}, {"w": (0.5,)}, 1)], POINT_PROBE),
    lambda: emit_charts([Chart("c", set(), {}, 1)], POINT_PROBE),
    lambda: emit_charts([Chart("c", {"v"}, {"v": (0.5,)}, 1)] * 2, POINT_PROBE),
    lambda: emit_charts([Chart("c", {"v"}, {"v": (0.5, 0.25)}, 2)], POINT_PROBE),
    lambda: emit_descriptors([(" a", (0.5,))]),
    lambda: emit_descriptors([("a\nb", (0.5,))]),
    lambda: emit_descriptors([("a,b", (0.5,))]),
    lambda: emit_descriptors([("v", ())]),
    lambda: emit_complex(CellComplex({"a b": 0}, {})),
    lambda: emit_complex(CellComplex({"a": 65}, {})),
    lambda: emit_complex(CellComplex({"e": 1}, {("e", "ghost"): 1})),
    lambda: emit_complex(CellComplex({"v": 0, "f": 2}, {("f", "v"): 1})),
    lambda: emit_signature(PersistenceSignature("remove", 0.0, 0, (0.0,), ((),), (0,),
                                                {(0, (), 0): 1})),
], ids=["step-hash", "step-lead", "complex-hash", "step-newline", "complex-nul",
        "chart-hash", "chart-space", "chart-empty", "chart-unknown-cell", "chart-no-members",
        "chart-id-twice", "chart-arity-2", "cell-lead", "cell-newline", "cell-comma",
        "arity-0-row", "complex-space", "complex-dim-65", "complex-ghost-face",
        "complex-2-0-entry", "arity-0-alpha"])
def test_emitters_refuse_what_their_parsers_cannot_read_back(emit):
    with pytest.raises(ValueError, match="cannot be serialized"):
        emit()


def test_emit_descriptors_refuses_mixed_arities():
    with pytest.raises(ValueError, match=r"^row 'v' has arity 1, expected 2$"):
        emit_descriptors([("u", (0.5, 1.0)), ("v", (0.5,))])


def one_row_signature(delta=0.0, rdim=0, theta=0.0, alpha=(0.5,), dim=0, betti=1):
    return PersistenceSignature("remove", delta, rdim, (theta,), (alpha,), (dim,),
                                {(0, alpha, dim): betti})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("emit,message", [
    (lambda: emit_scenario(ScenarioFile("k.cw", ((NAN, "a.csv"),))), "theta nan"),
    (lambda: emit_scenario(ScenarioFile("k.cw", ((0.0, "a.csv"), (-INF, "b.csv")))),
     "theta -inf"),
    (lambda: emit_descriptors([("v", (INF,))]), "descriptor value inf"),
    (lambda: emit_descriptors([("u", (0.5, 1.0)), ("v", (0.5, NAN))]), "descriptor value nan"),
    (lambda: emit_charts([Chart("c", {"v"}, {"v": (NAN,)}, 1)], POINT_PROBE),
     "override value nan"),
    (lambda: emit_signature(one_row_signature(theta=INF)), "theta inf"),
    (lambda: emit_signature(one_row_signature(alpha=(0.5, -INF))), "alpha value -inf"),
    (lambda: emit_signature(one_row_signature(delta=NAN)), "delta nan"),
    (lambda: emit_signature(one_row_signature(delta=-0.5)), "delta -0.5"),
    (lambda: emit_signature(one_row_signature(rdim=-1)), "dimension -1"),
    (lambda: emit_signature(one_row_signature(dim=-2)), "dimension -2"),
    (lambda: emit_signature(one_row_signature(betti=-1)), "betti -1"),
], ids=["scenario-nan-theta", "scenario-inf-theta", "descriptor-inf", "descriptor-nan",
        "override-nan", "signature-theta", "signature-alpha", "signature-nan-delta",
        "signature-negative-delta", "signature-rdim", "signature-dim", "signature-betti"])
def test_emitters_refuse_numbers_their_parsers_reject(emit, message):
    with pytest.raises(ValueError, match=f"^{message} cannot be serialized$"):
        emit()


def test_load_scenario(data_dir):
    scen, diags = load_scenario(str(data_dir / "cooling.scenario"))
    assert not diags
    assert scen is not None
    assert scen.complex == support.square()
    assert scen.thetas == (0.0, 1.0, 2.0)


def test_load_scenario_unreadable_step(data_dir):
    scen, diags = load_scenario(str(data_dir / "bad_step.scenario"))
    assert scen is None
    assert any(d.code == "io" and "does_not_exist.csv" in d.file for d in diags)


@pytest.mark.parametrize("name", ["x.scenario", "k.cw", "s0.csv"])
def test_load_scenario_decode_error_offset_counts_the_byte_order_mark(tmp_path, data_dir,
                                                                       name):
    """The offset counts from the first byte of the file, the mark's three
    bytes included. A referenced file is named by its path from the
    working directory."""
    path = write_scenario(tmp_path, data_dir,
                          [(0.0, emit_descriptors(support.square_step_table(0.5)))])
    (tmp_path / name).write_bytes(b"\xef\xbb\xbf#2345678\n\xff\n")
    scenario, diags = load_scenario(path)
    assert scenario is None
    assert [(d.file, d.line, d.code, d.message) for d in diags] == [
        (str(tmp_path / name), 0, "io", "not UTF-8 text (invalid start byte at byte 12)")]



# -- reading files ---------------------------------------------------------------


def read_bytes(tmp_path, data):
    """``read_text`` on a file that holds ``data``."""
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    return read_text(str(path))


def test_read_text_drops_a_leading_byte_order_mark(tmp_path):
    assert read_bytes(tmp_path, b"\xef\xbb\xbfchart a\r\n") == "chart a\n"
    # A mark anywhere else is text.
    assert read_bytes(tmp_path, b"a\xef\xbb\xbf\n") == "a\ufeff\n"


@pytest.mark.parametrize("data,text", [
    (b"a\r\nb\r\n", "a\nb\n"),
    (b"a\rb\r", "a\nb\n"),
    # CR LF is one break, LF CR two.
    (b"a\r\r\nb\n\rc\r", "a\n\nb\n\nc\n"),
])
def test_read_text_makes_every_line_break_lf(tmp_path, data, text):
    assert read_bytes(tmp_path, data) == text


def test_read_text_returns_a_text_without_cr_as_it_is(tmp_path):
    text = "chart a\n\tmember v\x0b\x1f # \u00e9\u2028\x85\n\n"
    assert read_bytes(tmp_path, text.encode()) == text

# -- signature CSV ----------------------------------------------------------------


def test_signature_roundtrip():
    sig = signature(cooling_scenario(), 0.0, "remove", max_p=2)
    parsed, diags = parse_signature(emit_signature(sig))
    assert not diags
    assert parsed == sig


def test_signature_missing_metadata():
    text = "theta,alpha,dim,betti\n0.0,1.0,0,1\n"
    parsed, diags = parse_signature(text)
    assert parsed is None and has_errors(diags)


def test_signature_malformed_row():
    text = "# mode remove\n# delta 0.0\n# rdim 2\ntheta,alpha,dim,betti\n0.0,x,0,1\n"
    parsed, diags = parse_signature(text)
    assert parsed is None


SIGNATURE_HEAD = "# mode remove\n# delta 0.0\n# rdim 2\ntheta,alpha,dim,betti\n"


@pytest.mark.parametrize("row,message", [
    ("nan,1.0,0,1", "non-finite value in row 'nan,1.0,0,1'"),
    ("-inf,1.0,0,1", "non-finite value in row '-inf,1.0,0,1'"),
    ("0.0,1.0;inf,0,1", "non-finite value in row '0.0,1.0;inf,0,1'"),
    ("0.0,1e999,0,1", "non-finite value in row '0.0,1e999,0,1'"),
    ("0.0,1.0,-3,1", "negative dimension -3"),
    ("nan,inf,-3,1", "non-finite value in row 'nan,inf,-3,1'"),
    ("0.0,1.0,0", "expected 4 fields, got 3"),
    ("0.0,1.0,0,-2", "negative betti -2"),
])
def test_signature_rejects_non_finite_and_negative_values(row, message):
    parsed, diags = parse_signature(SIGNATURE_HEAD + "0.0,1.0,0,1\n" + row + "\n", "s.csv")
    assert parsed is None
    assert [(d.line, d.code, d.message) for d in diags] == [(6, "syntax", message)]


@pytest.mark.parametrize("head,messages", [
    ("# mode remove\n# delta nan\n# rdim 2\n", ["delta must be non-negative, got nan"]),
    ("# mode remove\n# delta -0.25\n# rdim 2\n", ["delta must be non-negative, got -0.25"]),
    ("# mode remove\n# delta 0.0\n# rdim -4\n", ["rdim must be non-negative, got -4"]),
    ("# mode sideways\n# delta 0.0\n# rdim 2\n",
     ["mode must be 'remove' or 'retain', got 'sideways'"]),
    ("# mode up\n# delta -inf\n# rdim -1\n",
     ["mode must be 'remove' or 'retain', got 'up'", "delta must be non-negative, got -inf",
      "rdim must be non-negative, got -1"]),
])
def test_signature_rejects_bad_metadata(head, messages):
    parsed, diags = parse_signature(head + "theta,alpha,dim,betti\n0.0,1.0,0,1\n", "s.csv")
    assert parsed is None
    assert [(d.line, d.code, d.message) for d in diags] == [(0, "syntax", m) for m in messages]


def test_signature_accepts_signed_zero_and_infinite_delta():
    for delta in ("-0.0", "inf"):
        text = f"# mode retain\n# delta {delta}\n# rdim 0\ntheta,alpha,dim,betti\n0.0,1.0,0,1\n"
        parsed, diags = parse_signature(text)
        assert not diags and parsed.delta == float(delta)
        assert emit_signature(parsed) == text


def test_signature_without_rows_round_trips():
    # No 2-cells, so no alphas at the default removal dimension.
    k = from_simplices([("a", "b"), ("b", "c")])
    table = [(cid, (0.5,)) for cid in k.cells]
    sig = signature(build_scenario(k, [(0.0, table), (1.0, table)]))
    assert len(sig) == 0 and sig.thetas == (0.0, 1.0) and sig.dims == (0, 1)
    text = emit_signature(sig)
    assert text == SIGNATURE_HEAD.replace(
        "theta", "# thetas 0.0;1.0\n# dims 0;1\ntheta")
    parsed, diags = parse_signature(text)
    assert not diags and parsed == sig and compare_signatures(parsed, sig) == 0


@pytest.mark.parametrize("lines,rows,message", [
    ("# thetas 0.0;nan\n", "", "thetas must be finite, got 0.0;nan"),
    ("# dims 0;-1\n", "", "dims must be non-negative, got 0;-1"),
    ("# dims 0;x\n", "", "malformed metadata values"),
    ("# dims 0\n", "0.0,1.0,0,1\n", "'# thetas' and '# dims' belong to a signature with no rows"),
    ("", "0.0,1.0,0,1\n0.0,1.0,0,2\n", "duplicate row for theta 0.0, alpha (1.0,), dim 0"),
])
def test_signature_rejects_bad_listed_thetas_and_dims(lines, rows, message):
    parsed, diags = parse_signature(SIGNATURE_HEAD.replace("theta", lines + "theta") + rows)
    assert parsed is None
    assert [(d.line, d.message) for d in diags] == [(0, message)]


def test_signature_rejects_ragged_table():
    text = ("# mode remove\n# delta 0.0\n# rdim 2\n"
            "theta,alpha,dim,betti\n"
            "0.0,1.0,0,1\n"
            "1.0,2.0,0,1\n")
    parsed, diags = parse_signature(text)
    assert parsed is None
    assert any("rectangular" in d.message for d in diags)


def test_signature_golden_file_parses(data_dir):
    text = (data_dir / "golden_cooling_signature.csv").read_text()
    parsed, diags = parse_signature(text)
    assert not diags
    assert len(parsed) == 36
    assert emit_signature(parsed) == text


def test_curve_export():
    sig = signature(cooling_scenario(), 0.0, "remove", max_p=2)
    curves = emit_curves(sig)
    assert len(curves) == 4 * 3
    red = curves["curve_0.75;0.75_dim1.csv"]
    assert red == "theta,betti\n0.0,1\n1.0,0\n2.0,0\n"


# -- hostile ingest corpus ---------------------------------------------------------
#
# Texts with several defects each; every diagnostic is pinned with its line,
# code, message and position in the list.

HOSTILE_CHARTS = [
    ('member A\n'
     'chart a\n'
     'member A\n'
     'member A\n'
     'member nope\n'
     'override A 1.0 2.0\n'
     'override B x\n'
     'override C nan\n'
     'chart a\n'
     'chart b c\n'
     'bogus line\n'
     'chart empty\n'
     'override Z 1.0\n'
     'chart d\n'
     'member B\n'
     'override C 0.5\n',
     [
         (1, 'syntax', 'member line before any chart declaration'),
         (4, 'reference', "cell 'A' listed twice in chart 'a'"),
         (5, 'reference', "unknown cell 'nope'"),
         (6, 'syntax', "expected 'override <cell>' plus 1 values, got 'override A 1.0 2.0'"),
         (7, 'syntax', "non-numeric override value in 'override B x'"),
         (8, 'syntax', "non-finite override value in 'override C nan'"),
         (9, 'reference', "chart 'a' declared twice"),
         (10, 'syntax', "expected 'chart <id>', got 'chart b c'"),
         (11, 'syntax', "unknown directive 'bogus'"),
         (12, 'reference', "chart 'empty' has no members"),
         (16, 'reference', "override for 'C', which is not a member of 'd'"),
     ]),
    ('# header comment\r\n'
     'override A 1.0\r\n'
     'chart x # trailing\r\n'
     'member\tA\r\n'
     'member A B\r\n'
     'override A\r\n'
     'override A inf\r\n'
     'override A -1e999\r\n'
     '\r\n'
     'chart y\r\n'
     'member A-B\r\n'
     'member A-B\r\n'
     'override A-B 1e999\r\n'
     'override E 0.25\r\n'
     'chart\r\n',
     [
         (2, 'syntax', 'override line before any chart declaration'),
         (5, 'syntax', "expected 'member <cell>', got 'member A B'"),
         (6, 'syntax', "expected 'override <cell>' plus 1 values, got 'override A'"),
         (7, 'syntax', "non-finite override value in 'override A inf'"),
         (8, 'syntax', "non-finite override value in 'override A -1e999'"),
         (12, 'reference', "cell 'A-B' listed twice in chart 'y'"),
         (13, 'syntax', "non-finite override value in 'override A-B 1e999'"),
         (15, 'syntax', "expected 'chart <id>', got 'chart'"),
         (14, 'reference', "override for 'E', which is not a member of 'y'"),
     ]),
    ('chart p\n'
     'override B 0.5\n'
     'override D 0.5\n'
     'member B\n'
     'chart q\n'
     'chart r\n'
     'member C\n'
     'member Q\n'
     'override C 0x1p-2\n'
     'chart p\n'
     'member D\n',
     [
         (8, 'reference', "unknown cell 'Q'"),
         (9, 'syntax', "non-numeric override value in 'override C 0x1p-2'"),
         (10, 'reference', "chart 'p' declared twice"),
         (11, 'syntax', 'member line before any chart declaration'),
         (3, 'reference', "override for 'D', which is not a member of 'p'"),
         (5, 'reference', "chart 'q' has no members"),
     ]),
]

HOSTILE_DESCRIPTORS = [
    ('cell,f1\n'
     'A,0.0\n'
     'A,1.0\n'
     'zz,1.0\n'
     'B,1.0,2.0\n'
     'C,apple\n'
     'D,nan\n'
     'E,-inf\n'
     'A-B,1e999\n'
     '\n'
     'A-C , 0.5 \n',
     [
         (3, 'reference', "duplicate row for cell 'A'"),
         (4, 'reference', "unknown cell 'zz'"),
         (5, 'syntax', 'expected 2 fields, got 3'),
         (6, 'syntax', "non-numeric descriptor value in 'C,apple'"),
         (7, 'syntax', "non-finite descriptor value in 'D,nan'"),
         (8, 'syntax', "non-finite descriptor value in 'E,-inf'"),
         (9, 'syntax', "non-finite descriptor value in 'A-B,1e999'"),
         (0, 'coverage', 'cells without descriptors: A-B, A-B-C, B, B-C, B-C-E, B-E, '
                         'C, C-D, C-D-E, C-E, D, D-E, E'),
     ]),
    ('cell,f1,f2\r\n'
     'A,1,2\r\n'
     'B,1\r\n'
     'C,1,2,3\r\n'
     ',1,2\r\n'
     'A-B,1_0,0x1p-2\r\n'
     'A-C,1,\r\n'
     'B-C,Infinity,0\r\n',
     [
         (3, 'syntax', 'expected 3 fields, got 2'),
         (4, 'syntax', 'expected 3 fields, got 4'),
         (5, 'reference', "unknown cell ''"),
         (6, 'syntax', "non-numeric descriptor value in 'A-B,1_0,0x1p-2'"),
         (7, 'syntax', "non-numeric descriptor value in 'A-C,1,'"),
         (8, 'syntax', "non-finite descriptor value in 'B-C,Infinity,0'"),
         (0, 'coverage', 'cells without descriptors: A-B, A-B-C, A-C, B, B-C, B-C-E, '
                         'B-E, C, C-D, C-D-E, C-E, D, D-E, E'),
     ]),
    ('cell\n'
     'A\n',
     [
         (1, 'syntax', "header must be 'cell,f1,...,fn', got 'cell'"),
     ]),
    ('id,f1\n'
     'A,1\n',
     [
         (1, 'syntax', "header must be 'cell,f1,...,fn', got 'id,f1'"),
     ]),
]



@pytest.mark.parametrize("text,expected", HOSTILE_CHARTS)
def test_hostile_charts_diagnostics(disk3_probe, text, expected):
    charts, diags = parse_charts(text, disk3_probe, "h.chart")
    assert charts is None
    assert all(d.file == "h.chart" and d.severity == "error" for d in diags)
    assert [(d.line, d.code, d.message) for d in diags] == expected


@pytest.mark.parametrize("text,expected", HOSTILE_DESCRIPTORS)
def test_hostile_descriptors_diagnostics(disk3, text, expected):
    table, diags = parse_descriptors(text, disk3, "h.csv")
    assert table is None
    assert all(d.file == "h.csv" and d.severity == "error" for d in diags)
    assert [(d.line, d.code, d.message) for d in diags] == expected
    assert load_probe(text, disk3, "h.csv") == (None, diags)


# -- each input is checked once ------------------------------------------------------


def write_scenario(tmp_path, data_dir, steps):
    (tmp_path / "k.cw").write_text((data_dir / "square.cw").read_text())
    lines = ["complex k.cw"]
    for i, (theta, csv_text) in enumerate(steps):
        (tmp_path / f"s{i}.csv").write_text(csv_text)
        lines.append(f"step {theta} s{i}.csv")
    (tmp_path / "x.scenario").write_text("\n".join(lines) + "\n")
    return str(tmp_path / "x.scenario")


@pytest.mark.parametrize("steps,message", [
    ([(1.0, 2), (1.0, 2)], "theta 1.0 does not increase past 1.0"),
    ([(1.0, 2), (0.5, 2), (2.0, 1)], "theta 0.5 does not increase past 1.0"),
    ([(0.0, 2), (1.0, 1)], "step at theta 1.0 has arity 1, expected 2"),
])
def test_load_scenario_reports_scenario_invariants(tmp_path, data_dir, steps, message):
    square = support.square()
    csv = {2: emit_descriptors(support.square_step_table(0.5)),
           1: emit_descriptors((cid, (0.5,)) for cid in square.cells)}
    path = write_scenario(tmp_path, data_dir, [(theta, csv[arity]) for theta, arity in steps])
    scenario, diags = load_scenario(path)
    assert scenario is None
    assert [str(d) for d in diags] == [f"{path}:0: error: {message}"]
    assert diags[0].code == "reference"


def test_parsers_do_not_call_the_checking_constructors(monkeypatch, data_dir, disk3,
                                                       disk3_probe):
    """parse_charts builds charts without make_chart or with_overrides, and
    load_probe and load_scenario build probes without assign_probe."""
    import descell
    from descell import bundle, descriptive, formats, persistence

    calls = []
    for name in ("make_chart", "with_overrides", "assign_probe", "build_scenario"):
        for module in (descell, bundle, descriptive, formats, persistence):
            real = getattr(module, name, None)
            if real is not None:
                def spy(*args, _real=real, _name=name, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)
                monkeypatch.setattr(module, name, spy)

    charts, _ = parse_charts((data_dir / "charts_override.chart").read_text(), disk3_probe)
    assert len(charts) == 2
    probe, _ = load_probe((data_dir / "disk3_probe.csv").read_text(), disk3)
    assert probe == disk3_probe
    scenario, _ = load_scenario(str(data_dir / "cooling.scenario"))
    assert scenario.thetas == (0.0, 1.0, 2.0)
    assert calls == []


def test_parsed_artifacts_equal_the_checked_constructions(data_dir, disk3, disk3_probe):
    charts, _ = parse_charts((data_dir / "charts_override.chart").read_text(), disk3_probe)
    left, right = charts
    assert left == make_chart(disk3_probe, left.cells, "left")
    assert right == with_overrides(make_chart(disk3_probe, right.cells, "right"),
                                   {"C": (0.77,)})
    scenario, _ = load_scenario(str(data_dir / "cooling.scenario"))
    tables = [(theta, parse_descriptors((data_dir / name).read_text(), support.square())[0])
              for theta, name in ((0.0, "cooling_step1.csv"), (1.0, "cooling_step2.csv"),
                                  (2.0, "cooling_step3.csv"))]
    assert scenario == build_scenario(support.square(), tables)
