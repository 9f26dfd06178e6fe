import argparse
import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import support
from descell import (
    CellComplex,
    Chart,
    DescriptorBall,
    DimensionHomology,
    HomologyResult,
    alpha_spectrum,
    assign_probe,
    derive_subcomplex,
    homology,
    oracle_homology,
)
from descell import formats
from descell.cli import _join_alpha, _read_argv, build_parser, main
from descell.errors import DescellError
from descell.formats import emit_complex, emit_descriptors, load_probe, parse_complex

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"


def run_cli(*args):
    """Run the CLI in a fresh interpreter; returns (exit, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "descell", *args],
        capture_output=True, text=False, env=env, cwd=str(DATA))
    return proc.returncode, proc.stdout, proc.stderr


# -- validate ----------------------------------------------------------------


def test_validate_ok(capsys):
    assert main(["validate", str(DATA / "torus.cw")]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_validate_broken(capsys):
    assert main(["validate", str(DATA / "broken_dd.cw")]) == 1
    out = capsys.readouterr().out
    assert "composite-odd" in out
    assert len(out.strip().splitlines()) == 2


def test_validate_missing_file(capsys):
    path = DATA / "no_such.cw"
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"{path}:0: error: [Errno 2] No such file or directory: '{path}'\n")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["homology"])
    assert exc.value.code == 2


# -- homology -----------------------------------------------------------------


def test_homology_torus(capsys):
    assert main(["homology", str(DATA / "torus.cw")]) == 0
    out = capsys.readouterr().out
    assert out.endswith("betti 1 2 1\n")


def test_homology_oracle_agrees(capsys):
    assert main(["homology", str(DATA / "sphere.cw"), "--oracle"]) == 0
    assert capsys.readouterr().out.endswith("betti 1 0 1\n")


def test_homology_oracle_disagreement(monkeypatch, capsys):
    """An oracle whose boundary rank at dimension 1 is off by one: the
    first dimension whose ranks differ is reported, and nothing printed."""
    def wrong_oracle(complex, max_cells):
        records = list(oracle_homology(complex, max_cells=max_cells).records)
        d1 = records[1]
        records[1] = DimensionHomology(d1.dim, d1.n_cells, d1.cycle_rank,
                                       d1.boundary_rank + 1, d1.betti)
        return HomologyResult(tuple(records))

    monkeypatch.setattr("descell.cli.oracle_homology", wrong_oracle)
    assert main(["homology", str(DATA / "torus.cw"), "--oracle"]) == 1
    assert capsys.readouterr() == ("", (
        "descell: error: oracle disagreement at dim 1: engine (z=2, b=0, betti=2) "
        "vs oracle (z=2, b=1, betti=2)\n"))


def test_homology_max_dim_zero(capsys):
    assert main(["homology", str(DATA / "torus.cw"), "--max-dim", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "dim 0 cells 1 cycle_rank 1 boundary_rank 0 betti 1\nbetti 1\n"


def test_homology_max_dim_at_cell_dimension_bound(capsys):
    assert main(["homology", str(DATA / "torus.cw"), "--max-dim", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 66
    assert lines[-2] == "dim 64 cells 0 cycle_rank 0 boundary_rank 0 betti 0"


def test_homology_generators(capsys):
    assert main(["homology", str(DATA / "circle.cw"), "--generators"]) == 0
    assert "gen 1 a" in capsys.readouterr().out


def test_homology_invalid_complex(capsys):
    assert main(["homology", str(DATA / "broken_dd.cw")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "composite-odd [f v0] composite boundary coefficient 1 is odd\n"
        "composite-odd [f v1] composite boundary coefficient 1 is odd\n"
        "descell: error: complex is invalid\n")


def test_homology_oracle_bound_failure(capsys):
    # disk3 has 15 cells; the default enumeration bound is 14
    code = main(["homology", str(DATA / "disk3.cw"), "--oracle"])
    assert code == 1
    assert "enumeration bound" in capsys.readouterr().err


# -- descriptive ---------------------------------------------------------------


def test_descriptive_red_alpha(capsys):
    code = main(["descriptive", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"),
                 "--alpha", "0.9", "--delta", "0", "--dim", "2",
                 "--mode", "remove"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "alpha 0.9 cells 14 betti 1 1 0\n"


def test_descriptive_spectrum(capsys):
    code = main(["descriptive", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"), "--spectrum"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("alpha 0.2 ")


def test_descriptive_retain_large_delta(capsys):
    code = main(["descriptive", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"),
                 "--alpha", "0.5", "--delta", "99", "--mode", "retain"])
    assert code == 0
    assert capsys.readouterr().out == "alpha 0.5 cells 15 betti 1 0 0\n"


def test_descriptive_removal_dimension_far_above_the_top(capsys):
    """A removal dimension above the top removes nothing, however large."""
    for dim in ("3", "1000000000000"):
        assert main(["descriptive", str(DATA / "disk3.cw"),
                     "--probe", str(DATA / "disk3_probe.csv"),
                     "--alpha", "0.5", "--dim", dim]) == 0
        assert capsys.readouterr().out == "alpha 0.5 cells 15 betti 1 0 0\n"


@pytest.mark.parametrize("args,expected", [
    (("--spectrum",),
     "alpha 0.2 cells 14 betti 1 1 0\nalpha 0.5 cells 14 betti 1 1 0\n"
     "alpha 0.9 cells 14 betti 1 1 0\n"),
    (("--spectrum", "--mode", "retain"),
     "alpha 0.2 cells 13 betti 1 2 0\nalpha 0.5 cells 13 betti 1 2 0\n"
     "alpha 0.9 cells 13 betti 1 2 0\n"),
    (("--alpha", "0.5", "--delta", "0.25"), "alpha 0.5 cells 14 betti 1 1 0\n"),
    (("--alpha", "0.5", "--delta", "0.25", "--mode", "retain"),
     "alpha 0.5 cells 13 betti 1 2 0\n"),
    (("--spectrum", "--dim", "1", "--delta", "0.3"), "alpha 0.0 cells 5 betti 5 0 0\n"),
    (("--spectrum", "--dim", "1", "--delta", "0.3", "--mode", "retain"),
     "alpha 0.0 cells 15 betti 1 0 0\n"),
], ids=" ".join)
def test_descriptive_disk3_output(args, expected, capsys):
    assert main(["descriptive", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"), *args]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("mode,expected", [
    ("remove", "alpha 0.0 cells 6 betti 1 3 2 0\nalpha 0.5 cells 6 betti 1 3 2 0\n"
               "alpha 1.0 cells 7 betti 1 3 2 1\n"),
    ("retain", "alpha 0.0 cells 5 betti 1 3 1 0\nalpha 0.5 cells 5 betti 1 3 1 0\n"
               "alpha 1.0 cells 5 betti 1 3 1 0\n"),
])
def test_descriptive_torus_x_circle_cascades_to_the_3_cell(mode, expected, capsys):
    """The 3-cell f*a has the triangles a*a and b*a as faces, so the cascade
    removes it with either; the cell counts come from the removed masks."""
    args = ["descriptive", str(DATA / "torus_x_circle.cw"), "--probe",
            str(DATA / "torus_x_circle_probe.csv"), "--spectrum", "--dim", "2",
            "--delta", "0.25", "--mode", mode]
    assert main(args) == 0
    assert capsys.readouterr().out == expected
    base, _ = parse_complex((DATA / "torus_x_circle.cw").read_text())
    probe, _ = load_probe((DATA / "torus_x_circle_probe.csv").read_text(), base)
    assert _descriptive_reference(base, probe, 0.25, 2, mode) == (0, expected)


def test_descriptive_spectrum_prints_the_first_signed_zero(tmp_path, capsys):
    """-0.0 and 0.0 are one descriptor value; the spectrum prints the one
    the first cell, in id order, holds."""
    edges = {"A-B": "-0.0", "A-C": "0.0", "B-C": "0.5", "B-E": "0.0",
             "C-D": "-0.0", "C-E": "0.5", "D-E": "0.0"}
    rows = (line.split(",") for line in (DATA / "disk3_probe.csv").read_text().splitlines()[1:])
    probe = tmp_path / "p.csv"
    probe.write_text("cell,f1\n" + "".join(f"{c},{edges.get(c, v)}\n" for c, v in rows))
    for mode, expected in (
            ("remove", "alpha -0.0 cells 7 betti 3 0 0\nalpha 0.5 cells 10 betti 1 1 0\n"),
            ("retain", "alpha -0.0 cells 10 betti 1 1 0\nalpha 0.5 cells 7 betti 3 0 0\n")):
        assert main(["descriptive", str(DATA / "disk3.cw"), "--probe", str(probe),
                     "--spectrum", "--dim", "1", "--mode", mode]) == 0
        assert capsys.readouterr().out == expected


def _descriptive_reference(base, probe, delta, dim, mode):
    """``descell descriptive --spectrum`` stdout computed the direct way:
    build each sub-complex and run ``homology`` on it."""
    if base.validate():
        return 1, ""
    lines = []
    for alpha in alpha_spectrum(probe, dim):
        sub = derive_subcomplex(probe, DescriptorBall(alpha, delta), dim, mode)
        betti = " ".join(str(b) for b in homology(sub.complex, base.max_dim).betti_vector())
        lines.append(f"alpha {';'.join(repr(v) for v in alpha)} "
                     f"cells {len(sub.complex)} betti {betti}\n")
    return 0, "".join(lines)


def test_descriptive_matches_per_alpha_homology(tmp_path, capsys):
    rng = random.Random(53)
    for i in range(120):
        base = (support.random_cw_complex(rng) if i % 2
                else support.random_simplicial_complex(rng, max_vertices=7))
        if i % 3 == 0:
            # an even degree on a 2- or 3-cell's odd face can leave a composite-odd defect
            incidence = dict(base.incidence)
            odd = sorted(key for key, deg in incidence.items()
                         if deg % 2 and base.dim_of(key[0]) > 1)
            if odd:
                incidence[rng.choice(odd)] = 2
                base = CellComplex(base.cells, incidence)
        table = support.random_probe_table(rng, base, arity=rng.choice((1, 2)),
                                           value=lambda r: r.randrange(0, 4) / 4)
        (tmp_path / "k.cw").write_text(emit_complex(base))
        (tmp_path / "p.csv").write_text(emit_descriptors(table))
        probe = assign_probe(base, table)
        delta, dim = rng.choice((0.0, 0.3)), rng.randrange(3)
        mode = rng.choice(("remove", "retain"))
        code = main(["descriptive", str(tmp_path / "k.cw"), "--probe", str(tmp_path / "p.csv"),
                     "--spectrum", "--delta", str(delta), "--dim", str(dim), "--mode", mode])
        assert (code, capsys.readouterr().out) == _descriptive_reference(
            base, probe, delta, dim, mode)


def test_descriptive_invalid_complex(tmp_path, capsys):
    probe = tmp_path / "p.csv"
    probe.write_text("cell,f1\nv0,0\nv1,0\na,0\nf,1\n")
    assert main(["descriptive", str(DATA / "broken_dd.cw"), "--probe", str(probe),
                 "--spectrum"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "descell: error: complex is invalid\n")


def test_descriptive_spectrum_validates_once(monkeypatch, capsys):
    calls = []
    validate = CellComplex.validate
    monkeypatch.setattr(CellComplex, "validate",
                        lambda self, *a: calls.append(1) or validate(self, *a))
    assert main(["descriptive", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"), "--spectrum"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("option", ["--alpha", "--a", "--alp", "--alph"])
@pytest.mark.parametrize("complex,probe,alpha,expected", [
    ("square.cw", "cooling_step1.csv", "-0.5;0.25", "alpha -0.5;0.25 cells 11 betti 1 0 0\n"),
    ("disk3.cw", "disk3_probe.csv", "-1e-3", "alpha -0.001 cells 15 betti 1 0 0\n"),
], ids=["square", "disk3"])
def test_descriptive_negative_alpha_separate_or_joined(complex, probe, alpha, expected, option,
                                                       capsys):
    """An alpha that starts with '-' and is not a plain number may follow
    --alpha, or a prefix of it that argparse expands to it, as a separate
    value, as well as after '='."""
    head = ["descriptive", str(DATA / complex), "--probe", str(DATA / probe)]
    assert main([*head, f"--alpha={alpha}"]) == 0
    assert capsys.readouterr() == (expected, "")
    assert main([*head, option, alpha]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("option", ["--alpha", "--alp"])
@pytest.mark.parametrize("follower", ["--spectrum", "-h"])
def test_descriptive_alpha_before_an_option_lacks_its_value(option, follower, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["descriptive", DISK, "--probe", PROBE, option, follower])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "descell descriptive: error: argument --alpha: expected one argument\n")


def test_descriptive_malformed_alpha(capsys):
    code = main(["descriptive", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"), "--alpha", "red"])
    assert code == 2


def test_descriptive_coverage_failure(tmp_path, capsys):
    probe = tmp_path / "short.csv"
    probe.write_text("cell,f1\nA,0.1\n")
    code = main(["descriptive", str(DATA / "disk3.cw"),
                 "--probe", str(probe), "--alpha", "0.1"])
    assert code == 1


# -- gauge ------------------------------------------------------------------------


def test_gauge_clean(capsys):
    code = main(["gauge", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"),
                 "--charts", str(DATA / "charts_ok.chart")])
    assert code == 0
    assert capsys.readouterr().out == "OK\n"


def test_gauge_override_one_violation(capsys):
    code = main(["gauge", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"),
                 "--charts", str(DATA / "charts_override.chart")])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert "trivialization" in lines[0] and "cell C" in lines[0]


def test_gauge_tolerance_absorbs_override(capsys):
    code = main(["gauge", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"),
                 "--charts", str(DATA / "charts_override.chart"),
                 "--tolerance", "1.0"])
    assert code == 0


def test_gauge_bad_chart_file(tmp_path):
    charts = tmp_path / "bad.chart"
    charts.write_text("member A\n")
    code = main(["gauge", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"),
                 "--charts", str(charts)])
    assert code == 2


@pytest.mark.parametrize("text", ["", "# no charts here\n\n"], ids=["empty", "comment_only"])
def test_gauge_chart_file_with_no_charts(tmp_path, capsys, text):
    charts = tmp_path / "none.chart"
    charts.write_text(text)
    code = main(["gauge", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"),
                 "--charts", str(charts)])
    assert code == 2
    assert capsys.readouterr() == ("", "descell: error: chart file declares no charts\n")


def test_gauge_single_chart(tmp_path, capsys):
    charts = tmp_path / "one.chart"
    charts.write_text("chart only\nmember A\nmember B\n")
    code = main(["gauge", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"),
                 "--charts", str(charts)])
    assert code == 0
    assert capsys.readouterr().out == "OK\n"


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    """Spreadsheet CSV exports and some editors start a file with one."""
    names = ("disk3.cw", "disk3_probe.csv", "charts_override.chart", "cooling.scenario",
             "square.cw", "cooling_step1.csv", "cooling_step2.csv", "cooling_step3.csv")
    for name in names:
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
    for args in (["validate", "disk3.cw"],
                 ["homology", "disk3.cw", "--generators"],
                 ["descriptive", "disk3.cw", "--probe", "disk3_probe.csv", "--spectrum"],
                 ["gauge", "disk3.cw", "--probe", "disk3_probe.csv",
                  "--charts", "charts_override.chart"],
                 ["persist", "cooling.scenario"]):
        outcomes = []
        for folder in (DATA, tmp_path):
            code = main([str(folder / a) if a in names else a for a in args])
            outcomes.append((code, capsys.readouterr()))
        assert outcomes[0] == outcomes[1] and outcomes[0][1].err == ""


def test_decode_error_offset_counts_the_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.cw"
    path.write_bytes(b"\xef\xbb\xbfcell v 0\n\xff\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"{path}:0: error: not UTF-8 text (invalid start byte at byte 12)\n")


def test_a_file_that_is_not_utf8_is_worded_alike_wherever_it_is_named(tmp_path, capsys):
    """Named on the command line (a parse error, exit 2) or by a scenario
    (a scenario error, exit 1), a complex that is not UTF-8 gets the same
    diagnostic line."""
    scen = copy_cooling(tmp_path / "scen")
    path = scen / "square.cw"
    path.write_bytes(b"cell v 0\n\xff\n")
    line = f"{path}:0: error: not UTF-8 text (invalid start byte at byte 9)\n"
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", line)
    assert main(["persist", str(scen / "cooling.scenario")]) == 1
    assert capsys.readouterr() == ("", line)


def test_gauge_never_compiles_the_complex_and_homology_once(monkeypatch, capsys):
    compiled = CellComplex.__dict__["_compiled"]
    build, built = compiled.func, []
    monkeypatch.setattr(compiled, "func", lambda k: built.append(k) or build(k))
    assert main(["gauge", str(DATA / "disk3.cw"), "--probe", str(DATA / "disk3_probe.csv"),
                 "--charts", str(DATA / "charts_override.chart")]) == 1
    assert built == []
    assert main(["homology", str(DATA / "torus.cw"), "--generators"]) == 0
    assert len(built) == 1
    capsys.readouterr()


@pytest.mark.parametrize("name", ["charts_override.chart", "charts_ok.chart"])
def test_gauge_builds_no_chart(monkeypatch, capsys, name):
    """``gauge`` checks a chart file as the probe plus its override lines,
    whether the file is taken whole (no comment) or walked line by line
    (a comment): no section is built, and no ``Chart``."""
    calls = []
    real_of, real_init = Chart._of.__func__, Chart.__init__
    monkeypatch.setattr(Chart, "_of", classmethod(
        lambda cls, *args: calls.append("_of") or real_of(cls, *args)))
    monkeypatch.setattr(Chart, "__init__", lambda self, *args, **kwargs:
                        calls.append("__init__") or real_init(self, *args, **kwargs))
    monkeypatch.setattr(formats, "_charts", lambda *args: calls.append("_charts"))
    code = main(["gauge", str(DATA / "disk3.cw"), "--probe", str(DATA / "disk3_probe.csv"),
                 "--charts", str(DATA / name)])
    assert (code, calls) == (name == "charts_override.chart", [])
    capsys.readouterr()


# -- persist -----------------------------------------------------------------------


def test_persist_writes_golden_table(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    code = main(["persist", str(DATA / "cooling.scenario"), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "rows 36\n"
    assert out.read_text() == (DATA / "golden_cooling_signature.csv").read_text()


def test_persist_retain_writes_golden_table(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    code = main(["persist", str(DATA / "cooling.scenario"), "--mode", "retain",
                 "--delta", "0.25", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "rows 36\n"
    assert out.read_text() == (DATA / "golden_cooling_signature_retain.csv").read_text()


def test_persist_stdout(capsys):
    code = main(["persist", str(DATA / "cooling.scenario")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# mode remove\n")
    assert "0.0,0.75;0.75,1,1" in out
    assert "2.0,0.75;0.75,1,0" in out


def test_persist_unreadable_step_is_semantic(capsys):
    assert main(["persist", str(DATA / "bad_step.scenario")]) == 1
    assert "does_not_exist.csv" in capsys.readouterr().err


def test_persist_missing_scenario_is_parse_error(capsys):
    assert main(["persist", str(DATA / "nope.scenario")]) == 2


def test_persist_single_step(tmp_path, capsys):
    scen = tmp_path / "one.scenario"
    scen.write_text(f"complex {DATA / 'square.cw'}\n"
                    f"step 0.0 {DATA / 'cooling_step1.csv'}\n")
    code = main(["persist", str(scen)])
    assert code == 0
    out = capsys.readouterr().out
    thetas = {line.split(",")[0] for line in out.splitlines()
              if line and not line.startswith(("#", "theta"))}
    assert thetas == {"0.0"}


def copy_cooling(folder):
    """The cooling scenario and the files it names, copied into ``folder``."""
    folder.mkdir()
    for name in ("cooling.scenario", "square.cw", "cooling_step1.csv",
                 "cooling_step2.csv", "cooling_step3.csv"):
        (folder / name).write_bytes((DATA / name).read_bytes())
    return folder


def test_persist_names_a_referenced_file_by_its_path_from_the_working_directory(
        tmp_path, monkeypatch, capsys):
    scen = copy_cooling(tmp_path / "scen")
    step3 = scen / "cooling_step3.csv"
    step3.write_text(step3.read_text().replace("eE,0.25,", "eE,warm,"))
    expected = ("{}:3: error: non-numeric descriptor value in 'eE,warm,0.75'\n"
                "{}:0: error: cells without descriptors: eE\n")
    for cwd, scenario, shown in ((scen, "cooling.scenario", "cooling_step3.csv"),
                                 (tmp_path, "scen/cooling.scenario", "scen/cooling_step3.csv"),
                                 (DATA, str(scen / "cooling.scenario"), str(step3))):
        monkeypatch.chdir(cwd)
        assert main(["persist", scenario]) == 1
        assert capsys.readouterr() == ("", expected.format(shown, shown))
        assert os.path.exists(shown)
    # A path the scenario gives from the root is printed as it stands.
    (scen / "abs.scenario").write_text(f"complex square.cw\nstep 0.0 {step3}\n")
    monkeypatch.chdir(tmp_path)
    assert main(["persist", "scen/abs.scenario"]) == 1
    assert capsys.readouterr().err == expected.format(step3, step3)


def test_persist_exit_code_follows_the_stage_that_failed(tmp_path, monkeypatch, capsys):
    """A scenario naming itself as its complex fails in a referenced file
    (exit 1) from any directory; one that does not parse fails as itself
    (exit 2)."""
    scen = copy_cooling(tmp_path / "scen")
    (scen / "self.scenario").write_text("complex self.scenario\nstep 0.0 cooling_step1.csv\n")
    (scen / "bad.scenario").write_text("complex square.cw\nstep x cooling_step1.csv\n")
    for cwd, prefix in ((scen, ""), (tmp_path, "scen/"), (DATA, f"{scen}/")):
        monkeypatch.chdir(cwd)
        assert main(["persist", f"{prefix}self.scenario"]) == 1
        assert capsys.readouterr().err.startswith(f"{prefix}self.scenario:1: error: ")
        assert main(["persist", f"{prefix}bad.scenario"]) == 2
        assert capsys.readouterr().err.startswith(f"{prefix}bad.scenario:2: error: ")


def test_persist_reports_a_scenario_invariant_against_the_scenario_file(
        tmp_path, monkeypatch, capsys):
    scen = copy_cooling(tmp_path / "scen")
    (scen / "back.scenario").write_text(
        "complex square.cw\nstep 1.0 cooling_step1.csv\nstep 0.5 cooling_step2.csv\n")
    for cwd, scenario in ((scen, "back.scenario"), (tmp_path, "scen/back.scenario"),
                          (DATA, str(scen / "back.scenario"))):
        monkeypatch.chdir(cwd)
        assert main(["persist", scenario]) == 1
        assert capsys.readouterr() == (
            "", f"{scenario}:0: error: theta 0.5 does not increase past 1.0\n")


# -- hostile input -------------------------------------------------------------------

DISK = str(DATA / "disk3.cw")
PROBE = str(DATA / "disk3_probe.csv")
COOLING = str(DATA / "cooling.scenario")


@pytest.mark.parametrize("args,code", [
    (("validate", "{latin1}"), 2),
    (("homology", "{latin1}", "--generators"), 2),
    (("descriptive", DISK, "--probe", "{latin1}", "--alpha", "0.5"), 2),
    (("gauge", DISK, "--probe", PROBE, "--charts", "{latin1}"), 2),
    (("persist", "{latin1}"), 2),
    (("persist", "{latin1_step}"), 1),
    (("descriptive", DISK, "--probe", PROBE, "--alpha", "0.5", "--delta", "-1"), 2),
    (("descriptive", DISK, "--probe", PROBE, "--alpha", "0.5", "--delta", "nan"), 2),
    (("descriptive", DISK, "--probe", PROBE, "--alpha", "0.5", "--dim", "-1"), 2),
    (("descriptive", DISK, "--probe", PROBE, "--alpha", "nan"), 2),
    (("descriptive", DISK, "--probe", PROBE, "--alpha", "inf"), 2),
    (("gauge", DISK, "--probe", PROBE, "--charts", str(DATA / "charts_ok.chart"),
      "--tolerance", "-1"), 2),
    (("gauge", DISK, "--probe", PROBE, "--charts", str(DATA / "charts_override.chart"),
      "--tolerance", "nan"), 2),
    (("persist", COOLING, "--delta", "-1"), 2),
    (("persist", COOLING, "--delta", "nan"), 2),
    (("homology", str(DATA / "torus.cw"), "--max-dim", "-1"), 2),
    (("persist", COOLING, "--max-dim", "-1"), 2),
    (("homology", str(DATA / "torus.cw"), "--max-dim", "5000000"), 2),
    (("homology", str(DATA / "torus.cw"), "--max-dim", "65"), 2),
    (("homology", str(DATA / "torus.cw"), "--oracle", "--oracle-bound", "-1"), 2),
    (("homology", str(DATA / "torus.cw"), "--oracle", "--oracle-bound", "21"), 2),
    (("persist", COOLING, "--max-dim", "100000"), 2),
    (("persist", "{nan_theta}"), 2),
    (("persist", "{inf_theta}"), 2),
    (("persist", "{nul_complex}"), 2),
    (("persist", "{nul_step}"), 2),
    (("homology", "{deep}"), 2),
    (("validate", "{deep}"), 2),
    (("descriptive", DISK, "--probe", "{nan_probe}", "--alpha", "0.5"), 2),
    (("descriptive", DISK, "--probe", "{inf_probe}", "--spectrum"), 2),
    (("gauge", DISK, "--probe", "{nan_probe}", "--charts", str(DATA / "charts_ok.chart")), 2),
    (("gauge", DISK, "--probe", PROBE, "--charts", "{inf_chart}"), 2),
    (("gauge", DISK, "--probe", PROBE, "--charts", "{nan_chart}"), 2),
], ids=lambda v: " ".join(a.rsplit("/", 1)[-1] for a in v) if isinstance(v, tuple) else None)
def test_hostile_input_fails_cleanly(args, code, tmp_path, capsys):
    """Undecodable files, non-finite values, out-of-range cell
    dimensions, out-of-range options and a NUL in a scenario's path end
    with an error message and exit code, never a traceback."""
    latin1 = tmp_path / "latin1.cw"
    latin1.write_bytes(b"cell caf\xe9 0\n")
    step = tmp_path / "step.scenario"
    step.write_text(f"complex {DATA / 'square.cw'}\nstep 0.0 {latin1}\n")
    deep = tmp_path / "deep.cw"
    deep.write_text("cell v 0\ncell b 5000000\n")
    probe_text = (DATA / "disk3_probe.csv").read_text()
    files = {"latin1": latin1, "latin1_step": step, "deep": deep}
    for name, theta in (("nan_theta", "nan"), ("inf_theta", "inf")):
        files[name] = tmp_path / f"{name}.scenario"
        files[name].write_text(f"complex {DATA / 'square.cw'}\n"
                               f"step 0.0 {DATA / 'cooling_step1.csv'}\n"
                               f"step {theta} {DATA / 'cooling_step2.csv'}\n")
    files["nul_complex"] = tmp_path / "nul_complex.scenario"
    files["nul_complex"].write_text(f"complex {DATA / 'square.cw'}\0\n"
                                    f"step 0.0 {DATA / 'cooling_step1.csv'}\n")
    files["nul_step"] = tmp_path / "nul_step.scenario"
    files["nul_step"].write_text(f"complex {DATA / 'square.cw'}\n"
                                 f"step 0.0 {DATA / 'cooling_step1.csv'}\0\n")
    for name, text in (
            ("nan_probe", probe_text.replace("A,0.0", "A,nan")),
            ("inf_probe", probe_text.replace("A,0.0", "A,-inf")),
            ("inf_chart", (DATA / "charts_override.chart").read_text().replace("0.77", "inf")),
            ("nan_chart", (DATA / "charts_override.chart").read_text().replace("0.77", "NaN"))):
        files[name] = tmp_path / name
        files[name].write_text(text)
    argv = [a.format(**files) for a in args]
    try:
        result = main(argv)
    except SystemExit as exc:
        result = exc.code
    assert result == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize("args", [
    ("validate", "torus.cw"),
    ("homology", "disk3.cw", "--generators"),
    ("descriptive", "disk3.cw", "--probe", "disk3_probe.csv", "--spectrum"),
    ("gauge", "disk3.cw", "--probe", "disk3_probe.csv", "--charts", "charts_ok.chart"),
    ("persist", "cooling.scenario"),
])
def test_repeated_runs_byte_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    assert first[0] == 0


# -- the cyclic collector ----------------------------------------------------------


def test_a_command_runs_with_the_collector_paused(tmp_path, capsys):
    path = tmp_path / "grid.cw"
    path.write_text(emit_complex(support.grid_surface(18)))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        assert main(["homology", str(path), "--generators"]) == 0
    finally:
        gc.callbacks.remove(hook)
    assert len(parse_complex(path.read_text())[0]) == 1944
    assert capsys.readouterr().out.endswith("betti 1 2 1\n")
    assert starts == []


@pytest.fixture
def collector():
    """The collector's state, restored after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


# A run of main per way it can end, with the exit code it ends with.
ENDINGS = {
    "clean": (["validate", str(DATA / "torus.cw")], 0),
    "semantic": (["validate", str(DATA / "broken_dd.cw")], 1),
    "malformed": (["validate", "{malformed}"], 2),
    "usage": (["validate", str(DATA / "torus.cw"), "--bogus"], 2),
    "caught": (["validate", str(DATA / "torus.cw")], 1),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("ending", list(ENDINGS))
def test_main_restores_the_collector_state(ending, enabled, collector, tmp_path,
                                          monkeypatch, capsys):
    malformed = tmp_path / "malformed.cw"
    malformed.write_text("cell v zero\n")
    if ending == "caught":
        def fail(self):
            raise DescellError("raised inside the command")
        monkeypatch.setattr(CellComplex, "validate", fail)
    argv, code = ENDINGS[ending]
    (gc.enable if enabled else gc.disable)()
    outcome = _outcome(main, [a.format(malformed=malformed) for a in argv], capsys)
    assert gc.isenabled() == enabled
    assert outcome[0] == code
    if ending == "caught":
        assert outcome[1:] == ("", "descell: error: raised inside the command\n")


# -- argument parsing --------------------------------------------------------------

TORUS = str(DATA / "torus.cw")
CHARTS = str(DATA / "charts_ok.chart")

# Each subcommand's positional and required options, for a run that parses.
OPERANDS = {
    "validate": ([TORUS], []),
    "homology": ([TORUS], []),
    "descriptive": ([DISK], ["--probe", PROBE, "--spectrum"]),
    "gauge": ([DISK], ["--probe", PROBE, "--charts", CHARTS]),
    "persist": ([COOLING], []),
}
BAD_OPTIONS = (["--delta", "-1"], ["--delta", "x"], ["--max-dim", "99"],
               ["--oracle-bound", "x"], ["--mode", "bad"], ["--bogus"],
               ["--alpha", "0.5", "--spectrum"])


def _argvs():
    for command, (positional, required) in OPERANDS.items():
        without_probe = list(required)
        if "--probe" in required:
            i = required.index("--probe")
            del without_probe[i:i + 2]
        yield [command, "-h"]
        yield [command, "--help"]
        yield [command, *required]
        yield [command, *positional, *without_probe]
        yield [command, *positional, *required]
        yield [command, *positional, *positional, *required]
        for bad in BAD_OPTIONS:
            yield [command, *positional, *required, *bad]
    yield from ([], ["bogus"], ["--", "homology", "x"], ["-h", "homology"])


def _outcome(run, argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


def _full_tree(argv):
    args = build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("columns", ["80", "30"])
@pytest.mark.parametrize("argv", list(_argvs()),
                         ids=lambda v: " ".join(a.rsplit("/", 1)[-1] for a in v) or "none")
def test_main_matches_the_full_parser(argv, columns, monkeypatch, capsys):
    """Help, errors, output and exit codes are those of the parser of
    every subcommand."""
    monkeypatch.setenv("COLUMNS", columns)
    assert _outcome(main, argv, capsys) == _outcome(_full_tree, argv, capsys)


def test_unknown_command_error_names_the_command_argument(capsys):
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert "\ndescell: error: argument command: invalid choice: " in capsys.readouterr().err


def _built_progs(argv, monkeypatch, capsys):
    """main's outcome on ``argv``, and the progs of the parsers it built."""
    add_argument = argparse.ArgumentParser.add_argument
    progs = set()

    def spy(self, *args, **kwargs):
        progs.add(self.prog)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    return _outcome(main, argv, capsys)[0], progs


EVERY_PROG = {"descell", *(f"descell {name}" for name in OPERANDS)}


@pytest.mark.parametrize("argv,code,progs", [
    (["validate", TORUS], 0, set()),
    (["homology", TORUS], 0, set()),
    (["homology", TORUS, "--generators"], 0, set()),
    (["descriptive", DISK, "--probe", PROBE, "--spectrum"], 0, set()),
    (["descriptive", DISK, "--probe", PROBE, "--alp", "-1e-3"], 0, set()),
    (["gauge", DISK, "--probe", PROBE, "--charts", CHARTS], 0, set()),
    (["persist", COOLING], 0, set()),
    (["persist", COOLING, "--mode", "retain", "--delta", "0.25"], 0, set()),
    (["persist", COOLING, "--mode=retain", "--delta", "0.25", "--max-dim", "1"], 0, set()),
    (["homology", TORUS, "--gen"], 0, EVERY_PROG),
    (["homology", TORUS, "--bogus"], 2, EVERY_PROG),
], ids=lambda v: " ".join(a.rsplit("/", 1)[-1] for a in v) if isinstance(v, list) else None)
def test_main_builds_no_parser_or_the_full_tree(argv, code, progs, monkeypatch, capsys):
    """A command line whose options are spelled in full builds no parser;
    any other builds the parser of every subcommand."""
    assert _built_progs(argv, monkeypatch, capsys) == (code, progs)


# -- the argv reader ---------------------------------------------------------------

# Every option name, with --help, and each of its prefixes; values of
# every kind the options take or refuse; two positionals.
NAMES = ("--max-dim", "--generators", "--oracle", "--oracle-bound", "--probe", "--alpha",
         "--spectrum", "--delta", "--dim", "--mode", "--charts", "--tolerance", "--out",
         "--help")
VALUES = ("", "-1", "x", "nan", "1e400", "65", "21", "0", "0.25", "3", "remove", "retain",
          "bad", "-0.5;0.25", "-1e-3", "0.5;0.75", "P1", "P2")
TOKENS = sorted({*NAMES, *(n[:k] for n in NAMES for k in range(1, len(n))), "-h", "--bogus",
                 *VALUES, *(f"{n}={v}" for n in NAMES for v in VALUES)})


def _read_as_argparse(argv):
    """``_read_argv`` on ``argv`` as main hands it over; asserts that it
    declines or reads what the argparse parser reads."""
    argv = list(argv)
    if argv and argv[0] == "descriptive":
        _join_alpha(argv)
    read = _read_argv(argv)
    if read is not None:
        assert vars(read) == vars(build_parser().parse_args(argv))
    return read


def test_the_reader_reads_the_fully_spelled_argvs_as_argparse_does():
    read = {tuple(argv) for argv in _argvs() if _read_as_argparse(argv) is not None}
    assert read == {(c, *positional, *required) for c, (positional, required) in OPERANDS.items()}


def test_the_reader_declines_or_agrees_with_argparse():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # A subcommand with its positional and required options, and options
    # drawn from its own (from NAMES for validate, which takes none) and
    # from NAMES, with values from VALUES, in any order; or tokens drawn
    # at random.
    required = {"validate": [], "homology": [], "persist": [],
                "descriptive": [["--probe", "p.csv"]],
                "gauge": [["--probe", "p.csv"], ["--charts", "c.chart"]]}
    balls = (["--spectrum"], ["--alpha", "0.5"], ["--alpha", "-1e-3"], ["--alpha=-0.5;0.25"])
    own = {"homology": ("--max-dim", "--generators", "--oracle", "--oracle-bound"),
           "descriptive": ("--probe", "--alpha", "--spectrum", "--delta", "--dim", "--mode"),
           "gauge": ("--probe", "--charts", "--tolerance"),
           "persist": ("--delta", "--mode", "--max-dim", "--out")}

    @st.composite
    def spelled(draw):
        command = draw(st.sampled_from(sorted(required)))
        chunks = [["P1"], *required[command]]
        if command == "descriptive":
            chunks.append(draw(st.sampled_from(balls)))
        names = st.sampled_from(own.get(command, NAMES)) | st.sampled_from(NAMES)
        for name, value in draw(st.lists(st.tuples(names, st.sampled_from(VALUES)), max_size=4)):
            chunks.append(draw(st.sampled_from(([name], [name, value], [f"{name}={value}"]))))
        return [command, *(t for chunk in draw(st.permutations(chunks)) for t in chunk)]

    drawn = st.tuples(st.sampled_from(sorted(required)), st.lists(st.sampled_from(TOKENS),
                                                                  max_size=8))

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(spelled() | drawn.map(lambda t: [t[0], *t[1]]))
    @hypothesis.example(["homology", "P1", "--generators=0"])
    @hypothesis.example(["homology", "P1", "--generators="])
    @hypothesis.example(["gauge", "P1", "--charts", "c.chart", "--probe"])
    @hypothesis.example(["persist", "P1", "--out", "--mode", "retain"])
    @hypothesis.example(["descriptive", "P1", "--probe", "p.csv", "--alpha", "-h"])
    def check(argv):
        _read_as_argparse(argv)

    check()
