import os
import subprocess
import sys
from pathlib import Path

import pytest

from descell.cli import main

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
    assert main(["validate", str(DATA / "no_such.cw")]) == 2


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


def test_homology_max_dim_zero(capsys):
    assert main(["homology", str(DATA / "torus.cw"), "--max-dim", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "dim 0 cells 1 cycle_rank 1 boundary_rank 0 betti 1\nbetti 1\n"


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


def test_gauge_single_chart(tmp_path, capsys):
    charts = tmp_path / "one.chart"
    charts.write_text("chart only\nmember A\nmember B\n")
    code = main(["gauge", str(DATA / "disk3.cw"),
                 "--probe", str(DATA / "disk3_probe.csv"),
                 "--charts", str(charts)])
    assert code == 0
    assert capsys.readouterr().out == "OK\n"


# -- persist -----------------------------------------------------------------------


def test_persist_writes_golden_table(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    code = main(["persist", str(DATA / "cooling.scenario"), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "rows 36\n"
    assert out.read_text() == (DATA / "golden_cooling_signature.csv").read_text()


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
], ids=lambda v: " ".join(a.rsplit("/", 1)[-1] for a in v) if isinstance(v, tuple) else None)
def test_hostile_input_fails_cleanly(args, code, tmp_path, capsys):
    """Undecodable files and out-of-range options end with an error
    message and exit code, never a traceback."""
    latin1 = tmp_path / "latin1.cw"
    latin1.write_bytes(b"cell caf\xe9 0\n")
    step = tmp_path / "step.scenario"
    step.write_text(f"complex {DATA / 'square.cw'}\nstep 0.0 {latin1}\n")
    argv = [a.format(latin1=latin1, latin1_step=step) for a in args]
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
