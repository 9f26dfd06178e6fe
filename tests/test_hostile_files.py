"""The CLI on hostile files, each run in its own child process under an
address-space limit and a timeout: it ends, with a report or a worded
error, and no traceback. The files are written here without descell, so
the program under test only sees them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")

REPO = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 30


def run_limited(args):
    """Run ``python -m descell`` with ``args``; returns (exit, stdout, stderr)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "descell", *args], capture_output=True,
                          text=True, env=env, preexec_fn=limit, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def many_charts_one_cell(directory, n_charts):
    """A one-vertex complex with the probe 0.0 on it, and ``n_charts``
    charts that each hold the vertex and override it, chart cI with the
    value I + 1. Returns the ``gauge`` arguments."""
    files = {name: directory / name for name in ("point.cw", "point.csv", "point.chart")}
    files["point.cw"].write_text("cell A 0\n")
    files["point.csv"].write_text("cell,f1\nA,0.0\n")
    files["point.chart"].write_text("".join(f"chart c{i}\nmember A\noverride A {i + 1}\n"
                                            for i in range(n_charts)))
    return ["gauge", str(files["point.cw"]), "--probe", str(files["point.csv"]),
            "--charts", str(files["point.chart"])]


@pytest.mark.parametrize("n_charts", [400, 2000])
def test_gauge_on_many_charts_holding_one_cell(tmp_path, n_charts):
    """Every chart overrides the one vertex with its own value: one
    trivialization row per chart, and no symmetry or cocycle row, since
    each of those residuals is an exact zero."""
    code, out, err = run_limited(many_charts_one_cell(tmp_path, n_charts))
    assert "Traceback" not in err
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == n_charts
    assert all(line.startswith("trivialization charts c") for line in lines)
