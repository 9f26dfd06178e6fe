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


def test_chain_of_one_cell_per_dimension(tmp_path):
    """One cell in each dimension 0 .. 64, each recording the one below at
    degree 2: a valid complex whose every boundary is zero mod 2, so
    every dimension has Betti number 1."""
    path = tmp_path / "chain.cw"
    path.write_text("".join(f"cell c{d} {d}\n" for d in range(65))
                    + "".join(f"bnd c{d} c{d - 1}:2\n" for d in range(1, 65)))
    code, out, err = run_limited(["validate", str(path)])
    assert (code, out, err) == (0, "OK\n", "")
    code, out, err = run_limited(["homology", str(path)])
    assert "Traceback" not in err
    assert code == 0
    assert out.splitlines()[-1] == "betti" + " 1" * 65


@pytest.mark.parametrize("command", ["validate", "homology"])
def test_every_cell_records_every_lower_cell(tmp_path, command):
    """Three cells in each dimension 0 .. 5, each recording every cell of
    every lower dimension: a face two or more dimensions down is worded
    once per entry, 9 * (1 + 2 + 3 + 4) = 90 errors."""
    cells = {d: [f"c{d}_{i}" for i in range(3)] for d in range(6)}
    lines = [f"cell {cid} {d}" for d, ids in cells.items() for cid in ids]
    lines += [" ".join(["bnd", cid] + [f"{face}:1" for lower in range(d) for face in cells[lower]])
              for d in range(1, 6) for cid in cells[d]]
    path = tmp_path / "every.cw"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_limited([command, str(path)])
    assert "Traceback" not in err
    assert code == 2
    assert sum("face " in line and " has dimension " in line for line in err.splitlines()) == 90


def test_megabyte_cell_ids(tmp_path):
    """Two vertices and an edge between them, each id a million characters."""
    a, b, e = ("a" * 10**6, "b" * 10**6, "e" * 10**6)
    path = tmp_path / "long.cw"
    path.write_text(f"cell {a} 0\ncell {b} 0\ncell {e} 1\nbnd {e} {a}:1 {b}:1\n")
    code, out, err = run_limited(["homology", str(path), "--generators"])
    assert "Traceback" not in err
    assert code == 0
    assert out.splitlines()[-1] == "betti 1 0"
