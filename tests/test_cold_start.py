"""Cold start: importing descell and running its subcommands loads no numpy.

Only ``CellComplex.boundary_matrix`` uses numpy, and it imports it when
called; ``rank_mod2`` and the enumeration oracle (``homology --oracle``)
work on Python ints. The checks run in fresh interpreters, since this
one has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"

# Each script prints whether numpy was loaded at start-up, then its own
# findings. CLI_SCRIPT prints whether numpy was loaded after `import
# descell` and after running each argv in sys.argv[1:] (';'-separated)
# through the CLI, with the exit codes.
CLI_SCRIPT = """
import contextlib, io, sys
at_start = "numpy" in sys.modules
import descell
from descell.cli import main
after_import = "numpy" in sys.modules
codes = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv.split(";")))
print(at_start, after_import, "numpy" in sys.modules, *codes)
"""

# Prints whether numpy was loaded after the oracle and rank_mod2 ran, and
# after CellComplex.boundary_matrix ran.
MATRIX_SCRIPT = """
import sys
at_start = "numpy" in sys.modules
from descell import from_simplices, oracle_homology, rank_mod2
k = from_simplices([("a", "b", "c")])
oracle_homology(k), rank_mod2([[1, 0], [1, 1]])
before = "numpy" in sys.modules
k.boundary_matrix(1)
print(at_start, before, "numpy" in sys.modules)
"""


def run_fresh(script, *args):
    """The words ``script`` prints in a fresh interpreter, after the first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, cwd=str(DATA), check=True)
    at_start, *words = proc.stdout.split()
    if at_start == "True":
        pytest.skip("the interpreter loads numpy at start-up")
    return words


def test_subcommands_run_without_numpy():
    after_import, after_run, *codes = run_fresh(CLI_SCRIPT, *(";".join(a) for a in (
        ("validate", "torus.cw"),
        ("homology", "torus.cw", "--generators"),
        ("homology", "torus.cw", "--oracle"),
        ("descriptive", "disk3.cw", "--probe", "disk3_probe.csv", "--spectrum"),
        ("gauge", "disk3.cw", "--probe", "disk3_probe.csv", "--charts", "charts_ok.chart"),
        ("persist", "cooling.scenario"))))
    assert codes == ["0"] * 6
    assert after_import == after_run == "False"


def test_boundary_matrix_loads_numpy():
    assert run_fresh(MATRIX_SCRIPT) == ["False", "True"]
