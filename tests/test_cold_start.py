"""Cold start: importing descell and running its subcommands loads no numpy.

Only ``CellComplex.boundary_matrix``, ``rank_mod2`` and the enumeration
oracle use numpy, and they import it when called. The checks run in
fresh interpreters, since this one has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"

# Prints whether numpy was loaded at start-up, after `import descell`, and
# after running each argv in sys.argv[1:] (';'-separated) through the CLI,
# with the exit codes.
SCRIPT = """
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


def run_fresh(*argvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *(";".join(a) for a in argvs)],
                          capture_output=True, text=True, env=env, cwd=str(DATA),
                          check=True)
    at_start, after_import, after_run, *codes = proc.stdout.split()
    if at_start == "True":
        pytest.skip("the interpreter loads numpy at start-up")
    return after_import == "True", after_run == "True", [int(c) for c in codes]


def test_subcommands_run_without_numpy():
    after_import, after_run, codes = run_fresh(
        ("validate", "torus.cw"),
        ("homology", "torus.cw", "--generators"),
        ("descriptive", "disk3.cw", "--probe", "disk3_probe.csv", "--spectrum"),
        ("gauge", "disk3.cw", "--probe", "disk3_probe.csv", "--charts", "charts_ok.chart"),
        ("persist", "cooling.scenario"))
    assert codes == [0, 0, 0, 0, 0]
    assert not after_import
    assert not after_run


def test_oracle_loads_numpy_when_asked():
    after_import, after_run, codes = run_fresh(("homology", "torus.cw", "--oracle"))
    assert codes == [0]
    assert not after_import
    assert after_run
