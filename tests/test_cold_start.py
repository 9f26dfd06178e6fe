"""Cold start: importing descell and running its subcommands loads nothing
outside the standard library (numpy among it), and no dataclasses,
inspect or typing; a fully spelled command line loads no argparse.

Only ``CellComplex.boundary_matrix`` uses numpy, and it imports it when
called; ``rank_mod2`` and the enumeration oracle (``homology --oracle``)
work on Python ints. The record classes are ``__slots__`` classes, and
the annotations are strings whose names come from ``collections.abc``.
The checks run in fresh interpreters, since this one has these modules
loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"

# Each script first prints whether what it looks for was loaded at
# start-up, then its own findings. CLI_SCRIPT takes a ','-separated list of module names, then
# argvs (each ';'-separated) to run through the CLI. It prints which of
# those modules were loaded at start-up and after `import descell`
# ("-" for none), then per argv its exit code (SystemExit's, where main
# exits) and the modules loaded after it ran.
CLI_SCRIPT = """
import contextlib, io, sys
watched = sys.argv[1].split(",")
def loaded():
    return ",".join(m for m in watched if m in sys.modules) or "-"
at_start = loaded()
import descell
from descell.cli import main
after = [loaded()]
for argv in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv.split(";"))
        except SystemExit as exc:
            code = exc.code
    after.append(f"{code}:{loaded()}")
print(at_start, *after)
"""

SUBCOMMANDS = [";".join(a) for a in (
    ("validate", "torus.cw"),
    ("homology", "torus.cw", "--generators"),
    ("homology", "torus.cw", "--oracle"),
    ("descriptive", "disk3.cw", "--probe", "disk3_probe.csv", "--spectrum"),
    ("descriptive", "disk3.cw", "--probe", "disk3_probe.csv", "--alp", "-1e-3"),
    ("gauge", "disk3.cw", "--probe", "disk3_probe.csv", "--charts", "charts_ok.chart"),
    ("persist", "cooling.scenario"))]

# Prints "-", the exit code of each argv (';'-separated) run through the
# CLI, then the top-level modules that `import descell` and those runs
# added and that are not in the standard library.
STDLIB_SCRIPT = """
import contextlib, io, sys
def top_level():
    return {name.partition(".")[0] for name in sys.modules}
before = top_level()
import descell
from descell.cli import main
codes = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv.split(";")))
print("-", *codes, *sorted(top_level() - before - sys.stdlib_module_names))
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


def run_fresh(script, *args, flags=(), pythonpath=None):
    """The words ``script`` prints in a fresh interpreter, after the first;
    skips the test unless the first word is "False" or "-" (nothing of
    what the script looks for was loaded at start-up)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath or (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *flags, "-c", script, *args], capture_output=True,
                          text=True, env=env, cwd=str(DATA), check=True)
    at_start, *words = proc.stdout.split()
    if at_start not in ("False", "-"):
        pytest.skip(f"the interpreter loads {at_start} at start-up")
    return words


def test_subcommands_run_without_numpy():
    after_import, *after_runs = run_fresh(CLI_SCRIPT, "numpy", *SUBCOMMANDS)
    assert after_import == "-"
    assert after_runs == ["0:-"] * len(SUBCOMMANDS)


def test_subcommands_load_no_dataclasses_inspect_or_typing():
    """Under -S, since ``site`` may load typing through a .pth file."""
    after_import, *after_runs = run_fresh(
        CLI_SCRIPT, "dataclasses,inspect,typing", *SUBCOMMANDS,
        flags=("-S",), pythonpath=str(REPO / "src"))
    assert after_import == "-"
    assert after_runs == ["0:-"] * len(SUBCOMMANDS)


def test_subcommands_load_no_argparse_and_help_does():
    """Fully spelled command lines, and a negative alpha after a prefix
    of --alpha, are read without argparse and the gettext it imports;
    argparse words the help."""
    after_import, *after_runs = run_fresh(
        CLI_SCRIPT, "argparse,gettext", *SUBCOMMANDS, "homology;-h")
    assert after_import == "-"
    assert after_runs == ["0:-"] * len(SUBCOMMANDS) + ["0:argparse,gettext"]


def test_subcommands_load_only_the_standard_library():
    """Compared with what the interpreter had loaded before the import, so
    that a ``site`` that preloads a module does not fail the test."""
    assert run_fresh(STDLIB_SCRIPT, *SUBCOMMANDS) == ["0"] * len(SUBCOMMANDS) + ["descell"]


def test_boundary_matrix_loads_numpy():
    assert run_fresh(MATRIX_SCRIPT) == ["False", "True"]
