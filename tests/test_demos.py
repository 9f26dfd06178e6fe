"""Every script in demos/ runs to completion in a fresh interpreter, with
``src`` on the path, and writes nothing to stderr; the README's library
quickstart runs and gives the Betti vectors its comments state."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stderr == b""
    assert done.stdout


def test_readme_quickstart_gives_the_betti_vectors_it_states():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    stated = re.findall(r"^(\S.*\.betti_vector\(\))\s+# (\([\d, ]*\))", block, re.M)
    assert len(stated) == 3, stated
    for expr, vector in stated:
        assert eval(expr, namespace) == ast.literal_eval(vector), expr
