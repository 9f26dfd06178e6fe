"""Tests of the benchmark itself: generators, checkers, tracer, runner.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
from speed import Probe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import descell  # noqa: E402
from descell.cli import main  # noqa: E402
from descell.formats import parse_complex  # noqa: E402


def program_output(argv):
    code, out, err, _, _ = run.call(main, argv)
    return code, out


# -- generators -------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(instances.SURFACES))
def test_small_surfaces_match_oracle(kind):
    surf = instances.surface(kind, 2, random.Random(kind))
    complex, diags = parse_complex(surf.text(random.Random(0)))
    assert complex is not None, diags
    assert complex.validate() == []
    assert descell.oracle_homology(complex, max_cells=32).betti_vector() == surf.betti
    assert complex.euler_characteristic() == surf.euler


@pytest.mark.parametrize("kind", sorted(instances.SURFACES))
@pytest.mark.parametrize("k", [3, 5])
def test_surfaces_are_valid_with_known_betti(kind, k):
    surf = instances.surface(kind, k, random.Random(k))
    complex, _ = parse_complex(surf.text(random.Random(1)))
    assert complex.validate() == []
    assert descell.homology(complex).betti_vector() == surf.betti


def _files(workload, seed, index, work):
    work.mkdir()
    WORKLOADS[workload].op(seed, index, work)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic(workload, tmp_path):
    files = _files(workload, 7, 1, tmp_path / "a")
    assert files and _files(workload, 7, 1, tmp_path / "b") == files
    for other in (_files(workload, 8, 1, tmp_path / "c"), _files(workload, 7, 2, tmp_path / "d")):
        assert other.keys() == files.keys()
        assert all(other[name] != files[name] for name in files)


# -- checkers reject corrupted output ----------------------------------------


@pytest.fixture
def torus_run(tmp_path):
    surf = instances.surface("torus", 4, random.Random(3))
    path = tmp_path / "t.cw"
    path.write_text(surf.text(random.Random(4)))
    code, out = program_output(["homology", str(path), "--generators"])
    assert checks.check_homology(surf, code, out) is None
    return surf, code, out


def test_homology_checker_rejects_flipped_betti(torus_run):
    surf, code, out = torus_run
    bad = out.replace("betti 1 2 1\n", "betti 1 3 1\n")
    assert bad != out
    assert checks.check_homology(surf, code, bad) is not None
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("dim 1 "))
    lines[at] = lines[at].rsplit(" ", 1)[0] + " 3"
    assert checks.check_homology(surf, code, "\n".join(lines) + "\n") is not None


def test_homology_checker_rejects_non_cycle_generator(torus_run):
    surf, code, out = torus_run
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("gen 1 "))
    words = lines[at].split()
    lines[at] = " ".join(words[:-1])                  # drop one edge: no longer a cycle
    assert checks.check_homology(surf, code, "\n".join(lines) + "\n") is not None


def test_homology_checker_rejects_missing_generator_and_bad_exit(torus_run):
    surf, code, out = torus_run
    lines = [line for line in out.splitlines() if not line.startswith("gen 2 ")]
    assert checks.check_homology(surf, code, "\n".join(lines) + "\n") is not None
    assert checks.check_homology(surf, 1, out) is not None


@pytest.fixture
def cooling_run(tmp_path):
    rng = random.Random(5)
    surf = instances.surface("torus", 3, rng)
    cool = instances.cooling(surf, 3, 6, 2, rng)
    (tmp_path / "b.cw").write_text(surf.text(rng))
    lines = ["complex b.cw"]
    for s, (theta, values) in enumerate(zip(cool.thetas, cool.values)):
        (tmp_path / f"s{s}.csv").write_text(instances.descriptor_csv(values, rng))
        lines.append(f"step {instances.fmt(theta)} s{s}.csv")
    (tmp_path / "x.scenario").write_text("\n".join(lines) + "\n")
    outs = {}
    for mode, delta in (("remove", 0.0), ("retain", 0.125)):
        code, out = program_output(["persist", str(tmp_path / "x.scenario"),
                                    "--mode", mode, "--delta", repr(delta)])
        assert checks.check_persist(cool, mode, delta, code, out) is None
        outs[mode, delta] = (code, out)
    return cool, outs


def test_persist_checker_rejects_wrong_row(cooling_run):
    cool, outs = cooling_run
    code, out = outs["remove", 0.0]
    lines = out.splitlines()
    fields = lines[-1].split(",")
    fields[-1] = str(int(fields[-1]) + 1)
    bad = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    assert checks.check_persist(cool, "remove", 0.0, code, bad) is not None
    assert checks.check_persist(cool, "retain", 0.0, code, out) is not None
    assert checks.check_persist(cool, "remove", 0.0, code, "\n".join(lines[:-3]) + "\n") is not None


def test_persist_closed_form_covers_both_cases(cooling_run):
    cool, _ = cooling_run
    rows = checks.expected_signature(cool, "remove", 0.0)
    assert {r[3] for r in rows if r[2] == 2} == {0, 1}


@pytest.fixture
def gauge_runs(tmp_path):
    runs = []
    for overrides in (0, 3):
        rng = random.Random(overrides)
        surf = instances.surface("torus", 5, rng)
        cover = instances.cover(surf, (3, 2), 3, overrides, rng)
        (tmp_path / "g.cw").write_text(surf.text(rng))
        (tmp_path / "g.csv").write_text(instances.descriptor_csv(cover.probe, rng))
        (tmp_path / "g.chart").write_text(cover.text(rng))
        code, out = program_output(["gauge", str(tmp_path / "g.cw"), "--probe",
                                    str(tmp_path / "g.csv"), "--charts", str(tmp_path / "g.chart")])
        assert checks.check_gauge(cover, code, out) is None
        runs.append((cover, code, out))
    return runs


def test_gauge_checker_rejects_missing_or_extra_violation(gauge_runs):
    (honest, code0, out0), (broken, code1, out1) = gauge_runs
    lines = out1.splitlines()
    assert len(lines) == 3
    assert checks.check_gauge(broken, code1, "\n".join(lines[:-1]) + "\n") is not None
    extra = lines[0].replace("trivialization", "cocycle", 1)
    assert checks.check_gauge(broken, code1, out1 + extra + "\n") is not None
    assert checks.check_gauge(honest, code0, lines[0] + "\n") is not None
    assert checks.check_gauge(honest, 1, out0) is not None
    assert checks.check_gauge(broken, 0, out1) is not None


# -- tracer ---------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores():
    tracer = Tracer(descell)
    before = {name: getattr(descell.descriptive, name) for name in ("homology", "derive_subcomplex")}
    init = descell.CellComplex.__init__
    tracer.install()
    try:
        bound = set(tracer.bindings)
        for module, name in [("descell.cli", "homology"), ("descell.descriptive", "homology"),
                             ("descell.persistence", "descriptive_homology"),
                             ("descell.cli", "verify_cocycle"), ("descell.bundle", "transition"),
                             ("descell.formats", "parse_complex"), ("descell", "homology")]:
            assert (module, name) in bound
        assert descell.CellComplex.__init__ is not init
    finally:
        tracer.uninstall()
    assert descell.CellComplex.__init__ is init
    assert {n: getattr(descell.descriptive, n) for n in before} == before


def test_one_cycle_of_every_workload_passes_traced_and_untraced(tmp_path):
    """A quick pass: every operation shape of every workload, checked, with
    the traced run's stdout byte-identical to the untraced one."""
    probe = Probe()
    for name, wl in WORKLOADS.items():
        tracer = Tracer(descell)
        for index in range(wl.round):
            op = wl.op(11, index, tmp_path)
            code, out, err, t0, t1, traced_out = run.traced_pair(tracer, main, op.argv, index)
            assert op.check(code, out) is None, (name, op.label, err)
            assert traced_out == out
            scale = probe.scale()
            assert scale > 0
            tracer.commit(scale)
        metrics = tracer.metrics(untraced_s=1.0)
        assert set(metrics) == {m["name"] for m in run.SPEC["per_layer"]}
        if name == "gauge_cover":
            assert metrics["homology.share"] == 0 and metrics["bundle.share"] > 0.5
        else:
            assert metrics["homology.share"] > 0.5


def test_tail_percentile_has_ten_samples_beyond():
    times = [float(i) for i in range(1, 41)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 75


# -- runner -------------------------------------------------------------------


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gauge_cover", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
