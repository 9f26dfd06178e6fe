"""descell benchmark: whole CLI operations, run in-process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``bench/record.py`` runs every workload over several seeds.

Run from the root of a checkout; the program is imported from ``src/``
next to this directory. One process, one thread, a closed loop with one
client: each operation is ``descell.cli.main([...])`` on a freshly
generated instance, and the next starts when it returns. Every
operation's exit code and stdout are checked by the benchmark's own
checkers. An untraced run measures at least MIN_OPS operations and at
least ``--seconds`` of speed-normalised time, and then finishes the
current cycle of operation shapes, so every run holds the same mix and a
faster or slower phase of the machine does not change the number of
operations. (Past MIN_OPS, a run also ends at a cycle boundary once it
reaches WALL_CAP times --seconds of wall time.)

Operation times are speed-normalised by ``speed.Probe``: the figures are
seconds on a machine that runs the probe's kernel in ``speed.REF_S``.
Raw wall times are printed beside them. setup_s is normalised the same
way with its own exponent, ``speed.SETUP_EXPONENT``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
instance twice, untraced and traced, asserts that their stdout is
byte-identical, and prints the per-layer metrics from the spans. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from speed import REF_S, SETUP_EXPONENT, Probe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MIN_OPS = 40            # an untraced run's floor: op_tail_s is then at or above p75
SETUP_FIRST = 3         # setup_s spawns before the loop; then one per
SETUP_EVERY = 1 / 4     # this share of --seconds, so they span the run
WALL_CAP = 1.5          # a run also ends after this many --seconds of wall time


def import_program():
    """Import descell from this checkout's src/, and nothing else."""
    if not (SRC / "descell" / "__init__.py").is_file():
        sys.exit(f"bench: no descell sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import descell
    import descell.cli
    if Path(descell.__file__).resolve().parent != (SRC / "descell").resolve():
        sys.exit(f"bench: imported descell from {descell.__file__}, not {SRC}")
    return descell


def spawn_import() -> float:
    """Wall time of a fresh interpreter importing descell.

    numpy's BLAS thread pool is held to one thread, as the benchmark runs
    the program in one thread: with the default pool, import time rose by
    a quarter to a half whenever the machine's other core was busy.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import descell"], env=env, cwd=str(ROOT),
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def call(main, argv: list[str]) -> tuple[int | None, str, str, float, float]:
    """One CLI operation: (exit code, stdout, stderr, start, end).

    The exit code is None when the program raised.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:   # a crash is a failed operation, not a failed run
            code = None
            traceback.print_exc()
        t1 = time.perf_counter()
    return code, out.getvalue(), err.getvalue(), t0, t1


def tail(times: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile)."""
    ordered = sorted(times)
    rank = len(ordered) - 10          # ten samples lie above this one
    return ordered[rank - 1], math.floor(100 * rank / len(ordered))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    descell = import_program()
    probe = Probe()

    def setup() -> tuple[float, float]:
        wall = spawn_import()
        return wall, wall * probe.scale(SETUP_EXPONENT)

    setups = [] if trace else [setup() for _ in range(SETUP_FIRST)]
    main = descell.cli.main
    tracer = Tracer(descell) if trace else None
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    times, walls, failures = [], [], []
    failed = 0
    identical = True
    min_ops = wl.round if trace else MIN_OPS
    try:
        op = wl.op(seed, -1, work)      # warm-up, not counted
        call(main, op.argv)
        probe.scale()                   # fresh samples before the first operation
        measured = 0.0
        deadline = time.perf_counter() + WALL_CAP * seconds
        next_setup = time.perf_counter() + SETUP_EVERY * seconds
        index = 0
        while True:
            started = time.perf_counter()
            op = wl.op(seed, index, work)
            gc.collect()
            same = True
            if tracer is None:
                code, out, err, t0, t1 = call(main, op.argv)
            else:
                code, out, err, t0, t1, traced_out = traced_pair(tracer, main, op.argv, index)
                same = traced_out == out
                if not same:
                    identical = False
                    failures.append(f"op {index} ({op.label}): traced stdout differs")
            wall, scale = t1 - t0, probe.scale()
            if tracer is not None:
                tracer.commit(scale)
            reason = op.check(code, out)
            if reason is not None:
                failures.append(f"op {index} ({op.label}): {reason}; stderr {err[-300:]!r}")
            if reason is not None or not same:
                failed += 1
            times.append(wall * scale)
            walls.append(wall)
            index += 1
            measured += (time.perf_counter() - started) * scale
            if not trace and time.perf_counter() >= next_setup:
                setups.append(setup())
                next_setup = time.perf_counter() + SETUP_EVERY * seconds
            if (index % wl.round == 0 and index >= min_ops
                    and (measured >= seconds or time.perf_counter() >= deadline)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"workload": workload, "seed": seed, "ops": len(times), "failed": failed,
              "failures": failures, "identical": identical,
              "kernel_ms": [1000 * f(probe.history) for f in (min, statistics.median, max)]}
    if tracer is None:
        value, pct = tail(times)
        result["metrics"] = {
            "setup_s": statistics.median(s for _, s in setups),
            "ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["wall"] = {"setup_s": statistics.median(w for w, _ in setups),
                          "ops_per_s": len(walls) / sum(walls),
                          "op_p50_s": statistics.median(walls), "op_tail_s": tail(walls)[0]}
        result["tail_percentile"] = pct
        result["setup_samples"] = len(setups)
    else:
        result["metrics"] = tracer.metrics(sum(times))
        spans = ROOT / ".bench_work" / f"spans-{workload}.csv.gz"
        result["spans"] = tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def traced_pair(tracer: Tracer, main, argv, index):
    """Run one instance untraced and traced, alternating which goes first."""
    def traced():
        tracer.install()
        try:
            tracer.begin_op()
            _, out, _, t0, t1 = call(main, argv)
            tracer.end_op(t0, t1)
        finally:
            tracer.uninstall()
        return out

    if index % 2:
        traced_out = traced()
        gc.collect()
    untraced = call(main, argv)
    if index % 2 == 0:
        gc.collect()
        traced_out = traced()
    return (*untraced, traced_out)


def report(result: dict, trace: bool) -> dict:
    """Print the metrics by name and unit; return the final JSON object."""
    n, failed = result["ops"], result["failed"]
    print(f"workload {result['workload']} seed {result['seed']}: {n} operations, "
          f"{failed} failed")
    for line in result["failures"][:20]:
        print(f"  FAIL {line}")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = {name: result["metrics"][name] for name in units}
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{result['tail_percentile']} of {n} samples)"
        elif name == "setup_s":
            note = f"  (median of {result['setup_samples']} fresh imports)"
        if name in result.get("wall", {}):
            note += f"  [wall {result['wall'][name]:.6g}]"
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    print(f"  {'fail_ratio':34s} {failed / n:14.6g} ratio  ({failed}/{n})")
    low, mid, high = result["kernel_ms"]
    print(f"  speed probe kernel {mid:.3f} ms median, {low:.3f} to {high:.3f} "
          f"(reference {1000 * REF_S:g} ms)")
    if trace:
        print(f"  stdout identical traced/untraced: {result['identical']}; "
              f"{result['spans']} spans in {result['spans_file']}")
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    print(json.dumps(report(run(args.workload, args.seed, args.seconds, trace), trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
