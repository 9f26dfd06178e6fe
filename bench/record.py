"""Record a benchmark baseline: every workload over several seeds.

    python3 bench/record.py --seeds 1-10 --out bench/results/BENCH_baseline.json
    python3 bench/record.py --seeds 1        # one pass of everything, printed only

For each workload this runs ``run.py --trace 0`` once per seed, each in a
fresh process and for BENCHMARK.json's run_seconds, and ``run.py --trace 1``
on the first seed. It saves every run's final JSON line and printed
report, each end-to-end metric's median, quartiles and spread
(interquartile distance over the median), and the machine the runs were
made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL, check=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return {"seed": seed, "result": json.loads(lines[-1]), "report": lines[:-1]}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values), "values": values}
    return out


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "pinning": "none: no CPU pinning, frequency control or cache control was used"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args()
    record = {"date": time.strftime("%Y-%m-%d"), "seconds": SECONDS,
              "machine": machine(), "workloads": {}}
    for name in WORKLOADS:
        runs = [bench(name, seed, 0) for seed in seeds(args.seeds)]
        traced = bench(name, seeds(args.seeds)[0], 1)
        record["workloads"][name] = {"end_to_end": summary(runs), "runs": runs,
                                     "traced": traced}
    for name, entry in record["workloads"].items():
        for metric, stats in entry["end_to_end"].items():
            print(f"{name:18s} {metric:12s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
