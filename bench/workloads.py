"""The three benchmark workloads.

Each operation is one whole CLI call on its own generated instance: the
generator's random stream is seeded from the workload name, the run seed
and the operation index, so every operation has its own labels and
descriptor draws and a cache that lived across calls could not pass
itself off as a per-operation gain.

A workload is a cycle of ``round`` operation shapes (sizes, modes). The
runner stops only at the end of a cycle, so every run holds the same mix.
Cycles have an odd length where the shapes differ in cost, so the median
operation falls inside one shape rather than between two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import instances


@dataclass(frozen=True)
class Op:
    """One CLI call: its argument list and the check of its result."""

    argv: list[str]
    check: Callable[[int, str], str | None]
    label: str


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


# homology_surfaces: one of each grid size per cycle; the surface kind
# advances on its own period of 4, so every kind meets every size. The
# three middle sizes cost within 40% of each other, so the median and the
# tail fall among 24 of a run's 40 operations rather than among the 8 of
# one size.
SURFACE_SIZES = (12, 17, 18, 19, 24)          # 864 to 3,456 cells
SURFACE_KINDS = ("torus", "klein", "rp2", "sphere")


def homology_op(rng: random.Random, index: int, work: Path) -> Op:
    kind = SURFACE_KINDS[index % len(SURFACE_KINDS)]
    k = SURFACE_SIZES[index % len(SURFACE_SIZES)]
    surf = instances.surface(kind, k, rng)
    path = _write(work / "surface.cw", surf.text(rng))
    return Op(["homology", path, "--generators"],
              lambda code, out: checks.check_homology(surf, code, out),
              f"{kind} k={k} ({len(surf.dims)} cells)")


# persist_cooling: a 216-cell torus, 4 steps, 16 levels of 1/8 cooling by
# 2 per step (64 entries). Modes alternate within a cycle. A retain ball
# keeps only the triangles inside it, and a small one leaves a complex
# half as costly as a remove; the retain radii (10 and 12 levels) and the
# remove radii (0 and 1 level) were chosen so that every shape costs
# about the same, and the median and tail are not set by the boundary
# between two shapes.
COOLING_SHAPES = (("remove", 0.0), ("retain", 1.5), ("remove", 0.125), ("retain", 1.25))
COOLING_K, COOLING_STEPS, COOLING_LEVELS, COOLING_RATE = 6, 4, 16, 2


def persist_op(rng: random.Random, index: int, work: Path) -> Op:
    mode, delta = COOLING_SHAPES[index % len(COOLING_SHAPES)]
    surf = instances.surface("torus", COOLING_K, rng)
    cool = instances.cooling(surf, COOLING_STEPS, COOLING_LEVELS, COOLING_RATE, rng)
    lines = [f"complex {Path(_write(work / 'base.cw', surf.text(rng))).name}"]
    for s, (theta, values) in enumerate(zip(cool.thetas, cool.values)):
        csv = _write(work / f"step{s}.csv", instances.descriptor_csv(values, rng))
        lines.append(f"step {instances.fmt(theta)} {Path(csv).name}")
    path = _write(work / "cooling.scenario", "\n".join(lines) + "\n")
    return Op(["persist", path, "--mode", mode, "--delta", repr(delta)],
              lambda code, out: checks.check_persist(cool, mode, delta, code, out),
              f"{mode} delta={delta}")


# gauge_cover: a 600-cell torus with 24 charts (a 6 x 4 lattice) over
# 5 x 5 windows; every other cover carries 3 overrides. Honest and broken
# covers cost the same.
GAUGE_K, GAUGE_GRID, GAUGE_WINDOW, GAUGE_OVERRIDES = 10, (6, 4), 5, 3


def gauge_op(rng: random.Random, index: int, work: Path) -> Op:
    surf = instances.surface("torus", GAUGE_K, rng)
    overrides = GAUGE_OVERRIDES if index % 2 else 0
    cover = instances.cover(surf, GAUGE_GRID, GAUGE_WINDOW, overrides, rng)
    cw = _write(work / "base.cw", surf.text(rng))
    csv = _write(work / "probe.csv", instances.descriptor_csv(cover.probe, rng))
    chart = _write(work / "cover.chart", cover.text(rng))
    return Op(["gauge", cw, "--probe", csv, "--charts", chart],
              lambda code, out: checks.check_gauge(cover, code, out),
              f"{overrides} overrides")


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is in BENCHMARK.json and NOTES.md."""

    name: str
    make: Callable[[random.Random, int, Path], Op]
    round: int

    def op(self, seed: int, index: int, work: Path) -> Op:
        return self.make(random.Random(f"{self.name}:{seed}:{index}"), index, work)


WORKLOADS = {w.name: w for w in (
    Workload("homology_surfaces", homology_op, len(SURFACE_SIZES)),
    Workload("persist_cooling", persist_op, len(COOLING_SHAPES)),
    Workload("gauge_cover", gauge_op, 2),
)}
