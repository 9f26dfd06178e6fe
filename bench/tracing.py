"""Span tracing of descell from outside the program.

``Tracer.install`` wraps every public function of the descell modules,
plus three ``CellComplex`` methods, wherever a module binds it: it scans
each module's ``__dict__`` for the function object and replaces that
binding, which also catches the names ``cli``, ``descriptive`` and
``persistence`` bring in with ``from ... import``. ``uninstall`` puts the
originals back, so untraced operations run the unmodified program.

A wrapper records one span (id, parent, name, layer, start, end) per
call; the runner opens a root span per operation. Counts are taken from
arguments and results, never from inside the program. Spans stay in
memory and are written out when the run ends.

Each layer's self time is the time its spans cover minus the time their
child spans cover. The program runs in one thread with no queue, so no
layer has a waiting time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "formats", "cellcomplex", "homology", "descriptive", "persistence", "bundle")
TRACED_METHODS = ("__init__", "validate", "boundary_matrix")

# Self-time metrics: metric -> span names whose self time it sums.
# formats.parse_s is the formats layer's self time outside the emitters.
SELF_TIMES = {
    "formats.emit_s": lambda n: n.startswith("emit_"),
    "cellcomplex.construct_s": lambda n: n == "CellComplex.__init__",
    "cellcomplex.validate_s": lambda n: n == "CellComplex.validate",
    "cellcomplex.boundary_matrix_s": lambda n: n == "CellComplex.boundary_matrix",
    "homology.homology_self_s": lambda n: n == "homology",
    "homology.rank_mod2_s": lambda n: n == "rank_mod2",
    "homology.cycle_basis_s": lambda n: n == "cycle_basis",
    "descriptive.derive_s": lambda n: n in ("derive_subcomplex", "ball_members"),
    "persistence.signature_self_s": lambda n: n == "signature",
    "bundle.verify_cocycle_self_s": lambda n: n == "verify_cocycle",
    "bundle.transition_s": lambda n: n == "transition",
}
CALL_COUNTS = {
    "formats.parse_calls": lambda n: n.startswith("parse_"),
    "cellcomplex.construct_calls": lambda n: n == "CellComplex.__init__",
    "cellcomplex.validate_calls": lambda n: n == "CellComplex.validate",
    "cellcomplex.boundary_matrix_calls": lambda n: n == "CellComplex.boundary_matrix",
    "homology.homology_calls": lambda n: n == "homology",
    "homology.rank_mod2_calls": lambda n: n == "rank_mod2",
    "homology.cycle_basis_calls": lambda n: n == "cycle_basis",
    "descriptive.derive_calls": lambda n: n == "derive_subcomplex",
    "bundle.transition_calls": lambda n: n == "transition",
}


class Tracer:
    """Installs span-recording wrappers into the descell modules."""

    def __init__(self, package):
        self._layers = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                        for layer in LAYERS}
        self._modules = [package, *self._layers.values()]
        self._spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        self._op = 0
        self._t_base = perf_counter()
        # Values taken from arguments and results during the current op.
        self._texts: list[str] = []
        self._matrices: list = []
        self._counts: dict[str, int] = defaultdict(int)
        self._removed_sets: set = set()
        self._pairs: set = set()
        # Run totals.
        self.totals: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._pending: tuple[dict, dict] = ({}, {})
        self._names: dict[str, int] = {}
        self._out = {k: array("q") for k in ("op", "id", "parent", "name")}
        self._out.update({k: array("d") for k in ("start", "end")})

    # -- hooks: counts from arguments and results ------------------------

    def _hooks(self):
        c = self._counts

        def parse(args, kwargs, result):
            self._texts.append(args[0] if args else kwargs.get("text", ""))

        def boundary_matrix(args, kwargs, result):
            self._matrices.append(result)

        def rank_mod2(args, kwargs, result):
            c["columns"] += args[0].shape[1]

        def cycle_basis(args, kwargs, result):
            complex, p = args[0], args[1]
            if p >= 1:
                c["columns"] += len(complex.cells_of_dim(p))

        def homology(args, kwargs, result):
            c["generators"] += sum(len(r.generators) for r in result.records)

        def derive(args, kwargs, result):
            c["removed"] += len(result.removed)
            self._removed_sets.add(result.removed)

        def signature(args, kwargs, result):
            c["entries"] += len(result.thetas) * len(result.alphas)

        def transition(args, kwargs, result):
            self._pairs.add((args[0].id, args[1].id))

        hooks = {"boundary_matrix": boundary_matrix, "rank_mod2": rank_mod2,
                 "cycle_basis": cycle_basis, "homology": homology,
                 "derive_subcomplex": derive, "signature": signature,
                 "transition": transition}
        return lambda name: parse if name.startswith("parse_") else hooks.get(name)

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook):
        spans, stack, ids = self._spans, self._stack, self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, layer, t0, t1))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        hook_for = self._hooks()
        cls = self._layers["cellcomplex"].CellComplex
        for meth in TRACED_METHODS:
            fn = cls.__dict__[meth]
            self._installed.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"CellComplex.{meth}", "cellcomplex", hook_for(meth)))
        for layer, owner in self._layers.items():
            for name, fn in list(vars(owner).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != owner.__name__):
                    continue
                wrapper = self._wrap(fn, name, layer, hook_for(name))
                for module in self._modules:
                    for bound, value in list(vars(module).items()):
                        if value is fn:
                            self._installed.append((module, bound, fn))
                            setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for target, name, fn in reversed(self._installed):
            setattr(target, name, fn)
        self._installed.clear()

    @property
    def bindings(self) -> list[tuple[str, str]]:
        """(module or class name, bound name) of every installed wrapper."""
        return [(getattr(t, "__name__", str(t)), n) for t, n, _ in self._installed]

    # -- one operation ------------------------------------------------------

    def begin_op(self) -> None:
        self._op += 1
        self._spans.clear()
        self._stack[:] = [0]
        self._texts.clear()
        self._matrices.clear()
        self._counts.clear()
        self._removed_sets.clear()
        self._pairs.clear()

    def end_op(self, t0: float, t1: float) -> None:
        """Close the root span [t0, t1]; ``commit`` folds the op into the
        run totals."""
        spans = self._spans
        spans.append((0, -1, "op", "cli", t0, t1))
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, s0, s1 in spans:
            child_time[parent] += s1 - s0
        times: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for sid, _, name, layer, s0, s1 in spans:
            own = (s1 - s0) - child_time[sid]
            times[f"{layer}.self"] += own
            for metric, match in SELF_TIMES.items():
                if match(name):
                    times[metric] += own
            for metric, match in CALL_COUNTS.items():
                if match(name):
                    counts[metric] += 1
        times["op_s"] = t1 - t0
        counts["formats.input_bytes"] = sum(len(t.encode("utf-8")) for t in self._texts)
        counts["cellcomplex.boundary_nnz"] = sum(int(m.sum()) for m in self._matrices)
        counts["homology.columns_reduced"] = self._counts["columns"]
        counts["homology.generators"] = self._counts["generators"]
        counts["descriptive.removed_cells"] = self._counts["removed"]
        counts["descriptive.distinct_sets"] = len(self._removed_sets)
        counts["persistence.entries"] = self._counts["entries"]
        counts["bundle.distinct_pairs"] = len(self._pairs)
        self._pending = (times, counts)
        self._keep(spans)
        spans.clear()

    def commit(self, scale: float) -> None:
        """Fold the last op into the run totals, its times multiplied by
        ``scale`` (the runner's machine-speed factor)."""
        times, counts = self._pending
        for key, value in times.items():
            self.totals[key] += value * scale
        for key, value in counts.items():
            self.totals[key] += value
        self.ops += 1

    def _keep(self, spans) -> None:
        out, base, op = self._out, self._t_base, self._op
        for sid, parent, name, layer, s0, s1 in spans:
            key = f"{layer}:{name}"
            out["op"].append(op)
            out["id"].append(sid)
            out["parent"].append(parent)
            out["name"].append(self._names.setdefault(key, len(self._names)))
            out["start"].append(s0 - base)
            out["end"].append(s1 - base)

    # -- results ---------------------------------------------------------------

    def metrics(self, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics, named as in BENCHMARK.json. Timings and counts
        are per operation; ratios are over the whole run. ``untraced_s`` is
        the total untraced op time of the same instances, scaled as the
        commits were."""
        tot, n = self.totals, max(self.ops, 1)
        out = {"cli.self_s": tot["cli.self"] / n,
               "formats.parse_s": (tot["formats.self"] - tot["formats.emit_s"]) / n}
        for metric in list(SELF_TIMES) + list(CALL_COUNTS):
            out[metric] = tot[metric] / n
        for metric in ("formats.input_bytes", "cellcomplex.boundary_nnz",
                       "homology.columns_reduced", "homology.generators",
                       "descriptive.removed_cells", "persistence.entries"):
            out[metric] = tot[metric] / n
        calls = tot["descriptive.derive_calls"]
        out["descriptive.distinct_ratio"] = tot["descriptive.distinct_sets"] / calls if calls else 0.0
        calls = tot["bundle.transition_calls"]
        out["bundle.transition_distinct_ratio"] = tot["bundle.distinct_pairs"] / calls if calls else 0.0
        for layer in LAYERS:
            out[f"{layer}.share"] = tot[f"{layer}.self"] / tot["op_s"] if tot["op_s"] else 0.0
        out["trace_overhead_ratio"] = tot["op_s"] / untraced_s if untraced_s else 0.0
        return out

    def write_spans(self, path) -> int:
        """Write every recorded span as gzipped CSV; returns the span count."""
        names = {i: key for key, i in self._names.items()}
        out = self._out
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("op,span,parent,layer,name,start_s,end_s\n")
            for op, sid, parent, name, s0, s1 in zip(
                    out["op"], out["id"], out["parent"], out["name"],
                    out["start"], out["end"]):
                layer, fn = names[name].split(":", 1)
                fh.write(f"{op},{sid},{parent},{layer},{fn},{s0:.9f},{s1:.9f}\n")
        return len(out["op"])
