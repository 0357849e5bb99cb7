"""Spans around the calls into each layer of ``noma_mec``, recorded from outside it.

``Tracer.install`` replaces every public function of the package's modules
with a wrapper, in every module namespace that holds a reference to it: the
package imports names (``from .closed_form import hybrid_powers``), so
patching only the defining module would miss the calls from ``strategy``,
``experiments``, ``oracle`` and ``cli``. Wrappers return the wrapped value and
re-raise the wrapped exception unchanged.

Spans live in flat arrays (function, parent span, op id, start, end, value,
error) until ``write_csv`` writes them out. A layer's self time is the sum of
its spans' durations minus the time covered by their direct child spans; a
layer's ``calls`` counts the spans entered from another layer (or from the
benchmark), so a layer calling itself is one call.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

PACKAGE = "noma_mec"
LAYERS = ("model", "closed_form", "strategy", "oracle",
          "experiments.generate", "experiments.render", "cli")
TRACED_MODULES = ("model", "closed_form", "strategy", "oracle", "experiments", "cli")


def _layer(module: str, name: str) -> str:
    if module == "experiments":
        return "experiments.render" if name.startswith("render_") else "experiments.generate"
    return module


def _surface_bytes(grid) -> int:
    return grid.p1_axis.nbytes + grid.p2_axis.nbytes + grid.energy.nbytes + grid.feasible.nbytes


# Per-call counts taken from a function's return value, at the layer boundary.
_VALUES = {
    "oracle_fixed_t": lambda r: r.iterations,
    "oracle_joint": lambda r: r.iterations,
    "energy_surface": _surface_bytes,
    "deadline_sweep": len,
    "surface_export": len,
    "verification_campaign": lambda s: s.count,
    "render_sweep_csv": len,
    "render_surface_csv": len,
    "render_campaign_summary": len,
    "run": lambda code: code,
}


class Tracer:
    def __init__(self):
        self.functions: list[tuple[str, str]] = []   # (layer, name) per function id
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("d")
        self.error = array("b")
        self.current_op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object, object]] = []

    def _wrap(self, fn, fid: int, measure):
        fn_col, parent, op, start, end = self.fn, self.parent, self.op, self.start, self.end
        value, error, stack, clock = self.value, self.error, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(fn_col)
            fn_col.append(fid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0)
            value.append(0.0)
            error.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = clock()
                stack.pop()
                error[sid] = 1
                raise
            end[sid] = clock()
            stack.pop()
            if measure is not None:
                value[sid] = measure(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules wherever it is referenced."""
        if not self._patches:
            self._patches = self._find_patches()
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Put the originals back; ``install`` wraps them again with the same wrappers."""
        for module, name, original, _ in reversed(self._patches):
            setattr(module, name, original)

    def _find_patches(self) -> list[tuple[types.ModuleType, str, object, object]]:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    fid = len(self.functions)
                    self.functions.append((_layer(short, name), name))
                    wrappers[id(obj)] = self._wrap(obj, fid, _VALUES.get(name))
        return [(module, name, obj, wrappers[id(obj)])
                for module in modules for name, obj in vars(module).items() if id(obj) in wrappers]

    def summary(self, items: int) -> dict[str, float]:
        """Per-layer counts and self times over all recorded spans."""
        n = len(self.fn)
        layer_of = [self.functions[f][0] for f in self.fn]
        child_ns = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child_ns[p] += self.end[sid] - self.start[sid]
        stats = {layer: {"calls": 0, "self_ns": 0, "errors": 0} for layer in LAYERS}
        per_function: dict[str, int] = {}
        value_by_function: dict[str, float] = {}
        for sid in range(n):
            layer = layer_of[sid]
            name = self.functions[self.fn[sid]][1]
            s = stats[layer]
            s["self_ns"] += self.end[sid] - self.start[sid] - child_ns[sid]
            per_function[name] = per_function.get(name, 0) + 1
            p = self.parent[sid]
            if p < 0 or layer_of[p] != layer:
                s["calls"] += 1
                if name == "run":
                    s["errors"] += 1 if (self.error[sid] or self.value[sid] != 0.0) else 0
                else:
                    s["errors"] += self.error[sid]
                value_by_function[name] = value_by_function.get(name, 0.0) + self.value[sid]

        def self_s(layer):
            return stats[layer]["self_ns"] / 1e9

        oracle_calls = stats["oracle"]["calls"]
        evals = value_by_function.get("oracle_fixed_t", 0.0) + value_by_function.get("oracle_joint", 0.0)
        render_bytes = sum(value_by_function.get(f, 0.0) for f in
                           ("render_sweep_csv", "render_surface_csv", "render_campaign_summary"))
        records = sum(value_by_function.get(f, 0.0) for f in
                      ("deadline_sweep", "surface_export", "verification_campaign"))
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = stats[layer]["calls"]
            metrics[f"{layer}.self_s"] = self_s(layer)
        metrics["model.errors"] = stats["model"]["errors"]
        metrics["closed_form.hybrid_powers_per_item"] = per_function.get("hybrid_powers", 0) / items
        metrics["oracle.evals"] = evals
        metrics["oracle.evals_per_call"] = evals / oracle_calls if oracle_calls else 0.0
        metrics["oracle.surface_bytes"] = value_by_function.get("energy_surface", 0.0)
        metrics["experiments.generate.records"] = records
        metrics["experiments.render.bytes"] = render_bytes
        render_s = self_s("experiments.render")
        metrics["experiments.render.bytes_per_s"] = render_bytes / render_s if render_s else 0.0
        metrics["cli.parser_builds"] = per_function.get("build_parser", 0)
        metrics["cli.errors"] = stats["cli"]["errors"]
        return metrics

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,layer,function,parent,op,start_ns,end_ns,value,error\n")
            for sid in range(len(self.fn)):
                layer, name = self.functions[self.fn[sid]]
                fh.write(f"{sid},{layer},{name},{self.parent[sid]},{self.op[sid]},"
                         f"{self.start[sid]},{self.end[sid]},{self.value[sid]!r},{self.error[sid]}\n")
