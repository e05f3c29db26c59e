"""Spans around calls into fluidhit's public functions, recorded from outside.

The tracer wraps every public function of each layer module, at every module
namespace that holds it (``fluid.expm_action``, ``bounds.crossing_time``,
``cli.crossing_time``, the package root, ...), so each call is seen whichever
name the caller used. ``ResolventQuantities.max_neg_qinv`` is a property and is
wrapped on its class. No file under ``src/`` changes: install() patches the
loaded modules and uninstall() puts the original objects back.

A span is (name, op, parent, start_ns, end_ns). op names the benchmark
operation that caused it; parent indexes the enclosing span, -1 at the top.
Spans stay in memory until the run writes them out. A span's self time is its
duration minus the durations of its direct children; calls nest, as
everything runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("cli", "examples", "chain_model", "numerics", "fluid", "phase_type", "bounds", "simulator")

# layers.json maps each reported function to the end-to-end metrics and
# workloads it should move; its "function" entries named module.function are
# the functions whose calls and self time are reported as per-layer metrics.
with open(Path(__file__).resolve().parent / "layers.json", encoding="utf-8") as _fh:
    LAYER_MAP = json.load(_fh)["layers"]
REPORTED = tuple(entry["function"] for entry in LAYER_MAP if "." in entry["function"])


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []
        self._modules = [importlib.import_module("fluidhit")] + [
            importlib.import_module(f"fluidhit.{layer}") for layer in LAYERS
        ]

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, self.op, stack[-1] if stack else -1, clock(), 0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = clock()

        return traced

    def install(self):
        """Wrap each layer's public functions wherever a module holds them."""
        targets = {}
        for layer, module in zip(LAYERS, self._modules[1:]):
            for attr, value in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                    targets[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, targets[id(value)][1])
        resolvent = self._modules[0].chain_model.ResolventQuantities
        prop = vars(resolvent)["max_neg_qinv"]
        self._patches.append((resolvent, "max_neg_qinv", prop))
        resolvent.max_neg_qinv = property(self._wrap("chain_model.max_neg_qinv", prop.fget))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self, keep):
        """{span name: [calls, self seconds]} over the spans whose op passes keep."""
        child = [0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, op, parent, start, end), inner in zip(self.spans, child):
            if keep(op):
                entry = out.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += (end - start - inner) * 1e-9
        return out

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "fields": ["name", "op", "parent", "start_ns", "end_ns"],
                    "spans": self.spans,
                },
                fh,
            )
