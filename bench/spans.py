"""Span tracing around calls into the h2xr layers, from outside the package.

A `Tracer` records a span (name, start, end, parent, run id) around every
call from one layer into another layer's public functions.  Wrapping
happens at the name the calling module resolves: `jacobi` imports
`integrate_geodesic_batch` and `curvature_tensor_many` by name, `cli` and
`claims` import `integrate_geodesic` by name, and `claims` calls
`jacobi.*` as module attributes, so each of those names is replaced where
it is looked up.  A call made while a span of the callee's own layer is
open gets no span (the finite-difference Christoffel path alone makes
about 160 such calls per RK4 step), except the entry points in
`OWN_LAYER_SPANS`.  `Claim.evaluate` is wrapped on the class and named
after the claim.

Private helpers (leading underscore) are never wrapped: their time is
part of the self time of the public function that calls them.  Spans are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from types import FunctionType

# Layer modules of the package, in the order the report lists them.
LAYERS = ("cli", "config", "claims", "jacobi", "geodesics", "metrics",
          "asymptotics", "invariants")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _trajectory_counts(result):
    trajs = result if isinstance(result, list) else [result]
    return {
        "geodesics.traj_steps": sum(t.n_samples - 1 for t in trajs),
        "geodesics.truncated_rows": sum(1 for t in trajs if t.truncated),
    }


# Spans recorded even inside their own layer: the output writer timed as
# cli.write_s, and each claim evaluated by the ledger.
OWN_LAYER_SPANS = ("cli.write_outputs", "claims.evaluate")

# Work counters, read at the layer boundary from arguments or results.
COUNTERS = {
    "metrics.curvature_tensor_many":
        lambda args, kwargs, result: {"metrics.curvature_points": math.prod(args[1].shape[:-1])},
    "geodesics.integrate_geodesic":
        lambda args, kwargs, result: _trajectory_counts(result),
    "geodesics.integrate_geodesic_batch":
        lambda args, kwargs, result: _trajectory_counts(result),
}


class Tracer:
    """Installs span wrappers on the h2xr layers and collects spans.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original attribute.  `run_id` tags the spans of one
    job repetition.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self.counts = defaultdict(int)
        self.run_id = 0
        self._stack = []         # (span index, layer) of the open spans
        self._saved = []         # (owner, attribute name, original)

    def _wrap(self, name, fn, counter=None, label=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        layer = layer_of(name)
        always = name in OWN_LAYER_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer and not always:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                record = [label(args) if label else name, clock(), 0.0,
                          stack[-1][0] if stack else -1, self.run_id]
                spans.append(record)
                stack.append((index, layer))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"h2xr.{layer}") for layer in LAYERS}
        owners = {f"h2xr.{layer}": layer for layer in LAYERS}
        wrappers = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, FunctionType):
                    continue
                layer = owners.get(value.__module__)
                if layer is None:
                    continue
                name = f"{layer}.{value.__name__}"
                if value not in wrappers:
                    wrappers[value] = self._wrap(name, value, COUNTERS.get(name))
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        claim = modules["claims"].Claim
        original = claim.__dict__["evaluate"]
        self._saved.append((claim, "evaluate", original))
        claim.evaluate = self._wrap("claims.evaluate", original,
                                    label=lambda args: f"claims.{args[0].claim_id}")
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so the result never counts time twice.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[index], key=lambda i: spans[i][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Per-layer self seconds, outermost time per layer, time per span name.

    `layer_total` counts each layer's outermost spans only (a span whose
    ancestors all belong to other layers), so nested calls within one
    layer are not counted twice.  `by_name` is the inclusive time of each
    span name, counting only the outermost occurrence of that name.
    """
    selfs = self_times(spans)
    layer_self = defaultdict(float)
    layer_total = defaultdict(float)
    by_name = defaultdict(float)
    for index, span in enumerate(spans):
        name, start, end, parent, _ = span
        layer = layer_of(name)
        layer_self[layer] += selfs[index]
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if all(layer_of(a) != layer for a in ancestors):
            layer_total[layer] += end - start
        if name not in ancestors:
            by_name[name] += end - start
    return dict(layer_self), dict(layer_total), dict(by_name)
