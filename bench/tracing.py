"""Span tracing installed from the benchmark's side around calls into causalsde.

Each wrapped function is replaced under the name its caller looks it up
by (``euler`` imported ``sample_increments`` into its own namespace, so
the patch goes on ``causalsde.euler.sample_increments``, not on the
package).  A span records its layer name, start, end and parent span;
spans stay in memory until the run ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter

import numpy as np

# (layer, module, attribute): module-level bindings, patched where looked up.
FUNCTIONS = (
    ("rng.path_stream", "causalsde.euler", "path_stream"),
    ("driver.sample_increments", "causalsde.euler", "sample_increments"),
    ("euler.draw_paths", "causalsde.euler", "_draw_paths"),
    ("intervention.intervene_sde", "causalsde.euler", "intervene_sde"),
    ("intervention.intervene_sem", "causalsde.euler", "intervene_sem"),
    ("rng.block_stream", "causalsde.generator", "block_stream"),
    ("driver.sample_increments", "causalsde.generator", "sample_increments"),
    ("generator.apply_generator", "causalsde.generator", "apply_generator"),
    ("euler.simulate_slices", "causalsde.stats", "simulate_slices"),
    ("generator.compare_generators", "causalsde.stats", "compare_generators"),
    ("stats.energy_distance_test", "causalsde.stats", "energy_distance_test"),
    ("stats.ks_two_sample", "causalsde.stats", "ks_two_sample"),
    ("intervention.intervene_sde", "causalsde.stats", "intervene_sde"),
    ("system.probe_points", "causalsde.stats", "probe_points"),
    ("config.load_config", "causalsde.cli", "load_config"),
    ("euler.check_commutation", "causalsde.cli", "check_commutation"),
)

# (layer, module, class, attribute): methods, patched on the class.
METHODS = (
    ("system.eval_batch", "causalsde.system", "CoefficientField", "eval_batch"),
    ("intervention.sem_evaluate", "causalsde.intervention", "SemModel", "evaluate"),
    ("euler.to_sem_model", "causalsde.euler", "EulerSem", "to_sem_model"),
    ("expr.expression_call", "causalsde.expr", "Expression", "__call__"),
)


def _returned_floats(_args, out):
    return {"values": int(np.size(out)), "max_bytes": int(np.asarray(out).nbytes)}


def _assembled_increments(_args, out):
    # _draw_paths returns (x0, dz); dz is the chunk's whole increment tensor.
    return {"max_bytes": int(out[1].nbytes)}


def _rows(args, _out):
    return {"rows": int(np.shape(args[1])[0])}


MEASURES = {
    "driver.sample_increments": _returned_floats,
    "euler.draw_paths": _assembled_increments,
    "system.eval_batch": _rows,
}


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, _layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans for the wrapped layers while installed."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.sums: dict[str, dict[str, int]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        return self._layer_ids[layer]

    def _record(self, layer: str, values: dict[str, int]) -> None:
        acc = self.sums.setdefault(layer, {})
        for key, v in values.items():
            if key.startswith("max_"):
                acc[key] = max(acc.get(key, 0), v)
            else:
                acc[key] = acc.get(key, 0) + v

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span (for calls the benchmark makes itself).

        A function that :meth:`install` has already wrapped records its own
        span, so it is called as it is rather than wrapped twice.
        """
        if getattr(fn, "_traced_by", None) is self:
            return fn(*args, **kwargs)
        return self._wrap(layer, fn)(*args, **kwargs)

    def _wrap(self, layer: str, fn):
        lid = self._layer_id(layer)
        measure = MEASURES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                idx = len(self.start)
                self.layer.append(lid)
                self.parent.append(stack[-1] if stack else -1)
                self.start.append(0.0)
                self.end.append(0.0)
            stack.append(idx)
            self.start[idx] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                self._record(layer, measure(args, out))
            return out

        wrapper._traced_by = self
        return wrapper

    def install(self) -> None:
        for layer, module, attr in FUNCTIONS:
            self._patch(importlib.import_module(module), attr, layer)
        for layer, module, cls, attr in METHODS:
            self._patch(getattr(importlib.import_module(module), cls), attr, layer)

    def _patch(self, owner, attr: str, layer: str) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return  # the layer no longer exists under this name; it reports zero calls
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.asarray(self.layer, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
        }

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, inclusive time of its outermost spans
        (a span nested in a span of the same layer is not counted twice),
        and self time.

        Self time is a span's duration minus its children's durations.
        A child runs on its parent's thread, so children of one span never
        overlap and their summed durations are the part of the interval
        they cover.
        """
        a = self.arrays()
        layer, parent = a["layer"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        # bit l of above[i] is set when an ancestor of span i is in layer l;
        # spans are allocated in call order, so a parent precedes its child
        above = [0] * len(dur)
        for idx, up in enumerate(self.parent):
            if up >= 0:
                above[idx] = above[up] | (1 << self.layer[up])
        nested = (np.asarray(above, dtype=np.int64) >> layer) & 1 == 1
        out = {}
        for lid, name in enumerate(self.layer_names):
            mine = layer == lid
            out[name] = {
                "calls": int(mine.sum()),
                "s": float(dur[mine & ~nested].sum()),
                "self_s": float(self_time[mine].sum()),
            }
        return out
