"""Spans around the package's public functions, and the per-layer numbers.

The program is not edited: `Tracer.install` replaces each traced function,
in every package module that holds a reference to it, by a wrapper that
records a span; `Tracer.uninstall` puts the originals back.  Spans live in
memory and are written out once, when the benchmark ends.

A span is (id, name, layer, start, end, parent, op, failed, meta).  The
parent is the innermost open span of the same thread; a span opened by a
pool thread with nothing open in it hangs under the innermost open span
of the main thread, which is the call that submitted the work.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

PACKAGE = "dicke_battery"
LAYERS = ("hilbert", "operators", "spectra", "dynamics", "observables", "analysis", "oracle", "cli")


# (module, function, layer, meta): meta maps the call's arguments to the
# numbers the derived metrics need.
TRACED = (
    ("hilbert", "build_sector", "hilbert", None),
    ("hilbert", "initial_state", "hilbert", None),
    ("hilbert", "target_state", "hilbert", None),
    ("dynamics", "sector_operator", "operators", None),
    ("operators", "exact_tc_matrix", "operators", None),
    ("operators", "large_n_matrix", "operators", None),
    ("spectra", "eigendecompose", "spectra", lambda a, k: a[0].dimension),
    ("dynamics", "run", "dynamics", lambda a, k: (min(a[0].N, a[0].n) + 1, a[0].steps)),
    ("dynamics", "evolve", "dynamics", lambda a, k: (a[0].basis.dimension, 1)),
    ("observables", "single_spin_density", "observables", None),
    ("observables", "von_neumann_entropy", "observables", None),
    ("observables", "two_spin_density", "observables", None),
    ("observables", "pairwise_concurrence", "observables", None),
    ("analysis", "universal_flip_time", "analysis", None),
    ("analysis", "detect_flip_time", "analysis", None),
    ("oracle", "brute_force_evolve", "oracle", lambda a, k: (a[0], a[1])),
    ("oracle", "full_to_sector", "oracle", None),
    ("oracle", "reduced_spin_density", "oracle", None),
    ("oracle", "reduced_two_spin_density", "oracle", None),
    ("cli", "main", "cli", None),
)


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int | None
    failed: bool
    meta: object


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def _wrap(self, fn, name: str, layer: str, meta):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = meta(args, kwargs) if meta is not None else None
                tracer.spans.append(
                    Span(span_id, name, layer, start, end, parent, tracer.op, failed, info)
                )

        return traced

    def install(self) -> None:
        """Replace every traced function wherever the package refers to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, function, layer, meta in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], function)
            wrapper = self._wrap(original, f"{module_name}.{function}", layer, meta)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path, record: dict) -> None:
        """Spans plus the run record, gzip-compressed JSON."""
        payload = {"record": record, "fields": list(Span._fields), "spans": [list(s) for s in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(payload, handle)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def layer_metrics(spans: list[Span], ops: int, workload: str) -> dict[str, float]:
    """Per-layer numbers, as means per traced op (ratios excepted).

    A layer's calls and busy time count only its outermost spans, those with
    no ancestor in the same layer, so nested calls are not counted twice.
    Self time is a span's duration minus the part its child spans cover.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def outermost(s: Span) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.layer == s.layer:
                return False
            parent = by_id.get(parent.parent)
        return True

    def self_time(s: Span) -> float:
        kids = [(c.start, c.end) for c in children.get(s.id, ())]
        return (s.end - s.start) - _covered(kids, s.start, s.end)

    outer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for s in spans:
        if outermost(s):
            outer[s.layer].append(s)

    per_op = 1.0 / max(ops, 1)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = len(outer[layer]) * per_op
        metrics[f"{layer}.busy_s"] = sum(s.end - s.start for s in outer[layer]) * per_op

    metrics["cli.self_s"] = sum(self_time(s) for s in outer["cli"]) * per_op

    eig = [s.meta for s in outer["spectra"] if s.name == "spectra.eigendecompose"]
    metrics["spectra.rungs"] = sum(eig) * per_op
    metrics["spectra.max_dim"] = float(max(eig, default=0))

    shapes = [s.meta for s in outer["dynamics"]]
    dynamics_self = sum(self_time(s) for s in outer["dynamics"])
    gflop = sum(4.0 * dim * dim * steps for dim, steps in shapes) / 1e9
    metrics["dynamics.self_s"] = dynamics_self * per_op
    metrics["dynamics.samples"] = sum(steps for _, steps in shapes) * per_op
    metrics["dynamics.amplitude_mb"] = sum(16.0 * dim * steps for dim, steps in shapes) / 1e6 * per_op
    metrics["dynamics.propagate_gflop"] = gflop * per_op
    metrics["dynamics.gflop_per_s"] = gflop / dynamics_self if dynamics_self > 0 else 0.0

    detections = [s for s in spans if s.name == "analysis.detect_flip_time"]
    found = sum(1 for s in detections if not s.failed)
    metrics["analysis.flip_found_ratio"] = found / len(detections) if detections else 0.0

    brute = [s.meta for s in spans if s.name == "oracle.brute_force_evolve"]
    metrics["oracle.full_dim_sum"] = sum(2**N * (n + N + 3) for N, n in brute) * per_op

    overlap = 0.0
    if workload == "sweep":
        wall = sum(s.end - s.start for s in outer["cli"])
        runs = sum(s.end - s.start for s in spans if s.name == "dynamics.run")
        overlap = runs / wall if wall > 0 else 0.0
    metrics["sweep.overlap"] = overlap
    return metrics
