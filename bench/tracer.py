"""Spans around the package's layer entry points, recorded from outside.

:func:`install` swaps wrappers in for the module attributes the package
calls through (``cli.main``, ``harness.run``, each chunk, ``_chunk_rng``,
emission and the analysis functions), so nothing under ``src/`` changes.
Each span is ``(name, start_ns, end_ns, parent_id, span_id, op_id)`` on the
system-wide monotonic clock, so spans from pool workers line up with the
parent's.  Spans stay in memory; each process writes its own file when it
ends.  An attribute that a later version no longer has is skipped: its
layer then reads zero self time and its time is charged to the caller.

:func:`layer_times` turns the spans into self time per layer: a span's
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
import types
from multiprocessing import util as mp_util

# Span name -> layer it is charged to.  A chunk's self time is the round
# kernel: protocols plus the quantum and adversaries code it calls.
LAYER_OF = {
    "cli.main": "cli",
    "cli.emit": "cli.emit",
    "analysis": "analysis",
    "harness.run": "harness",
    "harness.chunk": "protocols",
    "harness.chunk_rng": "harness.chunk_rng",
}
LAYERS = ("cli.startup",) + tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """Span recorder for one process and the pool workers it forks."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.op = 0
        self._ids = itertools.count()
        # Hooked through multiprocessing, which clears its exit finalizers in
        # a new worker before running these hooks.
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker keeps the parent's open spans as its parents
        # but starts with no finished ones; it writes its spans when it exits.
        self.spans = []
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = f"{os.getpid()}:{next(self._ids)}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans.append((name, start, end, parent, span_id, self.op))

        return traced

    def flush(self) -> None:
        if self.spans:
            path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
            with open(path, "a", encoding="utf-8") as handle:
                json.dump(self.spans, handle)
                handle.write("\n")
            self.spans = []


def install(tracer: Tracer):
    """Wrap the layer entry points; returns a function that undoes it."""
    import json as json_module

    from twoway_qkd import cli, harness

    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(json_module.__dict__)
    targets = [
        (cli, "main", "cli.main"),
        (cli, "run", "harness.run"),
        (harness, "run", "harness.run"),
        # Wrapped under its own name, so the pool still pickles it by
        # reference and forked workers run the wrapper.
        (harness, "_run_chunk", "harness.chunk"),
        (harness, "_chunk_rng", "harness.chunk_rng"),
        (cli, "_csv_document", "cli.emit"),
        (json_proxy, "dumps", "cli.emit"),
        (cli, "critical_disturbance", "analysis"),
        (cli, "disturbance_grid", "analysis"),
        (cli, "information_table", "analysis"),
        (cli, "protocol_comparison", "analysis"),
    ]
    saved = []
    for module, attr, name in targets:
        original = getattr(module, attr, None)
        if callable(original):
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
    if getattr(cli, "json", None) is json_module:
        saved.append((cli, "json", json_module))
        cli.json = json_proxy

    def restore() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def read_spans(out_dir: str) -> list[tuple]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                for line in handle:
                    spans.extend(tuple(span) for span in json.loads(line))
    return spans


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_times(spans: list[tuple]) -> dict[str, float]:
    """Self seconds per layer over all spans."""
    children: dict[str, list[tuple[int, int]]] = {}
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for name, start, end, _, span_id, _ in spans:
        self_ns = end - start - _covered(start, end, children.get(span_id, []))
        layer = LAYER_OF[name]
        out[layer] = out.get(layer, 0.0) + self_ns / 1e9
    return out
