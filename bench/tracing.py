"""Spans around the calls into each selfnorm module, recorded from outside
the package.

`traced` swaps public entry points (module attributes and variant methods)
for timing wrappers and restores them on exit; nothing under `src/` changes.
Spans (operation, id, parent, name, start, end) stay in memory until the run
writes them out. `layer_metrics` turns one operation's spans into the
per-layer numbers the benchmark reports.
"""
from __future__ import annotations

import contextlib
import functools
import threading
import time

import numpy as np

from selfnorm import cli, experiments, mixture

# The experiment functions the workloads reach, through `cli` or directly.
_EXPERIMENT_FNS = ("check_supermartingale_mean", "crossing_frequency", "lil_track")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.op = 0
        self._ids = 0
        self._local = threading.local()

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    def add(self, name: str, n: int) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        self._ids += 1
        sid = self._ids
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self.op, sid, parent, name, start, end))

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                self.add(*count(args, out))
            return out
        return wrapper


def _traced_pchip(tracer: Tracer, pchip):
    """PchipInterpolator whose evaluations are the boundary-lookup layer."""
    def make(*args, **kwargs):
        interp = pchip(*args, **kwargs)

        def evaluate(x, *a, **k):
            with tracer.span("experiments.boundary_lookup"):
                out = interp(x, *a, **k)
            tracer.add("lookup_cells", np.size(x))
            return out
        return evaluate
    return make


@contextlib.contextmanager
def traced(tracer: Tracer, spec_classes):
    """Wrap each layer's public entry points for the duration of the block."""
    targets = [(cli, "main", "cli.main", None),
               (cli, "run_suite", "cli.run_suite", None),
               (experiments, "chunk_rng", "experiments.chunk_rng", None),
               (experiments, "boundary", "mixture.boundary", None),
               (mixture, "log_psi", "mixture.log_psi", None)]
    for fn in _EXPERIMENT_FNS:
        for mod in (cli, experiments):
            if hasattr(mod, fn):
                targets.append((mod, fn, f"experiments.{fn}", None))
    definers = {c for cls in spec_classes for c in cls.__mro__
                if "draw" in c.__dict__ or "b_increments" in c.__dict__}
    for cls in definers:
        if "draw" in cls.__dict__:
            targets.append((cls, "draw", "processes.draw",
                            lambda args, out: ("draw_cells", np.size(out))))
        if "b_increments" in cls.__dict__:
            targets.append((cls, "b_increments", "processes.b_increments", None))
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _, _ in targets]
    saved.append((experiments, "PchipInterpolator", experiments.PchipInterpolator))
    try:
        for obj, attr, name, count in targets:
            setattr(obj, attr, tracer.wrap(name, getattr(obj, attr), count))
        experiments.PchipInterpolator = _traced_pchip(tracer, experiments.PchipInterpolator)
        yield tracer
    finally:
        for obj, attr, orig in saved:
            setattr(obj, attr, orig)


def _busy(spans, name):
    return sum((s[5] - s[4] for s in spans if s[3] == name), 0.0)


def _self_time(spans, names):
    """Total duration of the spans with one of `names`, minus their direct
    children's."""
    own = {s[1]: s[5] - s[4] for s in spans if s[3] in names}
    children = sum(s[5] - s[4] for s in spans if s[2] in own)
    return sum(own.values(), 0.0) - children


def layer_metrics(tracer: Tracer, op: int, cells: int, files_written: int,
                  wall: float) -> dict:
    """Per-layer numbers for one traced operation of `wall` seconds. Layers
    that some workloads never reach are given as shares of `wall`."""
    spans = [s for s in tracer.spans if s[0] == op]

    def count(name):
        return tracer.counts.get((op, name), 0)

    def calls(name):
        return sum(1 for s in spans if s[3] == name)

    draw_s = _busy(spans, "processes.draw")
    boundary_calls = calls("mixture.boundary")
    return {
        "processes.draw_s": draw_s,
        "processes.draw_calls": calls("processes.draw"),
        "processes.draw_cells_per_s": count("draw_cells") / draw_s if draw_s else 0.0,
        "processes.b_increments_s": _busy(spans, "processes.b_increments"),
        "mixture.boundary_frac": _busy(spans, "mixture.boundary") / wall,
        "mixture.boundary_calls": boundary_calls,
        "mixture.log_psi_calls": calls("mixture.log_psi"),
        "mixture.log_psi_per_boundary": (calls("mixture.log_psi") / boundary_calls
                                         if boundary_calls else 0.0),
        "experiments.boundary_lookup_frac": _busy(spans, "experiments.boundary_lookup") / wall,
        "experiments.lookup_cells_per_cell": count("lookup_cells") / cells,
        "experiments.self_s": _self_time(
            spans, {f"experiments.{fn}" for fn in _EXPERIMENT_FNS}),
        "experiments.chunks": calls("experiments.chunk_rng"),
        "cli.self_frac": _self_time(spans, {"cli.main"}) / wall,
        "cli.files_written": files_written,
    }
