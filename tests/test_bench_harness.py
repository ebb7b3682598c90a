"""The benchmark's tracer against the current sources. `bench/tracing.py`
wraps names it reads from module and class dicts (`cli.run_suite`,
`experiments.chunk_rng`, `experiments.boundary`, `mixture.log_psi`,
`experiments.PchipInterpolator`, the experiment functions and each spec's
`draw` and `b_increments`), so a rename of any of them in `src/` breaks
`bench/run.py --trace 1`. Here each workload of `bench/workloads.py`, at its
tiny size, runs once plain and once traced: both give the same output, which
passes the workload's checks, and the traced call yields every per-layer
metric of BENCHMARK.json (the overhead, a ratio of two runs, aside)."""
import json
import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    PER_LAYER = {m["name"] for m in json.load(fh)["per_layer"]} - {"trace.overhead_frac"}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_call_gives_the_plain_output_and_every_layer(name, tmp_path):
    wl = workloads.build(name, 20260826, True, str(tmp_path))
    plain = wl.run(1)
    tracer = tracing.Tracer()
    op = tracer.begin_op()
    t0 = time.perf_counter()
    with tracing.traced(tracer, wl.spec_classes):
        traced = wl.run(1)
    wall = time.perf_counter() - t0
    assert wl.digest(traced) == wl.digest(plain)
    assert wl.check(plain) == [] and wl.check(traced) == []
    metrics = tracing.layer_metrics(tracer, op, wl.cells, wl.files_written(traced), wall)
    assert set(metrics) == PER_LAYER
    # the wrappers were reached, not only installed
    assert metrics["processes.draw_calls"] > 0 and metrics["experiments.chunks"] > 0, metrics
    assert metrics["experiments.self_s"] > 0.0, metrics
    if name.startswith("crossing"):
        assert metrics["mixture.boundary_calls"] > 0, metrics
        assert metrics["experiments.lookup_cells_per_cell"] > 0.0, metrics
