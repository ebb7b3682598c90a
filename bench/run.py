"""Benchmark of the selfnorm Monte Carlo engine.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in a
fresh process; S defaults to its `run_seconds`. Run from the repository
root; selfnorm is imported from `src/` next to this directory and nowhere
else.

With `--trace 0` the run makes one untimed warm-up call, repeats the
workload for S seconds at workers=1 with a fixed reference kernel timed
between the calls, makes one workers=2 call where the workload defines it,
and reports the end-to-end metrics; set-up time is measured in fresh
processes that import selfnorm and build the inputs, each followed by a
fresh process that imports only numpy and scipy. With `--trace 1` it warms
up likewise, then alternates untraced and traced workers=1 calls, reports the
per-layer metrics, and writes the spans to `bench/out/`. Every call is
checked; a call that raises, fails a check, or gives output whose digest
differs from the run's first counts as failed. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Caches are not dropped, CPUs are not pinned and no machine setting is
changed: the numbers are for a shared machine as it is.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import selfnorm  # noqa: E402

if not os.path.abspath(selfnorm.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"selfnorm imported from {selfnorm.__file__}, not from {ROOT}/src")

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 20260826
SETUP_PROBES = 2
# Each timed call sits between two blocks of reference-kernel samples, each
# block as long as this share of the call: one 0.2 s sample varies by 15-30 %
# with the machine's sub-second jitter, and the samples right after a call
# run up to 25 % slower than later ones, so a call is divided by the median
# of the blocks on both sides of it.
REFERENCE_SHARE = 0.2
# Set-up time is mostly the import of numpy and scipy, which drifts with the
# machine by tens of percent over minutes. Each set-up probe is paired with a
# fresh process that imports just these, and setup_s is the median ratio of
# the two, given at the machine speed at which this import takes
# BASELINE_NOMINAL_S.
BASELINE_IMPORT = ("import numpy, scipy.integrate, scipy.interpolate, scipy.linalg, "
                   "scipy.optimize, scipy.stats")
BASELINE_NOMINAL_S = 1.0
NOTE = ("caches are not dropped, CPUs are not pinned and no machine setting "
        "is changed: the run acts only on its own processes and files")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(args, wl) -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{idx}/level").strip()
        kind = _read(f"{base}/{idx}/type").strip()
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(f"{base}/{idx}/size").strip()
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "selfnorm": selfnorm.__version__,
            "git_commit": commit, "workload": args.workload, "seed": args.seed,
            "run_seconds": args.seconds, "tiny": args.tiny, "sizes": wl.sizes,
            "note": NOTE}


class Ops:
    """Runs workload calls, checks each one, and counts the failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.problems: list[str] = []
        self.digest = None

    @property
    def failed(self) -> int:
        return len(self.problems)

    def run(self, workers: int):
        """Wall time and files written of one checked call, or (None, 0)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(workers)
            wall = time.perf_counter() - t0
            problems = self.wl.check(out)
            digest = self.wl.digest(out)
        except Exception as exc:  # a raising call is a failed operation
            self.problems.append(f"call {self.attempted} (workers={workers}): "
                                 f"{type(exc).__name__}: {exc}")
            return None, 0
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"output digest {digest} differs from {self.digest}")
        if problems:
            self.problems.append(f"call {self.attempted} (workers={workers}): "
                                 + "; ".join(problems))
            return None, 0
        return wall, self.wl.files_written(out)


def _median(xs):
    return statistics.median(xs) if xs else None


def setup_probe_times(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh set-up processes, each followed by a fresh
    process that only imports the libraries selfnorm's modules import."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    probes, baselines = [], []
    for _ in range(SETUP_PROBES):
        for argv, times in ((cmd, probes), ([sys.executable, "-c", BASELINE_IMPORT], baselines)):
            t0 = time.perf_counter()
            subprocess.run(argv, check=True, timeout=120)
            times.append(time.perf_counter() - t0)
    return probes, baselines


def _repeat(seconds: float, one_round) -> None:
    """Call `one_round` once, then again while a round as long as the last
    still ends within `seconds` of the start."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def reference_s() -> float:
    """Wall time of a fixed kernel with the engine's mix of work: Philox
    draws, a cumulative sum, a table lookup and an interpreted loop. Timed
    around each call, it tracks how fast the machine is running at that
    moment; on a shared machine that can drift by tens of percent within
    minutes."""
    t0 = time.perf_counter()
    rng = numpy.random.Generator(numpy.random.Philox(12345))
    d = rng.integers(0, 2, size=(82, 32768)).astype(float) * 2.0 - 1.0
    c = numpy.cumsum(d * numpy.exp(rng.standard_normal(d.shape)), axis=1)
    grid = numpy.log(numpy.geomspace(1e-4, 1.6e6, 160))
    numpy.interp(numpy.log1p(numpy.abs(c)), grid, numpy.sqrt(grid - grid[0]))
    acc = 0.0
    for i in range(200_000):
        acc += i ** 0.5
    return time.perf_counter() - t0


def references(wall: float) -> list[float]:
    """Reference times, at least one, adding up to REFERENCE_SHARE * wall."""
    refs = [reference_s()]
    while sum(refs) < REFERENCE_SHARE * wall:
        refs.append(reference_s())
    return refs


def warm_up(ops) -> float:
    """One checked, untimed call, for its wall time or 0: the first call in a
    process runs 7-19 % slower than the next ones while lazy set-up finishes
    and fresh memory is touched."""
    return ops.run(1)[0] or 0.0


def end_to_end(args, wl, ops):
    setup, baseline = setup_probe_times(args)
    last_wall = warm_up(ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    blocks = [references(last_wall)]
    walls, per_ref = [], []

    def one_round():
        nonlocal last_wall
        wall, _ = ops.run(1)
        last_wall = wall or last_wall
        blocks.append(references(last_wall))
        if wall is not None:
            walls.append(wall)
            per_ref.append(wall / statistics.median(blocks[-2] + blocks[-1]))

    _repeat(args.seconds, one_round)
    w1 = _median(walls)
    # Raw times follow the machine's drift, which no bound can absorb, so
    # they are printed and only their ratios to the reference kernel and to
    # the baseline import are gated.
    metrics = {"setup_s": BASELINE_NOMINAL_S * _median([p / b for p, b in zip(setup, baseline)]),
               "wall_per_ref": _median(per_ref),
               "peak_rss_mb": rss_mb}
    info = {"setup_raw_s": (_median(setup), "s"), "wall_s": (w1, "s"),
            "cells_per_s": (wl.cells / w1 if w1 else None, "1/s")}
    samples = {"setup_raw_s": setup, "baseline_import_s": baseline,
               "wall_s": walls, "reference_s": blocks}
    if wl.w2:
        # The workers=2 call comes after the timed ones: alternating them with
        # workers=1 calls made those less steady, and two threads on a small
        # shared machine time too unsteadily to gate on. Its output must
        # still match workers=1.
        w2, _ = ops.run(2)
        info["wall_w2_s"] = (w2, "s")
        info["speedup_w2"] = (w1 / w2 if w1 and w2 else None, "ratio")
    return metrics, info, samples


def per_layer(args, wl, ops, prov):
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    order = [False, True]

    def one_round():
        for with_trace in order:
            if not with_trace:
                wall, _ = ops.run(1)
                if wall is not None:
                    plain.append(wall)
                continue
            op = tracer.begin_op()
            with tracing.traced(tracer, wl.spec_classes):
                wall, files = ops.run(1)
            if wall is not None:
                traced.append(wall)
                layers.append(tracing.layer_metrics(tracer, op, wl.cells, files, wall))
        order.reverse()

    warm_up(ops)
    start = time.perf_counter()
    _repeat(args.seconds, one_round)
    metrics = {k: _median([m[k] for m in layers]) for k in (layers[0] if layers else ())}
    if traced and plain:
        metrics["trace.overhead_frac"] = _median(traced) / _median(plain) - 1.0
    path = os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "layers": layers,
                   "span_fields": ["op", "id", "parent", "name", "start_s", "end_s"],
                   "spans": [(o, i, p, n, s - start, e - start)
                             for o, i, p, n, s, e in tracer.spans]}, fh)
    return metrics, {}, {"wall_s": plain, "traced_wall_s": traced, "spans_file": path}


def run_all(args) -> int:
    """Each workload in its own process; prints their output and a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the inputs (self-test only)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs and exit (set-up time probe)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=OUT)
    try:
        wl = workloads.build(args.workload, args.seed, args.tiny, scratch)
        if args.setup_probe:
            return 0
        prov = provenance(args, wl)
        ops = Ops(wl)
        if args.trace:
            values, info, samples = per_layer(args, wl, ops, prov)
        else:
            values, info, samples = end_to_end(args, wl, ops)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("provenance " + json.dumps(prov, sort_keys=True))
    print("samples " + json.dumps(samples))
    print(f"output_digest {ops.digest}")
    for p in ops.problems:
        print(f"FAILED {p}")
    print(f"failed_frac = {ops.failed / ops.attempted!r} frac "
          f"({ops.failed} of {ops.attempted} calls)")
    for name, (value, unit) in info.items():
        print(f"{name} = {value!r} {unit}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values.get(name), "unit": unit}
        print(f"{name} = {values.get(name)!r} {unit}")
    print(json.dumps({"correct": ops.failed == 0 and all(
        m["value"] is not None for m in metrics.values()),
        "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
