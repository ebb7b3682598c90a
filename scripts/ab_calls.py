"""Wall time of one benchmark workload's calls, one tree against another, in
fresh processes that run only the workload.

    python3 scripts/ab_calls.py PARENT_DIR CHANGE_DIR --workload NAME
        [--pairs 10] [--calls 6] [--seed N]

PARENT_DIR and CHANGE_DIR are checkouts of the repository. Each pair runs
one fresh process per side; the side that goes first alternates from pair to
pair. A process puts <dir>/src and <dir>/bench first on sys.path, builds the
workload with `workloads.build`, makes one untimed call, then `--calls`
timed calls at workers=1, and prints one JSON line: the median call time in
seconds, minor page faults per timed call (getrusage), its peak RSS in MB
(ru_maxrss) and the digest of its last output. At the end the script prints
each side's median and quartiles of the per-process medians, the pairs in
which the change's median was lower, and whether every digest agrees.

Unlike `bench/run.py`, no reference kernel runs between the calls, so the
heap the workload leaves behind is the one its next call finds, and a call
that faults its heap in again shows in both the time and the fault count.
The script starts no threads and writes nothing under bench/: the output of
a workload that writes files goes to a temporary directory, removed at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def _child(tree, name, seed, calls):
    """One process's calls on `tree`'s sources; prints its JSON line."""
    tree = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import selfnorm
    import workloads

    if not os.path.abspath(selfnorm.__file__).startswith(os.path.join(tree, "src") + os.sep):
        sys.exit(f"selfnorm imported from {selfnorm.__file__}, not from {tree}/src")

    scratch = tempfile.mkdtemp(prefix="ab_calls_")
    try:
        wl = workloads.build(name, seed, False, scratch)
        wl.run(1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            out = wl.run(1)
            times.append(time.perf_counter() - t0)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(json.dumps({"call_s": statistics.median(times),
                          "minflt_per_call": (usage.ru_minflt - faults) / calls,
                          "maxrss_mb": usage.ru_maxrss / 1024.0,
                          "digest": wl.digest(out)}))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--calls", type=int, default=6)
    ap.add_argument("--seed", type=int, default=20260826)
    ap.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return _child(args.child, args.workload, args.seed, args.calls)
    if args.change is None or args.pairs < 2 or args.calls < 1:
        ap.error("give PARENT_DIR and CHANGE_DIR, --pairs >= 2 and --calls >= 1")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            line = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", sides[side],
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--calls", str(args.calls)],
                check=True, capture_output=True, text=True).stdout.splitlines()[-1]
            runs[side].append(json.loads(line))
            print(side, line, flush=True)
    summary = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
               "calls": args.calls}
    for side, rs in runs.items():
        summary[side] = {key: _quartiles([r[key] for r in rs])
                         for key in ("call_s", "minflt_per_call", "maxrss_mb")}
    summary["change_wins"] = sum(c["call_s"] < p["call_s"]
                                 for p, c in zip(runs["parent"], runs["change"]))
    summary["digests_agree"] = len({r["digest"] for rs in runs.values() for r in rs}) == 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
