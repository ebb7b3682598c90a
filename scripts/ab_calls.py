"""Wall time of one benchmark workload's calls, one tree against another, in
fresh processes that run only the workload; or, with --bench, whole
`bench/run.py` runs of both trees, alternated, and their end-to-end metrics.

    python3 scripts/ab_calls.py PARENT_DIR CHANGE_DIR --workload NAME
        [--pairs 10] [--calls 6] [--seed N]
    python3 scripts/ab_calls.py PARENT_DIR CHANGE_DIR --bench
        [--pairs 10] [--seed N] [--seconds S] [--out FILE]

PARENT_DIR and CHANGE_DIR are checkouts of the repository. Each pair runs
one fresh process per side; the side that goes first alternates from pair to
pair, the parent first in the first pair.

Workload mode: a process puts <dir>/src and <dir>/bench first on sys.path,
builds the workload with `workloads.build`, makes one untimed call, then
`--calls` timed calls at workers=1, and prints one JSON line: the median call
time in seconds, minor page faults per timed call (getrusage), its peak RSS
in MB (ru_maxrss) and the digest of its last output. At the end the script
prints each side's median and quartiles of the per-process medians, the
pairs in which the change's median call time was lower (`change_wins`) and
those in which its peak RSS was (`change_lower_maxrss`), and whether every
digest agrees. Unlike `bench/run.py`, no reference kernel runs between the
calls, so the heap the workload leaves behind is the one its next call
finds, and a call that faults its heap in again shows in both the time and
the fault count. The output of a workload that writes files goes to a temporary
directory, removed at exit.

Bench mode: a process is `<dir>/bench/run.py --workload all --trace 0 --seed
N [--seconds S]`, run in <dir>. From each workload's output the script reads
its `provenance` line, its `output_digest` line and its last JSON line
(correct, attempted, failed, metrics). It prints one line a workload and
end-to-end metric (BENCHMARK.json's `end_to_end`, read from CHANGE_DIR), and
with --out writes a JSON file whose `workloads` block holds, for each
workload: both sides' distinct digests; the calls attempted and failed; and
for each metric both sides' runs in pair order, their medians and quartiles
and the pairs in which the change was better. Each side's `provenance` adds
to its first workload's line what the tree held before the first run
(`_src_state`): `src_sha256`, a hash of its src/ files, and `src_clean`,
whether git sees no change under src/ (null outside a git checkout), as
`bench/run.py` records `git rev-parse HEAD` however dirty the tree is.

The script itself starts no threads and writes nothing under bench/;
`bench/run.py` makes and removes its scratch directories under
<dir>/bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
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
    if len(xs) == 1:  # a single run is its own median and quartiles
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _order(pairs):
    """The sides of each pair in run order: the parent first in the first
    pair, and in every other pair after it."""
    for i in range(pairs):
        yield i, ("parent", "change") if i % 2 == 0 else ("change", "parent")


def _bench_run(tree, seed, seconds):
    """One `bench/run.py --workload all --trace 0` run in `tree`: for each
    workload, its provenance, output digest and last JSON line."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", "all",
           "--trace", "0", "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    runs, current = {}, None
    for line in out.splitlines():
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
            current = runs[prov["workload"]] = {"provenance": prov}
        elif current is not None and line.startswith("output_digest "):
            current["digest"] = line.split(" ", 1)[1]
        elif current is not None and line.startswith("{"):
            current.update(json.loads(line))  # the workload's last line
            current = None  # the summary of all workloads follows the last
    return runs


def _src_state(tree):
    """`src_sha256`: the sha256 of tree's src/ files, over their sorted
    relative paths and bytes, bytecode caches aside; `src_clean`: whether
    `git status --porcelain -- src` is empty, or None if tree is not a git
    checkout."""
    src, h, files = os.path.join(tree, "src"), hashlib.sha256(), []
    for d, dirs, fs in os.walk(src):
        dirs[:] = [x for x in dirs if x != "__pycache__"]
        files += [os.path.relpath(os.path.join(d, f), src) for f in fs]
    for rel in sorted(files):
        with open(os.path.join(src, rel), "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode() + data)
    clean = None
    if os.path.exists(os.path.join(tree, ".git")):
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=tree,
                                check=True, capture_output=True, text=True).stdout
        clean = status == ""
    return {"src_sha256": h.hexdigest(), "src_clean": clean}


def _bench(sides, args):
    """Alternating pairs of whole benchmark runs; prints and returns the
    summary, whose `workloads` block is a BENCH file's."""
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    state = {side: _src_state(tree) for side, tree in sides.items()}
    runs = {side: [] for side in sides}
    for i, order in _order(args.pairs):
        for side in order:
            runs[side].append(_bench_run(sides[side], args.seed, args.seconds))
            print(f"pair {i + 1} {side} done", flush=True)
    block, lines = {}, []
    for name in runs["parent"][0]:
        per = {side: [r[name] for r in rs] for side, rs in runs.items()}
        w = block[name] = {
            "output_digest": {side: sorted({r["digest"] for r in rs})
                              for side, rs in per.items()},
            "failed": {**{side: sum(r["failed"] for r in rs) for side, rs in per.items()},
                       **{f"attempted_{side}": sum(r["attempted"] for r in rs)
                          for side, rs in per.items()}}}
        for metric, better in metrics.items():
            vals = {side: [r["metrics"][metric]["value"] for r in rs]
                    for side, rs in per.items()}
            q = {side: _quartiles(v) for side, v in vals.items()}
            won = sum((c < p) if better == "lower" else (c > p)
                      for p, c in zip(vals["parent"], vals["change"]))
            w[metric] = {**vals,
                         **{f"{side}_median": q[side]["median"] for side in vals},
                         **{f"{side}_quartiles": [q[side]["q1"], q[side]["q3"]]
                            for side in vals},
                         f"change_{better}_pairs": won}
            p, c = q["parent"]["median"], q["change"]["median"]
            lines.append(f"{name} {metric} {p:.4g} [parent quartiles {q['parent']['q1']:.4g}, "
                         f"{q['parent']['q3']:.4g}] -> {c:.4g} ({100.0 * (c / p - 1.0):+.1f} %), "
                         f"change {better} in {won} of {args.pairs} pairs")
        same = w["output_digest"]["parent"] == w["output_digest"]["change"]
        lines.append(f"{name} digests {'agree' if same else 'DIFFER'}: "
                     f"{w['output_digest']}; failed {w['failed']}")
    command = (f"python3 bench/run.py --workload all --trace 0 --seed {args.seed}"
               + (f" --seconds {args.seconds:g}" if args.seconds is not None else ""))
    summary = {"command": command, "seed": args.seed, "pairs": args.pairs,
               "order": "odd pairs run the parent first, even pairs the change first",
               "provenance": {side: {**rs[0][next(iter(rs[0]))]["provenance"], **state[side]}
                              for side, rs in runs.items()},
               "workloads": block, "summary": lines}
    print("\n".join(lines))
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workload")
    ap.add_argument("--bench", action="store_true",
                    help="alternate whole bench/run.py runs instead of one workload's calls")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--calls", type=int, default=6)
    ap.add_argument("--seed", type=int, default=20260826)
    ap.add_argument("--seconds", type=float, default=None,
                    help="--bench: bench/run.py's --seconds (default: its run_seconds)")
    ap.add_argument("--out", metavar="FILE", help="--bench: write the summary here as JSON")
    ap.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return _child(args.child, args.workload, args.seed, args.calls)
    if args.change is None or args.bench == (args.workload is not None):
        ap.error("give PARENT_DIR and CHANGE_DIR, and one of --workload NAME or --bench")
    if args.pairs < (1 if args.bench else 2) or args.calls < 1:
        ap.error("give --pairs >= 2 (>= 1 with --bench) and --calls >= 1")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if args.bench:
        summary = _bench(sides, args)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(summary, fh, indent=2)
                fh.write("\n")
        return 0
    runs = {side: [] for side in sides}
    for _, order in _order(args.pairs):
        for side in order:
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
    pairs = list(zip(runs["parent"], runs["change"]))
    summary["change_wins"] = sum(c["call_s"] < p["call_s"] for p, c in pairs)
    summary["change_lower_maxrss"] = sum(c["maxrss_mb"] < p["maxrss_mb"] for p, c in pairs)
    summary["digests_agree"] = len({r["digest"] for rs in runs.values() for r in rs}) == 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
