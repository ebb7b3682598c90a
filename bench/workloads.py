"""The benchmark's workloads: inputs built from a seed, one experiment call
per operation, and the checks and digest applied to each call's output.

Every workload is run through the public API of `selfnorm.cli` or
`selfnorm.experiments`, looked up as a module attribute at call time so that
`tracing.traced` can wrap it.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from selfnorm import cli, experiments, mixture, processes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITE = os.path.join(ROOT, "src", "selfnorm", "suites", "suite_supermartingales.json")
ORACLES = os.path.join(ROOT, "tests", "golden", "oracles.json")

# The pre-registered lil interval is for a 100-path sample median at horizon
# 1e6 (see scripts/prerun_oracles.py); a tiny run cannot be held to it.
ORACLE_HORIZON = 10**6

NAMES = ("verify_suite", "crossing_rademacher", "crossing_lognormal",
         "lil_rademacher")


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return "sha256:" + h.hexdigest()


class VerifySuite:
    """`selfnorm verify` on the bundled suite; one operation is one
    `cli.main` call writing a fresh output directory."""

    def __init__(self, seed: int, tiny: bool, scratch: str):
        with open(SUITE) as fh:
            suite = json.load(fh)
        self.config = SUITE
        if tiny:
            for e in suite["experiments"]:
                e["config"]["paths"] = 2000
            self.config = os.path.join(scratch, "suite_tiny.json")
            with open(self.config, "w") as fh:
                json.dump(suite, fh)
        self.seed = seed
        self.scratch = scratch
        self.w2 = True
        specs = [processes.spec_from_json(e["config"]["spec"])
                 for e in suite["experiments"]]
        self.spec_classes = tuple({type(s) for s in specs})
        self.cells = sum(e["config"]["paths"] * e["config"]["horizon"]
                         for e in suite["experiments"])
        self.sizes = {"experiments": len(specs), "cells": self.cells,
                      "paths": sorted({e["config"]["paths"] for e in suite["experiments"]}),
                      "horizons": [e["config"]["horizon"] for e in suite["experiments"]]}
        self._n = 0

    def run(self, workers: int) -> str:
        self._n += 1
        out = os.path.join(self.scratch, f"verify_{self._n}_w{workers}")
        rc = cli.main(["verify", "--config", self.config, "--out", out,
                       "--seed", str(self.seed), "--workers", str(workers)])
        if rc not in (0, 1):  # 1 means a check failed, which check() reports
            raise RuntimeError(f"selfnorm verify exited with {rc}")
        return out

    def files_written(self, out: str) -> int:
        return len(os.listdir(out))

    def check(self, out: str) -> list[str]:
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        return [] if report["all_pass"] is True else ["report.json all_pass is not true"]

    def digest(self, out: str) -> str:
        chunks = []
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                chunks += [name.encode(), b"\0", fh.read(), b"\0"]
        return _sha256(chunks)


class Crossing:
    """`crossing_frequency` against the Robbins-Siegmund mixture (delta=1) at
    c = 10 * total_mass, so the analytic bound total_mass/c is 0.1."""

    def __init__(self, spec, paths: int, horizon: int, checkpoints, seed: int,
                 w2: bool):
        self.w2 = w2
        self.cfg = experiments.ExperimentConfig(
            spec=spec, seed=seed, paths=paths, horizon=horizon,
            checkpoints=checkpoints)
        self.mixture = mixture.RobbinsSiegmund(1.0)
        self.c = 10.0 * self.mixture.total_mass
        self.spec_classes = (type(spec),)
        self.cells = paths * horizon
        self.sizes = {"paths": paths, "horizon": horizon,
                      "checkpoints": list(checkpoints), "cells": self.cells,
                      "spec": processes.spec_to_json(spec),
                      "mixture": mixture.measure_to_json(self.mixture), "c": self.c}

    def run(self, workers: int) -> list[dict]:
        reports = experiments.crossing_frequency(
            self.cfg, mixture=self.mixture, c=self.c, workers=workers)
        return [r.to_dict() for r in reports]

    def files_written(self, out) -> int:
        return 0

    def check(self, out: list[dict]) -> list[str]:
        problems = []
        bound = self.mixture.total_mass / self.c
        last = out[-1]
        if not last["estimate"] - 3.0 * last["std_error"] <= bound:
            problems.append(f"final estimate {last['estimate']} - 3 SE exceeds {bound}")
        freqs = [r["estimate"] for r in out]
        if any(b < a for a, b in zip(freqs, freqs[1:])):
            problems.append(f"crossing frequencies decrease across checkpoints: {freqs}")
        return problems

    def digest(self, out: list[dict]) -> str:
        return _sha256([json.dumps(out, sort_keys=True).encode()])


class LilTrack:
    """`lil_track` on Rademacher steps: a long horizon with few paths."""

    def __init__(self, paths: int, horizon: int, checkpoints, seed: int):
        self.cfg = experiments.ExperimentConfig(
            spec=processes.Rademacher(), seed=seed, paths=paths,
            horizon=horizon, checkpoints=checkpoints)
        self.w2 = False
        with open(ORACLES) as fh:
            self.interval = json.load(fh)["rademacher_lil"]["median_interval"]
        self.spec_classes = (processes.Rademacher,)
        self.cells = paths * horizon
        self.sizes = {"paths": paths, "horizon": horizon,
                      "checkpoints": list(checkpoints), "cells": self.cells,
                      "spec": processes.spec_to_json(self.cfg.spec)}

    def run(self, workers: int) -> dict:
        return experiments.lil_track(self.cfg, workers=workers)

    def files_written(self, out) -> int:
        return 0

    def check(self, out: dict) -> list[str]:
        problems = []
        rm = out["running_max"]
        if not np.all(rm[:, 1:] >= rm[:, :-1]):
            problems.append("running maxima decrease across checkpoints")
        if self.cfg.horizon == ORACLE_HORIZON:
            lo, hi = self.interval
            med = float(np.median(rm[:, -1]))
            if not lo <= med <= hi:
                problems.append(f"median running max {med} outside oracle [{lo}, {hi}]")
        return problems

    def digest(self, out: dict) -> str:
        scalars = {k: v for k, v in out.items() if not isinstance(v, np.ndarray)}
        return _sha256([out["running_max"].tobytes(), out["value"].tobytes(),
                        json.dumps(scalars, sort_keys=True).encode()])


def build(name: str, seed: int, tiny: bool, scratch: str):
    """The workload's inputs for `seed`; `tiny` shrinks them for the self-test."""
    if name == "verify_suite":
        return VerifySuite(seed, tiny, scratch)
    if name == "crossing_rademacher":
        # 574 paths are 14 chunks of 41, an equal share for each of two
        # workers, and enough that the fixed boundary table stays a minor
        # share of the call next to per-cell lookup and accumulation.
        if tiny:
            return Crossing(processes.Rademacher(), 40, 10**4, (10**2, 10**3, 10**4), seed, True)
        return Crossing(processes.Rademacher(), 574, 10**5, (10**3, 10**4, 10**5), seed, True)
    if name == "crossing_lognormal":
        spec = processes.ScaledSymmetric(law="lognormal", mu=0.0, sigma=1.0)
        if tiny:
            return Crossing(spec, 20, 10**4, (10**2, 10**3, 10**4), seed, False)
        return Crossing(spec, 205, 10**5, (10**3, 10**4, 10**5), seed, False)
    if name == "lil_rademacher":
        if tiny:
            return LilTrack(20, 10**4, (10**2, 10**3, 10**4), seed)
        return LilTrack(100, ORACLE_HORIZON, (10**4, 10**5, 10**6), seed)
    raise ValueError(f"unknown workload {name!r}")
