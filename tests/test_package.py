import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import selfnorm
from selfnorm import experiments, mixture, processes

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")


def test_version_has_one_source():
    # parsed with regular expressions: tomllib needs Python 3.11
    with open(PYPROJECT) as fh:
        text = fh.read()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
    dynamic = re.search(r"^\[tool\.setuptools\.dynamic\]\n(.*?)(?=^\[|\Z)", text,
                        re.M | re.S).group(1)
    attr = re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"([\w.]+)"\s*\}', dynamic,
                     re.M).group(1)
    module, name = attr.rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == selfnorm.__version__
    assert re.fullmatch(r"\d+\.\d+\.\d+", selfnorm.__version__)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(selfnorm.__file__)))
SUITE = os.path.join(SRC, "selfnorm", "suites", "suite_supermartingales.json")


def _fresh(code: str) -> list[str]:
    """The scipy modules loaded after running `code` in a fresh interpreter
    with this selfnorm first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code += "\nimport sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    out = subprocess.run([sys.executable, "-c", "import json\n" + code], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _fresh("import selfnorm, selfnorm.cli") == []


def test_verify_loads_no_scipy_submodule(tmp_path):
    with open(SUITE) as fh:
        suite = json.load(fh)
    for e in suite["experiments"]:
        e["config"]["paths"] = 2000
    config = tmp_path / "suite.json"
    config.write_text(json.dumps(suite))
    loaded = _fresh(
        "from selfnorm import cli\n"
        f"assert cli.main(['verify', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0")
    heavy = [["scipy", m] for m in
             ("stats", "optimize", "integrate", "interpolate", "linalg", "special")]
    assert not [m for m in loaded if m.split(".")[:2] in heavy]


@pytest.mark.parametrize("code", [
    "from selfnorm import constants\nconstants.c_r(1.3)",
    "from selfnorm import cli\n"
    "assert cli.main(['constants', '--gamma', '0.01', '--r', '1.5', '--out', OUT]) == 0"],
    ids=["c_r", "constants_command"])
def test_c_r_loads_no_scipy(tmp_path, code):
    # c_r bisects in decimal; its scipy.optimize pass loaded 321 scipy modules
    assert _fresh(code.replace("OUT", repr(str(tmp_path / "c.csv")))) == []


@pytest.mark.parametrize("mixture", ["RobbinsSiegmund(1.0)",
                                     "PointMasses(((0.5, 0.5), (0.1, 0.5)))"])
def test_crossing_loads_no_scipy(mixture):
    # the boundary table's PCHIP is numpy's; scipy.interpolate cost a
    # crossing call 0.7 s and 51 MB
    assert _fresh(
        "from selfnorm import experiments, processes\n"
        "from selfnorm.mixture import PointMasses, RobbinsSiegmund\n"
        "for spec in (processes.Rademacher(),\n"
        "             processes.ScaledSymmetric(law='lognormal')):\n"
        "    cfg = experiments.ExperimentConfig(spec=spec, seed=5, paths=200, horizon=300)\n"
        f"    experiments.crossing_frequency(cfg, mixture={mixture}, c=10.0)") == []


def test_verify_with_a_crossing_loads_no_scipy(tmp_path):
    suite = {"schema": 1, "seed": 5, "experiments": [
        {"name": "mean", "op": "supermartingale_mean",
         "config": {"spec": {"variant": "rademacher"}, "paths": 200, "horizon": 50}},
        {"name": "crossing", "op": "crossing",
         "op_args": {"mixture": {"type": "density_rs", "delta": 1.0}, "c_over_mass": 10.0},
         "config": {"spec": {"variant": "rademacher"}, "paths": 200, "horizon": 300}}]}
    config = tmp_path / "suite.json"
    config.write_text(json.dumps(suite))
    assert _fresh(
        "from selfnorm import cli\n"
        f"assert cli.main(['verify', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0") == []


def test_crossing_builds_interpolant_through_module_attribute(monkeypatch):
    calls = []
    pchip = experiments.PchipInterpolator

    def counting(*args, **kwargs):
        calls.append(1)
        return pchip(*args, **kwargs)

    monkeypatch.setattr(experiments, "PchipInterpolator", counting)
    cfg = experiments.ExperimentConfig(spec=processes.Rademacher(), seed=5,
                                       paths=200, horizon=300)
    reps = experiments.crossing_frequency(cfg, mixture=mixture.RobbinsSiegmund(1.0),
                                          c=10.0)
    assert len(calls) == 1
    assert reps and 0.0 <= reps[-1].estimate <= 1.0


def test_variant_protocol_writes_only_into_caller_buffers(monkeypatch):
    # one buffer mode: no protocol member falls back to a fresh array, every
    # draw takes its codes from the caller, and accumulate advances the
    # caller's carry in place
    empty = inspect.Parameter.empty
    members = [processes.fair_signs, processes._abs_pow]
    for cls in (processes._Variant, *processes._VARIANTS.values()):
        members += [getattr(cls, name) for name in ("draw", "b_increments", "accumulate")
                    if hasattr(cls, name)]
        if cls is not processes._Variant:
            assert inspect.signature(cls.draw).parameters["codes"].default is empty, cls
    for fn in members:
        assert inspect.signature(fn).parameters["out"].default is empty, fn
    # two blocks of 3 paths and 4 steps through one carry
    spec, rng, signs = processes.Rademacher(), processes.chunk_rng(1, 0), []
    carry = (np.zeros(3), np.zeros(3), np.zeros(3))
    for lo in (0, 4):
        d = spec.draw(rng, lo, lo + 4, 3, np.empty((3, 4)), None)
        signs.append(d.copy())
        sums = spec.accumulate(d, np.arange(lo + 1, lo + 5), carry, True, True,
                               (np.empty((3, 4)), np.empty((3, 4))))
        assert len(sums) == 3 and all(isinstance(x, np.ndarray) for x in sums)
        assert sums[0] is d
        for c, x in zip(carry, sums):
            assert np.array_equal(c, x[:, -1])
    assert np.array_equal(carry[0], np.sum(signs, axis=(0, 2)))
    assert np.array_equal(carry[1], np.full(3, 8.0)) and np.array_equal(carry[2], carry[1])
    # a coded variant's handle draws each refill's codes into its workspace
    seen = []
    draw = processes.ScaledSymmetric.draw

    def recorded(self, rng, n_lo, n_hi, n_paths, out, codes):
        seen.append(codes)
        return draw(self, rng, n_lo, n_hi, n_paths, out, codes)

    monkeypatch.setattr(processes.ScaledSymmetric, "draw", recorded)
    h = processes.make_process(processes.ScaledSymmetric(), 5)
    for _ in range(3 * processes._BUFFER):
        h.step()
    assert len(seen) == 3 and seen[0].dtype == np.int8
    assert all(np.shares_memory(seen[0], later) for later in seen[1:])


def test_handle_refills_one_workspace(monkeypatch):
    # a handle stepped across three refills draws and accumulates into the
    # same buffers each time, as the engine's chunks do
    seen = []
    accumulate = processes.Rademacher.accumulate

    def recorded(self, d, *args):
        sums = accumulate(self, d, *args)
        seen.append(sums)
        return sums

    monkeypatch.setattr(processes.Rademacher, "accumulate", recorded)
    h = processes.make_process(processes.Rademacher(), 5)
    for _ in range(3 * processes._BUFFER):
        h.step()
    assert len(seen) == 3
    for later in seen[1:]:
        assert all(np.shares_memory(x, y) for x, y in zip(seen[0], later))
