"""Pinned sha256 digests of the seeded output of every engine entry point.

Each case runs one experiment with blocks of 7 steps and chunks of a few
paths, so state, running maxima and crossing flags are carried across many
block and chunk edges, and across row-tile edges at a budget of 2 rows. The
checkpoints sit at step 1, at a block edge (7, 8), inside a 64-step
crossing-screen segment (100, with the screen cases' blocks of 130 steps,
which on unit-weight WeightedIID steps also run the unit-step screen) and
at the horizon. A digest moves only if a seeded number, a
label or the shape of an output moves."""
import hashlib
import json

import numpy as np
import pytest

from selfnorm import experiments
from selfnorm.cli import main
from selfnorm.experiments import (ExperimentConfig, check_supermartingale_mean,
                                  cluster_set_diagnostic, crossing_frequency,
                                  growth_rate_diagnostic, lil_track,
                                  sup_moment_estimate, validate_moment_bound,
                                  validate_tail_bound)
from selfnorm.mixture import GaussianMixture, PointMasses, RobbinsSiegmund
from selfnorm.processes import (BoundedBelow, Counterexample56, Counterexample65,
                                MvBrownianGrid, Rademacher, ScaledSymmetric,
                                TruncatedCentering, WeightedIID)

HORIZON = 160
CHECKPOINTS = (1, 7, 8, 100, HORIZON)
TWO_ATOMS = PointMasses(atoms=((0.3, 0.5), (1.0, 0.5)))
GRID = MvBrownianGrid(dim=2, t0=0.01, rho=1.1, horizon=100.0)

SPECS = {
    "rademacher": Rademacher(),
    "lognormal": ScaledSymmetric(law="lognormal", sigma=1.0),
    "bounded_below_r15": BoundedBelow(m_bound=1.0, gamma=0.5, r=1.5),
    "counterexample56": Counterexample56(),
    "counterexample65": Counterexample65(),
    "truncated_normal": TruncatedCentering(base="normal", lam=1.0),
    "weighted_iid_ones": WeightedIID(weights="ones"),
}


def cfg(variant, **kw):
    kw = dict(seed=20261018, paths=23, horizon=HORIZON, checkpoints=CHECKPOINTS) | kw
    return ExperimentConfig(spec=SPECS[variant], **kw)


# case id -> (block steps, call); every call runs at workers=1
CASES = {
    "supermartingale_mean-rademacher": (7, lambda: check_supermartingale_mean(
        cfg("rademacher", lambda_grid=(0.0, 0.3, 1.0)))),
    "supermartingale_mean-lognormal": (7, lambda: check_supermartingale_mean(
        cfg("lognormal", lambda_grid=(0.2, 0.7)))),
    "supermartingale_mean-bounded_below_r15": (7, lambda: check_supermartingale_mean(
        cfg("bounded_below_r15", lambda_grid=(0.1, 0.5)))),
    "tail_bound-rademacher": (7, lambda: validate_tail_bound(cfg("rademacher"), 1.0)),
    "tail_bound-lognormal": (7, lambda: validate_tail_bound(cfg("lognormal"), 2.0)),
    "moment_bound-rademacher": (7, lambda: validate_moment_bound(cfg("rademacher"))),
    "moment_bound-lognormal": (7, lambda: validate_moment_bound(
        cfg("lognormal"), p_list=(1.0, 3.0))),
    "crossing-rademacher": (7, lambda: crossing_frequency(
        cfg("rademacher"), mixture=TWO_ATOMS, c=1.5)),
    "crossing-lognormal": (7, lambda: crossing_frequency(
        cfg("lognormal"), mixture=TWO_ATOMS, c=1.5)),
    "crossing-lognormal-screen_segments": (130, lambda: crossing_frequency(
        cfg("lognormal"), mixture=RobbinsSiegmund(1.0), c=2.0)),
    "crossing-weighted_iid_ones": (130, lambda: crossing_frequency(
        cfg("weighted_iid_ones"), mixture=TWO_ATOMS, c=1.5)),
    "crossing-bounded_below_r15": (7, lambda: crossing_frequency(
        cfg("bounded_below_r15"), mixture=PointMasses(atoms=((0.2, 0.5), (0.4, 0.5))),
        c=1.5)),
    "lil_track-rademacher": (7, lambda: lil_track(cfg("rademacher"))),
    "lil_track-lognormal": (7, lambda: lil_track(cfg("lognormal"), margin=0.0)),
    "lil_track-bounded_below_r15": (7, lambda: lil_track(cfg("bounded_below_r15"))),
    "lil_track-counterexample56": (7, lambda: lil_track(cfg("counterexample56"))),
    "lil_track-counterexample65": (7, lambda: lil_track(cfg("counterexample65"))),
    "lil_track-truncated_normal": (7, lambda: lil_track(cfg("truncated_normal"))),
    "lil_track-truncated_normal-lil": (7, lambda: lil_track(
        cfg("truncated_normal", statistic="lil"))),
    "lil_track-weighted_iid_ones": (130, lambda: lil_track(
        cfg("weighted_iid_ones", statistic="lil"))),
    "cluster_set-rademacher": (7, lambda: cluster_set_diagnostic(cfg("rademacher"))),
    "cluster_set-bounded_below_r15": (7, lambda: cluster_set_diagnostic(
        cfg("bounded_below_r15"), bins=9)),
    "sup_moment-rademacher-p": (7, lambda: sup_moment_estimate(cfg("rademacher"), p=2.0)),
    "sup_moment-lognormal-alpha": (7, lambda: sup_moment_estimate(
        cfg("lognormal"), alpha=0.2)),
    "sup_moment-bounded_below_r15-p": (7, lambda: sup_moment_estimate(
        cfg("bounded_below_r15"), p=1.0)),
    "sup_moment-bounded_below_r15-alpha": (7, lambda: sup_moment_estimate(
        cfg("bounded_below_r15", horizon=15, checkpoints=()), alpha=0.3)),
    "growth_rate-counterexample65": (7, lambda: growth_rate_diagnostic(
        cfg("counterexample65"))),
    "crossing-gaussian": (7, lambda: crossing_frequency(
        ExperimentConfig(spec=GRID, seed=20261018, paths=23, horizon=100,
                         checkpoints=(1, 7, 8, 100)),
        mixture=GaussianMixture(np.eye(2)), c=2.0)),
}

DIGESTS = {
    "cluster_set-bounded_below_r15":
        "d8a5eb4471d5d1113af742be0050943ac2183f2aa703f8ada70494a9e550a848",
    "cluster_set-rademacher":
        "514bd7117301106cebccfb9c711f88196ba9069508104dafe1a855208bbaa12c",
    "crossing-bounded_below_r15":
        "591774a92364d36a3936aaf1d38f279cb9caa81a19e7f4b34c8acae707fa67b2",
    "crossing-gaussian":
        "91504315df0e2cb8136ad9f6928f4f03faeb0fb57025e7c12198d1e1f115bdef",
    "crossing-lognormal":
        "0765756468c1f6be3305cdeff31081dd94bacb5e81baaf5a1b0089da4c895946",
    "crossing-lognormal-screen_segments":
        "ea8af664e624496bcf284d1310ee8c5bd6c2e8e87df386d9c546e7be17624600",
    "crossing-weighted_iid_ones":
        "2b1e5e66601f1b46e9b9c55c16a77e9c87d93d58ae4ca718a6e2a791a225420e",
    "crossing-rademacher":
        "a45d1740cecf9786a98d57023120512ef121380a97947e7b19111c808b38eed2",
    "growth_rate-counterexample65":
        "a377c9c600f9ac1b89e01a70d316a2473842185f6699d3961daa2eaf689b950f",
    "lil_track-bounded_below_r15":
        "e21f15da5a38b358ce0d32296b6a3e8922b13bf9d1abcca95ad69e782635d994",
    "lil_track-counterexample56":
        "8c4da5e49d5b5f1f2b6ee17af5981fa02b2353c3423467732d8e26b13dc13a07",
    "lil_track-counterexample65":
        "6c5715bbd762ae4851c2a5556afb7a91e799e59e8455dd5bc81b9e44ac7c8337",
    "lil_track-lognormal":
        "d5d5111fbcfa7bcda07c4ca0ce78b052c9eb3817fc026d016b81d96048ff78a0",
    "lil_track-rademacher":
        "b2a6aba01240e54e7ab7644749a2bc6e0e95cedf3b2314bd6cf105ed54ba54e5",
    "lil_track-truncated_normal":
        "42a9e02df187d7f33b8939d468faeb35403705c47c9c8ed2bee4e223e6d3a6f5",
    "lil_track-truncated_normal-lil":
        "38d8e381213603dacf5e0efe91b4f53f9c16afb75eee052847292514713b29c9",
    "lil_track-weighted_iid_ones":
        "a977d2f3d05e261461714cd279c3d44f989119be06d8d71c1257f5d96535b8b6",
    "moment_bound-lognormal":
        "5268b54523b1b4f2d67d75397026efe79a19b5f4a6e346eed0a7e2af2821af14",
    "moment_bound-rademacher":
        "10cbdbf50f449d0519e3d91957c9789d76011a5b4f8330388ef4878e4905c011",
    "sup_moment-bounded_below_r15-alpha":
        "34cff40b50c58d7d1030e8e241696f506a4d1682cc300c0fc4f971197d73640b",
    "sup_moment-bounded_below_r15-p":
        "7e0430a7db443d016b248b2910b8b100e0317bc4dba799ac42269328016492c8",
    "sup_moment-lognormal-alpha":
        "e4e6d50fe0ff3da18079b6ee88e57706a77179a0e24dee9f0a2fc5be37d8fc86",
    "sup_moment-rademacher-p":
        "e246678501b623619cf4cc43ea6a771bbae5c19910033c21db0cc092edef430f",
    "supermartingale_mean-bounded_below_r15":
        "129f8b79c0819a6c36169f3b8faf71e2837e8f7677c84576669145a98237d696",
    "supermartingale_mean-lognormal":
        "1acfd03b93e3920c87ca24a81e6e3b671b8d847eb5100b0b621507303f251cff",
    "supermartingale_mean-rademacher":
        "4f0e0ac7f75b9e07cdab688805ca91361a702df14ff07c6d31b79b80082fe725",
    "tail_bound-lognormal":
        "7b6095b9c47b7ca7f220bb8e94d94f6a1b4cbe968617829e17708e783a941e5a",
    "tail_bound-rademacher":
        "5a0dabe67fc4e0f170d7ebca85995cc64b13fec11204f42b6145cc1af7696f41",
}


def _plain(out):
    """Reports and dictionaries as JSON values; arrays by dtype, shape and
    bytes."""
    if isinstance(out, list):
        return [_plain(o) for o in out]
    if isinstance(out, dict):
        return {k: _plain(v) for k, v in out.items()}
    if isinstance(out, np.ndarray):
        return [out.dtype.str, list(out.shape), out.tobytes().hex()]
    if hasattr(out, "to_dict"):
        return _plain(out.to_dict())
    return out


def digest(out) -> str:
    text = json.dumps(_plain(out), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_digest(case, monkeypatch):
    block, run = CASES[case]
    monkeypatch.setattr(experiments, "_BLOCK", block)
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 5 * HORIZON)  # chunks of 5 paths
    assert digest(run()) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_digest_in_two_row_tiles(case, monkeypatch):
    # the same digests with every chunk-block run as tiles of 2 rows (2, 2
    # and 1 in a chunk of 5 paths): draws, carries and reducer state cross
    # tile edges. A Gaussian crossing's block is its whole grid, in 2
    # components.
    block, run = CASES[case]
    row = 2 * GRID.steps if case == "crossing-gaussian" else block
    monkeypatch.setattr(experiments, "_BLOCK", block)
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 5 * HORIZON)
    monkeypatch.setattr(experiments, "_TILE", 2 * row)
    assert digest(run()) == DIGESTS[case]


# The bytes the CLI writes, which also pin each value's type (a JSON dump of
# an np.float64 and of a float are the same text; their CSV reprs are not).
# `simulate` runs past the handle's first 1024-step buffer.
CLI_SEED = "20261018"
SIMULATE = {
    "rademacher": ({"variant": "rademacher"}, "csv"),
    "lognormal": ({"variant": "scaled_symmetric", "law": "lognormal", "sigma": 1.0}, "json"),
    "mv_brownian_grid": ({"variant": "mv_brownian_grid", "dim": 2, "t0": 0.01,
                          "rho": 1.005, "horizon": 100.0}, "csv"),
    "weighted_iid_factorial": ({"variant": "weighted_iid", "weights": "factorial"}, "csv"),
}
SUITE = {
    "schema": 1,
    "experiments": [
        {"name": "mean", "op": "supermartingale_mean",
         "config": {"spec": {"variant": "rademacher"}, "paths": 300, "horizon": 60,
                    "checkpoints": [10, 60], "lambda_grid": [0.3, 1.0]}},
        {"name": "crossing", "op": "crossing",
         "config": {"spec": {"variant": "scaled_symmetric", "law": "lognormal"},
                    "paths": 200, "horizon": 100, "checkpoints": [50, 100]},
         "op_args": {"mixture": {"type": "density_rs", "delta": 1.0}, "c_over_mass": 2.0}},
    ],
}
LIL = {"spec": {"variant": "rademacher"}, "paths": 40, "horizon": 1500,
       "checkpoints": [100, 1500]}

CLI_DIGESTS = {
    "lil-rademacher":
        "c42daf991e3ffc6556decc00ce7a8f958e54ef1b6809d9c21f28e1a69e709054",
    "simulate-lognormal":
        "c6c1b9d75350330ff1556e5d9a3515d4a11a613be4bd12383af5fa50663a88e4",
    "simulate-mv_brownian_grid":
        "91c7bbb6342e0441e9659ba8ee34da0c80d97dc1ba748592d3a58ed931aea462",
    "simulate-rademacher":
        "3e332479702f5fb9a11a47935ddd804ff2fa0fc88a5e709f1126dd042bd4c7fd",
    "simulate-weighted_iid_factorial":
        "ec40b66c1cbd93f74928d155488c5266247fc1a8405e75bc332a221a74706f85",
    "verify-two_experiments":
        "0d9c54d3d21c7e6cf5e605cd3025dc391d6dbd1b0a439560cdeaa83601066653",
}


def cli_digest(case, tmp_path) -> str:
    """sha256 of the names and bytes of every file one CLI run writes."""
    command, name = case.split("-", 1)
    config, out = tmp_path / "config.json", tmp_path / "out"
    if command == "simulate":
        spec, fmt = SIMULATE[name]
        config.write_text(json.dumps(spec))
        argv = ["--horizon", "1300", "--format", fmt, "--out", str(out / "path.txt")]
    else:
        config.write_text(json.dumps(LIL if command == "lil" else SUITE))
        argv = ["--out", str(out / "lil.json" if command == "lil" else out)]
    assert main([command, "--config", str(config), "--seed", CLI_SEED] + argv) == 0
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CLI_DIGESTS))
def test_cli_output_bytes(case, tmp_path):
    assert cli_digest(case, tmp_path) == CLI_DIGESTS[case]
