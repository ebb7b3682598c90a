import argparse
import csv
import json
import math
import os
import tracemalloc

import pytest

from selfnorm import cli, processes
from selfnorm import constants as konst
from selfnorm.mixture import general_r_asymptotic
from selfnorm.cli import build_parser, main

SUITE = os.path.join(os.path.dirname(__file__), "..", "src", "selfnorm",
                     "suites", "suite_supermartingales.json")


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def no_draws(monkeypatch):
    def refuse(*args):
        raise AssertionError("a chunk stream was opened")
    monkeypatch.setattr("selfnorm.experiments.chunk_rng", refuse)


class TestConstantsCommand:
    def test_lambda_row(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        assert main(["constants", "--lambda", "1", "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["h"]) == pytest.approx(2.146, abs=1e-3)
        assert float(rows[0]["b_lambda"]) == pytest.approx(float(rows[0]["h"]), rel=1e-12)

    def test_gamma_zero(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert main(["constants", "--gamma", "0", "--out", out]) == 0
        assert float(read_csv(out)[0]["c_gamma"]) == 0.5

    def test_order_r_column(self, tmp_path):
        out = str(tmp_path / "t.json")
        assert main(["constants", "--gamma", "0.5", "--r", "1.5", "--format", "json",
                     "--out", out]) == 0
        [row] = json.loads(open(out).read())["rows"]
        assert row["c_gamma_r"] == konst.c_gamma_r(0.5, 1.5)

    def test_l_normalization_row(self, tmp_path):
        out = str(tmp_path / "t.json")
        assert main(["constants", "--l-normalization", "--alpha",
                     repr(math.exp(math.exp(math.e))), "--format", "json",
                     "--out", out]) == 0
        doc = json.loads(open(out).read())
        row = doc["rows"][0]
        assert row["beta"] == pytest.approx(2.72612588701258, rel=1e-9)
        assert row["growth_violations"] > 0  # e^{e^e} fails the square bound

    def test_malformed_flag(self):
        assert main(["constants", "--nope"]) == 2

    def test_nothing_requested(self):
        assert main(["constants"]) == 2

    @pytest.mark.parametrize("argv", [["--gamma", "nan"], ["--lambda", "nan"],
                                      ["--l-normalization", "--delta", "nan"]],
                             ids=["gamma", "lambda", "delta"])
    def test_nan_is_refused(self, tmp_path, capsys, argv):
        # --gamma nan printed c_gamma nan and exited 0
        out = tmp_path / "t.csv"
        assert main(["constants", *argv, "--out", str(out)]) == 2
        assert "DomainError" in capsys.readouterr().err
        assert not out.exists()


class TestTailboundCommand:
    def test_values(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert main(["tailbound", "--x", "2", "--p", "2", "--out", out]) == 0
        rows = read_csv(out)
        tail = next(r for r in rows if r["kind"] == "tail")
        mom = next(r for r in rows if r["kind"] == "moment")
        assert float(tail["bound"]) == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert float(mom["normalized_moment_bound"]) == pytest.approx(4.0, rel=1e-12)

    def test_empty_is_usage_error(self):
        assert main(["tailbound"]) == 2

    @pytest.mark.parametrize("flag", ["--x", "--p"])
    def test_oversized_list_refused(self, tmp_path, capsys, flag):
        out = tmp_path / "t.csv"
        n = 65537
        assert main(["tailbound", flag, *["2"] * n, "--out", str(out)]) == 2
        assert f"DomainError: {flag} of {n} items asks for {8 * n} bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_x_not_finite(self, tmp_path, capsys, x):
        # --x nan printed a bound nan and exited 0
        out = tmp_path / "t.csv"
        assert main(["tailbound", "--x", "2", x, "--out", str(out)]) == 2
        assert "--x" in capsys.readouterr().err
        assert not out.exists()


class TestBoundaryCommand:
    def test_point_mass_roundtrip_column(self, tmp_path):
        cfg = write_json(tmp_path, "m.json",
                         {"type": "point_masses", "atoms": [[0.3, 2.0]]})
        out = str(tmp_path / "b.csv")
        assert main(["boundary", "--config", cfg, "--c", "5", "--v-min", "1",
                     "--v-max", "1e4", "--v-points", "5", "--out", out]) == 0
        for row in read_csv(out):
            v, beta = float(row["v"]), float(row["beta"])
            closed = (math.log(5.0 / 2.0) + 0.09 * v / 2.0) / 0.3
            assert beta == pytest.approx(closed, rel=1e-8)
            assert float(row["psi_roundtrip"]) == pytest.approx(5.0, rel=1e-8)

    def test_rs_ratio_column(self, tmp_path):
        cfg = write_json(tmp_path, "m.json", {"type": "density_rs", "delta": 1.0})
        out = str(tmp_path / "b.csv")
        assert main(["boundary", "--config", cfg, "--c", "3.5449077018110318",
                     "--v-min", "1e6", "--v-max", "1e8", "--v-points", "3",
                     "--asymptotic", "rs", "--out", out]) == 0
        ratios = [float(r["ratio"]) for r in read_csv(out)]
        assert ratios == sorted(ratios)  # approaching 1 from below

    def test_general_r_ratio_column(self, tmp_path):
        cfg = write_json(tmp_path, "m.json", {"type": "density_rs", "delta": 1.0})
        out = str(tmp_path / "b.json")
        assert main(["boundary", "--config", cfg, "--c", "3", "--r", "1.5", "--v-min", "1e6",
                     "--v-max", "1e8", "--v-points", "3", "--asymptotic", "general",
                     "--format", "json", "--out", out]) == 0
        rows = json.loads(open(out).read())["rows"]
        assert len(rows) == 3
        for row in rows:
            assert row["asymptotic"] == general_r_asymptotic(row["v"], 1.5)
            assert row["ratio"] == row["beta"] / row["asymptotic"]

    def test_c_validation(self, tmp_path):
        cfg = write_json(tmp_path, "m.json",
                         {"type": "point_masses", "atoms": [[0.3, 2.0]]})
        assert main(["boundary", "--config", cfg, "--c", "-1"]) == 2

    @pytest.mark.parametrize("argv, named", [
        (["--c", "nan"], "--c"), (["--c", "inf"], "--c"),
        (["--c", "5", "--v-points", "0"], "--v-points"),
        (["--c", "5", "--v-min", "0"], "--v-min"), (["--c", "5", "--v-min", "-5"], "--v-min"),
        (["--c", "5", "--v-min", "nan"], "--v-min"), (["--c", "5", "--v-max", "inf"], "--v-max"),
        (["--c", "5", "--v-max", "nan"], "--v-max"),
        (["--c", "5", "--v-min", "100", "--v-max", "10"], "--v-min"),
        (["--c", "5", "--asymptotic", "rs", "--delta", "nan"], "--delta"),
        (["--c", "5", "--asymptotic", "rs", "--delta", "inf"], "--delta"),
        (["--c", "5", "--asymptotic", "rs", "--delta=-5"], "--delta"),
    ], ids=["c_nan", "c_inf", "no_points", "v_min_zero", "v_min_negative", "v_min_nan",
            "v_max_inf", "v_max_nan", "v_min_above_v_max", "delta_nan", "delta_inf",
            "delta_negative"])
    def test_bad_c_or_points(self, tmp_path, capsys, monkeypatch, argv, named):
        # --c nan and inf ended in BracketError; --v-points 0 wrote an empty
        # table and exited 0; --v-min 0 and --v-max inf ended in numpy's
        # geomspace errors, which named no flag; --delta nan, inf and -5 wrote
        # NaN, inf and negative-delta asymptotic rows and exited 0
        monkeypatch.setattr(cli, "psi", lambda *a: pytest.fail("psi called"))
        monkeypatch.setattr(cli, "boundary", lambda *a: pytest.fail("boundary called"))
        cfg = write_json(tmp_path, "m.json", {"type": "density_rs", "delta": 1.0})
        out = tmp_path / "b.csv"
        assert main(["boundary", "--config", cfg, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "DomainError" in err
        assert not out.exists()

    def test_gaussian_rejected(self, tmp_path):
        cfg = write_json(tmp_path, "m.json",
                         {"type": "gaussian", "precision": [[1.0]]})
        assert main(["boundary", "--config", cfg, "--c", "2"]) == 2

    @pytest.mark.parametrize("points", [65537, 10**9])
    def test_oversized_table_refused_before_any_array(self, tmp_path, capsys, monkeypatch,
                                                      points):
        # 1e9 points went straight to np.geomspace, 8 GB, and a boundary
        # solve of as many rows; sized in closed form, nothing is made
        monkeypatch.setattr(cli, "boundary", lambda *a: pytest.fail("boundary called"))
        cfg = write_json(tmp_path, "m.json", {"type": "density_rs", "delta": 1.0})
        out = tmp_path / "b.csv"
        tracemalloc.start()
        try:
            assert main(["boundary", "--config", cfg, "--c", "5", "--v-points", str(points),
                         "--out", str(out)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        err = capsys.readouterr().err
        assert f"DomainError: --v-points {points} asks for {8 * points} bytes" in err
        assert not out.exists()


class TestSimulateCommand:
    def test_deterministic_dump(self, tmp_path):
        cfg = write_json(tmp_path, "p.json", {"variant": "rademacher"})
        o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (o1, o2):
            assert main(["simulate", "--config", cfg, "--horizon", "10",
                         "--seed", "7", "--out", out]) == 0
        assert open(o1, "rb").read() == open(o2, "rb").read()
        rows = read_csv(o1)
        assert len(rows) == 10
        assert [r["n"] for r in rows] == [str(i) for i in range(1, 11)]

    def test_checkpoints_write_only_their_rows(self, tmp_path):
        # steps between the checkpoints are taken but not written: each row
        # is the full dump's row at its step
        cfg = write_json(tmp_path, "p.json", {"variant": "scaled_symmetric"})
        full, some = str(tmp_path / "full.csv"), str(tmp_path / "some.csv")
        assert main(["simulate", "--config", cfg, "--horizon", "12", "--seed", "7",
                     "--out", full]) == 0
        assert main(["simulate", "--config", cfg, "--horizon", "12", "--seed", "7",
                     "--checkpoints", "2", "5", "12", "--out", some]) == 0
        rows = read_csv(full)
        assert read_csv(some) == [rows[1], rows[4], rows[11]]

    def test_missing_seed(self, tmp_path):
        cfg = write_json(tmp_path, "p.json", {"variant": "rademacher"})
        assert main(["simulate", "--config", cfg, "--horizon", "10"]) == 2

    def test_unsorted_checkpoints(self, tmp_path):
        cfg = write_json(tmp_path, "p.json", {"variant": "rademacher"})
        assert main(["simulate", "--config", cfg, "--horizon", "10",
                     "--seed", "7", "--checkpoints", "5", "2"]) == 2

    def test_non_integral_steps(self, tmp_path, capsys):
        # int() used to run this to rows n = 2 and 7
        cfg = write_json(tmp_path, "p.json", {"spec": {"variant": "rademacher"}, "seed": 3,
                                              "horizon": 10.9, "checkpoints": [2.5, 7.9]})
        assert main(["simulate", "--config", cfg]) == 2
        assert "horizon must be an integer" in capsys.readouterr().err
        cfg = write_json(tmp_path, "p.json", {"spec": {"variant": "rademacher"}, "seed": 3,
                                              "horizon": 10.0, "checkpoints": [2.5, 7.9]})
        assert main(["simulate", "--config", cfg]) == 2
        assert "checkpoints must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flag", [
        ({"seed": -1}, []), ({"seed": 3}, ["--seed", "-5"]), ({"seed": True}, []),
    ], ids=["config", "flag", "bool"])
    def test_bad_seed(self, tmp_path, capsys, config, flag):
        # a negative seed ended in numpy's ValueError; true was seed 1
        cfg = write_json(tmp_path, "p.json", {"spec": {"variant": "rademacher"},
                                              "horizon": 10, **config})
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), *flag]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key(self, tmp_path, capsys):
        # the misspelt key used to be ignored, and all 10 steps written
        cfg = write_json(tmp_path, "p.json", {"spec": {"variant": "rademacher"}, "seed": 3,
                                              "horizon": 10, "chekpoints": [2, 5]})
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "chekpoints" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_past_the_grid(self, tmp_path, capsys, monkeypatch):
        # three steps were written, then the handle's IndexError exited 2;
        # lil and verify refused this horizon before any draw
        monkeypatch.setattr(processes.ProcessHandle, "step",
                            lambda self: pytest.fail("step called"))
        cfg = write_json(tmp_path, "p.json", {
            "spec": {"variant": "brownian_grid", "times": [0.25, 0.5, 1.0]},
            "seed": 1, "horizon": 5})
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "horizon 5 exceeds the grid's 3 steps" in err and "DomainError" in err
        assert not out.exists()

    def test_zero_horizon_flag(self, tmp_path, capsys):
        # --horizon 0 ran the config's horizon and wrote its 4 rows
        cfg = write_json(tmp_path, "p.json", {"spec": {"variant": "rademacher"}, "seed": 3,
                                              "horizon": 4})
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", cfg, "--horizon", "0", "--out", str(out)]) == 2
        assert "horizon must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, flag", [({"checkpoints": [2]}, ["--checkpoints"]),
                                              ({"checkpoints": []}, [])], ids=["flag", "config"])
    def test_empty_checkpoints(self, tmp_path, capsys, monkeypatch, config, flag):
        # --checkpoints with no values was taken as absent: the config's
        # row n = 2 was written, and exit 0
        monkeypatch.setattr(processes.ProcessHandle, "step",
                            lambda self: pytest.fail("step called"))
        cfg = write_json(tmp_path, "p.json", {"spec": {"variant": "rademacher"}, "seed": 3,
                                              "horizon": 4, **config})
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), *flag]) == 2
        err = capsys.readouterr().err
        assert "checkpoints must name at least one step" in err and "DomainError" in err
        assert not out.exists()

    def test_mv_dump_has_statistic_column(self, tmp_path):
        cfg = write_json(tmp_path, "p.json",
                         {"variant": "mv_brownian_grid", "dim": 2, "t0": 0.5,
                          "rho": 2.0, "horizon": 8.0})
        out = str(tmp_path / "mv.csv")
        assert main(["simulate", "--config", cfg, "--horizon", "5",
                     "--seed", "7", "--out", out]) == 0
        rows = read_csv(out)
        assert "mv_stat" in rows[0]
        assert all(math.isfinite(float(r["mv_stat"])) for r in rows)


class TestVerifyCommand:
    def make_suite(self, tmp_path, lam=0.5, seed=True):
        suite = {
            "schema": 1,
            "experiments": [{
                "name": "tiny",
                "op": "supermartingale_mean",
                "config": {"spec": {"variant": "rademacher"}, "paths": 2000,
                           "horizon": 50, "checkpoints": [50],
                           "lambda_grid": [lam]},
            }],
        }
        if seed:
            suite["seed"] = 99
        return write_json(tmp_path, "suite.json", suite)

    def test_oversized_lambda_grid_refused_before_any_draw(self, tmp_path, capsys, no_draws):
        suite = json.loads(open(self.make_suite(tmp_path)).read())
        suite["experiments"][0]["config"]["lambda_grid"] = [0.5] * 65537
        cfg = write_json(tmp_path, "big.json", suite)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert "DomainError: lambda_grid of 65537 items asks for 524296 bytes" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_passing_suite(self, tmp_path):
        cfg = self.make_suite(tmp_path)
        out = str(tmp_path / "out")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "tiny.csv"))
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["all_pass"] is True
        assert report["seed"] == 99

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.make_suite(tmp_path)
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for d in (d1, d2):
            assert main(["verify", "--config", cfg, "--out", d]) == 0
        for name in ("tiny.csv", "report.json"):
            b1 = open(os.path.join(d1, name), "rb").read()
            b2 = open(os.path.join(d2, name), "rb").read()
            assert b1 == b2

    def test_certification_violation_is_config_error(self, tmp_path):
        suite = {
            "schema": 1, "seed": 99,
            "experiments": [{
                "name": "bad",
                "op": "supermartingale_mean",
                "config": {"spec": {"variant": "bounded_above", "m_bound": 1.0,
                                    "lambda0": 0.5},
                           "paths": 100, "horizon": 10, "lambda_grid": [0.9]},
            }],
        }
        cfg = write_json(tmp_path, "suite.json", suite)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bernstein_lambda_one_over_m_is_config_error(self, tmp_path, capsys):
        suite = {
            "schema": 1, "seed": 99,
            "experiments": [{
                "name": "edge",
                "op": "supermartingale_mean",
                "config": {"spec": {"variant": "bernstein", "m_bound": 1.0},
                           "paths": 100, "horizon": 10, "lambda_grid": [1.0]},
            }],
        }
        cfg = write_json(tmp_path, "suite.json", suite)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "CertificationError" in capsys.readouterr().err

    def test_bernstein_crossing_is_config_error(self, tmp_path, capsys):
        # the mixture boundary assumes the canonical weight, not Bernstein's
        suite = {
            "schema": 1, "seed": 99,
            "experiments": [{
                "name": "bernstein_crossing",
                "op": "crossing",
                "config": {"spec": {"variant": "bernstein", "m_bound": 1.0},
                           "paths": 100, "horizon": 10},
                "op_args": {"mixture": {"type": "density_rs", "delta": 1.0},
                            "c_over_mass": 10.0},
            }],
        }
        cfg = write_json(tmp_path, "suite.json", suite)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "DomainError" in capsys.readouterr().err

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        # a float of any type is written as a plain float literal
        suite = json.loads(open(self.make_suite(tmp_path)).read())
        suite["experiments"].append({
            "name": "tail", "op": "tail_bound",
            "config": {"spec": {"variant": "scaled_symmetric"}, "paths": 500,
                       "horizon": 40},
            "op_args": {"y": 1.0}})
        cfg = write_json(tmp_path, "suite2.json", suite)
        out = str(tmp_path / "o")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        for name in ("tiny.csv", "tail.csv"):
            rows = read_csv(os.path.join(out, name))
            assert rows
            for row in rows:
                assert row["pass"] in ("True", "False")
                for col in ("analytic_bound", "estimate", "std_error", "paths"):
                    float(row[col])

    def test_missing_seed_is_config_error(self, tmp_path):
        cfg = self.make_suite(tmp_path, seed=False)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.make_suite(tmp_path)
        out = str(tmp_path / "o")
        assert main(["verify", "--config", cfg, "--seed", "123",
                     "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["seed"] == 123

    def test_seed_precedence(self, tmp_path):
        # --seed beats an experiment's own seed, which beats the suite's
        suite = json.loads(open(self.make_suite(tmp_path)).read())
        own = json.loads(json.dumps(suite["experiments"][0]))
        own["name"], own["config"]["seed"] = "own", 5
        suite["experiments"].append(own)
        cfg = write_json(tmp_path, "suite2.json", suite)

        def seeds(*flag):
            out = str(tmp_path / ("o" + "".join(flag)))
            assert main(["verify", "--config", cfg, "--out", out, *flag]) == 0
            report = json.loads(open(os.path.join(out, "report.json")).read())
            return report["seed"], [e["config"]["seed"] for e in report["experiments"]]

        assert seeds() == (99, [99, 5])
        assert seeds("--seed", "7") == (7, [7, 7])

    @pytest.mark.parametrize("key", ["checkpionts", "lambda_gird"])
    def test_unknown_config_key(self, tmp_path, capsys, no_draws, key):
        suite = json.loads(open(self.make_suite(tmp_path)).read())
        suite["experiments"][0]["config"][key] = [50]
        cfg = write_json(tmp_path, "suite2.json", suite)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("op, op_args, named", [
        ("tail_bound", {"y": 1.0, "yy": 2.0}, "yy"),
        ("crossing", {"mixture": {"type": "density_rs", "delta": 1.0}, "c": 10.0,
                      "c_over_mass": 10.0}, "c_over_mass"),
    ], ids=["unknown_key", "c_and_c_over_mass"])
    def test_bad_op_args(self, tmp_path, capsys, no_draws, op, op_args, named):
        suite = {"schema": 1, "seed": 99, "experiments": [{
            "name": "bad", "op": op, "op_args": op_args,
            "config": {"spec": {"variant": "rademacher"}, "paths": 100, "horizon": 10}}]}
        cfg = write_json(tmp_path, "suite.json", suite)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("where, key", [("suite", "sede"), ("entry", "op_arg")])
    def test_unknown_suite_or_entry_key(self, tmp_path, capsys, no_draws, where, key):
        # a misspelt "op_arg" used to run the moment bounds at the default p
        suite = {"schema": 1, "seed": 99, "experiments": [{
            "name": "moments", "op": "moment_bound",
            "config": {"spec": {"variant": "rademacher"}, "paths": 100, "horizon": 10}}]}
        (suite if where == "suite" else suite["experiments"][0])[key] = (
            5 if where == "suite" else {"p_list": [3.0]})
        cfg = write_json(tmp_path, "suite.json", suite)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "7"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_suite_key_is_named_before_a_missing_seed(self, tmp_path, capsys,
                                                              no_draws):
        # "sede" is the suite's only seed: without --seed, the misspelling is
        # what the error names, not the seed it hides
        suite = {"schema": 1, "sede": 5, "experiments": [{
            "name": "mean", "op": "supermartingale_mean",
            "config": {"spec": {"variant": "rademacher"}, "paths": 100, "horizon": 10}}]}
        cfg = write_json(tmp_path, "suite.json", suite)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sede" in err and "no seed" not in err
        assert not out.exists()

    def self_seeded_suite(self, tmp_path, **top):
        """A suite whose one entry gives its own seed, 5, with `top` added."""
        suite = json.loads(open(self.make_suite(tmp_path, seed=False)).read())
        suite["experiments"][0]["config"]["seed"] = 5
        return write_json(tmp_path, "own.json", {**suite, **top})

    def test_entries_with_their_own_seeds_need_no_suite_seed(self, tmp_path):
        # no --seed and no suite "seed": each entry's seed stands, and the
        # report's top-level seed is null
        out = tmp_path / "o"
        assert main(["verify", "--config", self.self_seeded_suite(tmp_path),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] is None
        assert [e["config"]["seed"] for e in report["experiments"]] == [5]

    def test_bad_suite_seed_is_refused_over_self_seeded_entries(self, tmp_path, capsys,
                                                                no_draws):
        # the entries never read the suite's seed, and it is still checked
        # by its rule before any draw
        out = tmp_path / "o"
        assert main(["verify", "--config", self.self_seeded_suite(tmp_path, seed=-1),
                     "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault, named", [
        ({"op_arg": {}}, "op_arg"),
        ({"op": "momentbound"}, "momentbound"),
        ({"config": {"spec": {"variant": "rademacher"}, "paths": 100, "horizon": 10,
                     "chekpoints": [5]}}, "chekpoints"),
        ({"op": "crossing", "op_args": {"mixture": {"type": "density_rs", "delta": 1.0},
                                        "c": 10.0, "c_over_mass": 10.0}}, "c_over_mass"),
        ({"op_args": {"p_lst": [3.0]}}, "p_lst"),
    ], ids=["entry_key", "op", "config_key", "c_and_c_over_mass", "op_args_key"])
    def test_fault_in_a_later_entry_is_found_before_any_draw(self, tmp_path, capsys,
                                                             no_draws, fault, named):
        good = {"name": "mean", "op": "supermartingale_mean",
                "config": {"spec": {"variant": "rademacher"}, "paths": 100, "horizon": 10}}
        bad = {**good, "name": "moments", "op": "moment_bound", **fault}
        suite = {"schema": 1, "seed": 99, "experiments": [good, good | {"name": "m2"}, bad]}
        cfg = write_json(tmp_path, "suite.json", suite)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "chunk stream" not in err
        assert not out.exists()

    @pytest.mark.parametrize("op, op_args, named", [
        ("crossing", {"mixture": {"type": "density_rs", "delta": 1.0}, "c": "10"}, "'c'"),
        ("crossing", {"mixture": {"type": "density_rs", "delta": 1.0},
                      "c_over_mass": "10"}, "'c_over_mass'"),
        ("crossing", {"mixture": {"type": "density_rs", "delta": 1.0}, "c": True}, "'c'"),
        ("tail_bound", {"y": "1.0"}, "'y'"),
        ("tail_bound", {"y": None}, "'y'"),
        ("moment_bound", {"p_list": [1.0, "2"]}, "'p_list'"),
        ("moment_bound", {"p_list": 2.0}, "'p_list'"),
    ], ids=["c_string", "c_over_mass_string", "c_bool", "y_string", "y_null",
            "p_list_entry_string", "p_list_not_a_list"])
    def test_non_numeric_op_arg_is_refused_before_any_draw(self, tmp_path, capsys,
                                                           no_draws, op, op_args, named):
        # a string c passed the name check, and the crossing exited 2 on a
        # TypeError after the mean before it had run
        mean = {"name": "mean", "op": "supermartingale_mean",
                "config": {"spec": {"variant": "rademacher"}, "paths": 100, "horizon": 10}}
        bad = {"name": "bad", "op": op, "op_args": op_args,
               "config": {"spec": {"variant": "rademacher"}, "paths": 100, "horizon": 10}}
        suite = {"schema": 1, "seed": 99, "experiments": [mean, bad]}
        cfg = write_json(tmp_path, "suite.json", suite)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "finite number" in err and "chunk stream" not in err
        assert not out.exists()

    @pytest.mark.parametrize("named, config, op, op_args", [
        ("x_grid", {"x_grid": ["2"]}, "tail_bound", {"y": 1.0}),
        ("x_grid", {"x_grid": [math.nan]}, "tail_bound", {"y": 1.0}),
        ("x_grid", {"x_grid": [math.inf]}, "tail_bound", {"y": 1.0}),
        ("lambda_grid", {"lambda_grid": [math.nan]}, "supermartingale_mean", {}),
        ("se_slack", {"se_slack": "nan"}, "supermartingale_mean", {}),
        ("seed", {"seed": -1}, "supermartingale_mean", {}),
        ("checkpoints", {"checkpoints": [True]}, "supermartingale_mean", {}),
        ("sigma", {"spec": {"variant": "scaled_symmetric", "sigma": math.nan}},
         "supermartingale_mean", {}),
        ("mu", {"spec": {"variant": "scaled_symmetric", "mu": math.inf}},
         "supermartingale_mean", {}),
        ("delta", {}, "crossing", {"mixture": {"type": "density_rs", "delta": math.nan},
                                   "c": 10.0}),
        ("'c_over_mass'", {}, "crossing", {"mixture": {"type": "density_rs", "delta": 1.0},
                                           "c_over_mass": -1.0}),
    ], ids=["x_grid_string", "x_grid_nan", "x_grid_inf", "lambda_grid_nan", "se_slack_string",
            "negative_seed", "checkpoint_bool", "spec_sigma_nan", "spec_mu_inf",
            "mixture_delta_nan", "c_over_mass_negative"])
    def test_bad_value_in_a_later_entry_is_refused_before_any_draw(
            self, tmp_path, capsys, no_draws, named, config, op, op_args):
        # x_grid ["2"] ran the first entry and then exited on a TypeError;
        # the NaN and inf values ran every draw into NaN or vacuous rows
        mean = {"name": "mean", "op": "supermartingale_mean",
                "config": {"spec": {"variant": "rademacher"}, "paths": 100, "horizon": 10}}
        bad = {"name": "bad", "op": op, "op_args": op_args,
               "config": {**mean["config"], **config}}
        suite = {"schema": 1, "seed": 99, "experiments": [mean, bad]}
        cfg = write_json(tmp_path, "suite.json", suite)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "chunk stream" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        (None, "cannot read config"), ("{\"schema\": 1,", "cannot read config"),
        ('{"schema": 2, "seed": 99, "experiments": []}', "unsupported suite schema 2")],
        ids=["unreadable", "malformed", "wrong_schema"])
    def test_bad_suite_file_is_config_error(self, tmp_path, capsys, no_draws, text, named):
        cfg = tmp_path / "suite.json"  # absent where text is None
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, capsys, no_draws):
        out = tmp_path / "o"
        assert main(["verify", "--config", self.make_suite(tmp_path), "--seed", "-5",
                     "--out", str(out)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_op_table_calls_the_module_attribute(self, tmp_path, monkeypatch):
        # tracing wraps cli's entry points; the table must see the wrapper
        calls = []
        original = cli.check_supermartingale_mean

        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "check_supermartingale_mean", wrapper)
        cfg = self.make_suite(tmp_path)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == [{"workers": None}]

    def test_extra_row_keys_never_reach_the_csv(self, tmp_path, monkeypatch):
        # a report row that gains a key (a later `checks` object) writes it
        # to report.json only: the CSV keeps REPORT_COLUMNS, byte for byte
        cfg = self.make_suite(tmp_path)
        plain, extra = tmp_path / "plain", tmp_path / "extra"
        assert main(["verify", "--config", cfg, "--out", str(plain)]) == 0
        rows = cli.report_rows
        monkeypatch.setattr(cli, "report_rows", lambda reports: [
            {**row, "checks": {"exact": 1.0}} for row in rows(reports)])
        assert main(["verify", "--config", cfg, "--out", str(extra)]) == 0
        assert (extra / "tiny.csv").read_bytes() == (plain / "tiny.csv").read_bytes()
        [row] = json.loads((extra / "report.json").read_text())["experiments"][0]["reports"]
        assert row["checks"] == {"exact": 1.0}

    def test_bundled_suite_schema_is_current(self):
        suite = json.loads(open(SUITE).read())
        assert suite["schema"] == 1
        assert "seed" in suite


class TestSchemas:
    """Every JSON document the CLI writes carries REPORT_SCHEMA; `verify`
    reads suites of SUITE_SCHEMA. The two move apart."""

    def test_report_schema_moves_alone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "REPORT_SCHEMA", 2)
        assert cli.SUITE_SCHEMA == 1
        out = tmp_path / "verify"
        assert main(["verify", "--config", SUITE, "--out", str(out)]) == 0
        lil = write_json(tmp_path, "lil.json", {"spec": {"variant": "rademacher"}, "seed": 4,
                                                "paths": 10, "horizon": 100})
        spec = write_json(tmp_path, "spec.json", {"variant": "rademacher"})
        docs = [out / "report.json"]
        for argv in (["lil", "--config", lil], ["tailbound", "--x", "2", "--format", "json"],
                     ["simulate", "--config", spec, "--seed", "1", "--horizon", "5",
                      "--format", "json"]):
            docs.append(tmp_path / f"{argv[0]}.out.json")
            assert main(argv + ["--out", str(docs[-1])]) == 0
        assert [json.loads(doc.read_text())["schema"] for doc in docs] == [2] * 4
        suite = json.loads(open(SUITE).read()) | {"schema": 2}
        refused = tmp_path / "refused"
        assert main(["verify", "--config", write_json(tmp_path, "suite2.json", suite),
                     "--out", str(refused)]) == 2
        assert "unsupported suite schema 2" in capsys.readouterr().err
        assert not refused.exists()


class TestLilCommand:
    def test_summary_document(self, tmp_path):
        cfg = write_json(tmp_path, "lil.json",
                         {"spec": {"variant": "rademacher"}, "seed": 4,
                          "paths": 50, "horizon": 2000,
                          "checkpoints": [1000, 2000]})
        out = str(tmp_path / "lil.out.json")
        assert main(["lil", "--config", cfg, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["statistic"] == "lil"
        assert doc["limsup_bound"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert len(doc["median_running_max"]) == 2

    @pytest.mark.parametrize("variant, statistic", [("rademacher", "uncentered"),
                                                    ("counterexample65", "conditional_variance")])
    def test_unbounded_limsup_is_null(self, tmp_path, variant, statistic):
        # the uncentered and conditional-variance statistics have no limsup
        # bound: an infinite one is written as null
        cfg = write_json(tmp_path, "lil.json",
                         {"spec": {"variant": variant}, "seed": 4, "paths": 10,
                          "horizon": 100, "statistic": statistic})
        out = str(tmp_path / "lil.out.json")
        assert main(["lil", "--config", cfg, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["statistic"] == statistic
        assert doc["limsup_bound"] is None

    def test_seed_precedence(self, tmp_path):
        # --seed beats the config's seed: the flag used to be ignored
        cfg = write_json(tmp_path, "lil.json",
                         {"spec": {"variant": "rademacher"}, "seed": 5, "paths": 20,
                          "horizon": 300, "checkpoints": [100, 300], "margin": 0.2})
        docs = {}
        for flag in ([], ["--seed", "7"], ["--seed", "8"]):
            out = str(tmp_path / f"lil{len(docs)}.json")
            assert main(["lil", "--config", cfg, "--out", out] + flag) == 0
            docs[tuple(flag)] = open(out).read()
        assert len(set(docs.values())) == 3
        assert [json.loads(d)["config"]["seed"] for d in docs.values()] == [5, 7, 8]
        assert all(json.loads(d)["margin"] == 0.2 for d in docs.values())

    def test_unknown_key_is_config_error(self, tmp_path, capsys, no_draws):
        cfg = write_json(tmp_path, "lil.json",
                         {"spec": {"variant": "rademacher"}, "seed": 4, "paths": 10,
                          "horizon": 100, "checkpionts": [50, 100]})
        assert main(["lil", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert "checkpionts" in capsys.readouterr().err

    @pytest.mark.parametrize("statistic", ["foo", "universal", "conditional_variance"])
    def test_unsupported_statistic_is_config_error(self, tmp_path, capsys, statistic):
        cfg = write_json(tmp_path, "lil.json",
                         {"spec": {"variant": "rademacher"}, "seed": 4,
                          "paths": 10, "horizon": 100, "statistic": statistic})
        assert main(["lil", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "DomainError" in err and repr(statistic) in err

    def test_margin_not_a_number_is_config_error(self, tmp_path, capsys, no_draws):
        # a string margin ran the whole experiment, then exited 2 on a TypeError
        cfg = write_json(tmp_path, "lil.json",
                         {"spec": {"variant": "rademacher"}, "seed": 4, "paths": 10,
                          "horizon": 100, "margin": "0.2"})
        assert main(["lil", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "DomainError" in err and "margin" in err

    def test_oversized_records_refused_before_any_array(self, tmp_path, capsys, no_draws):
        # 1e7 paths x 100 checkpoints asked the reducers for two 8 GB arrays
        # and the output for two more; sized in closed form, nothing is made
        cfg = write_json(tmp_path, "lil.json",
                         {"spec": {"variant": "rademacher"}, "seed": 4, "paths": 10**7,
                          "horizon": 100, "checkpoints": list(range(1, 101))})
        out = tmp_path / "o.json"
        tracemalloc.start()
        try:
            assert main(["lil", "--config", cfg, "--out", str(out)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        err = capsys.readouterr().err
        assert f"DomainError: paths {10**7} x checkpoints 100 asks for {8 * 10**9} bytes" in err
        assert not out.exists()

    def test_chunk_count_refused_before_any_stream(self, tmp_path, capsys, no_draws):
        # 10^6 paths of 10^7 steps are 10^6 one-path chunks, a stream each
        cfg = write_json(tmp_path, "lil.json",
                         {"spec": {"variant": "rademacher"}, "seed": 4, "paths": 10**6,
                          "horizon": 10**7})
        out = tmp_path / "o.json"
        assert main(["lil", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"DomainError: paths {10**6} of {10**7} cells each take {10**6} chunks" in err
        assert not out.exists()

    def test_vector_spec_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "lil.json",
                         {"spec": {"variant": "mv_brownian_grid", "dim": 2,
                                   "t0": 0.01, "rho": 1.2, "horizon": 100.0},
                          "seed": 4, "paths": 10, "horizon": 40})
        assert main(["lil", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert "DomainError" in capsys.readouterr().err


RUN = {"seed": 4, "paths": 10, "horizon": 20}


class TestFieldRefusal:
    """A spec or mixture field that breaks its rule exits 2, naming the
    field, before any chunk stream opens or any file is written."""

    @pytest.mark.parametrize("command, obj, named", [
        ("lil", {"spec": {"variant": "rademacher", "r": 1}, **RUN}, "r must be"),
        ("lil", {"spec": {"variant": "rademacher", "r": math.nan}, **RUN}, "r must be"),
        ("verify", {"schema": 1, "seed": 4, "experiments": [
            {"name": "mean", "op": "supermartingale_mean",
             "config": {"spec": {"variant": "rademacher", "r": 5.0}, "paths": 10,
                        "horizon": 20, "lambda_grid": [1.0]}}]}, "r must be"),
        ("simulate", {"spec": {"variant": "brownian_grid", "times": ["0.5", "1"]},
                      "seed": 1, "horizon": 2}, "times must be"),
        ("simulate", {"spec": {"variant": "mv_brownian_grid", "dim": 2.5},
                      "seed": 1, "horizon": 2}, "dim must be"),
        ("simulate", {"spec": {"variant": "bernstein", "m_bound": True},
                      "seed": 1, "horizon": 2}, "m_bound must be"),
        ("boundary", {"type": "density_rs", "delta": "1"}, "delta must be"),
        ("boundary", {"type": "density_rs", "delta": True}, "delta must be"),
        ("boundary", {"type": "density_rs", "delta": 1.0, "nope": 1}, "nope"),
        ("boundary", {"type": "density_rs"}, "delta"),
        ("boundary", [1, 2], "JSON object"),
        ("simulate", {"spec": [1, 2], "seed": 1, "horizon": 2}, "JSON object"),
    ], ids=["lil_r_1", "lil_r_nan", "verify_r_5", "simulate_times_strings",
            "simulate_dim_2.5", "simulate_bool_m_bound", "boundary_delta_string",
            "boundary_delta_bool", "boundary_unknown_key", "boundary_missing_delta",
            "boundary_not_an_object", "simulate_spec_not_an_object"])
    def test_refused(self, tmp_path, capsys, monkeypatch, no_draws, command, obj, named):
        # each ran: r = 5 to a passing supermartingale mean, r = 1 to a
        # ZeroDivisionError, the strings and bools as numbers, the unknown
        # key ignored; a missing delta was a bare KeyError, and a list in
        # place of an object a TypeError that named nothing
        monkeypatch.setattr(cli, "boundary", lambda *a: pytest.fail("boundary called"))
        monkeypatch.setattr(processes.ProcessHandle, "step",
                            lambda self: pytest.fail("step called"))
        cfg = write_json(tmp_path, "c.json", obj)
        out = tmp_path / "o"
        flags = ["--c", "10"] if command == "boundary" else []
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert "DomainError" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "2.5", "0"])
    def test_bad_workers_variable(self, tmp_path, capsys, monkeypatch, no_draws, value):
        # abc and 2.5 exited on int()'s ValueError, which named no input
        monkeypatch.setenv("SELFNORM_WORKERS", value)
        cfg = write_json(tmp_path, "lil.json", {"spec": {"variant": "rademacher"}, **RUN})
        out = tmp_path / "o.json"
        assert main(["lil", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "DomainError" in err and "SELFNORM_WORKERS must be an integer >= 1" in err
        assert not out.exists()


class TestAcceptedOptions:
    """Each subcommand accepts exactly the options it reads."""
    OPTIONS = {
        "constants": {"--gamma", "--lambda", "--r", "--l-normalization", "--alpha",
                      "--delta", "--out", "--format"},
        "boundary": {"--config", "--c", "--r", "--v-min", "--v-max", "--v-points",
                     "--asymptotic", "--delta", "--out", "--format"},
        "tailbound": {"--x", "--p", "--out", "--format"},
        "simulate": {"--config", "--horizon", "--checkpoints", "--out", "--format",
                     "--seed"},
        "verify": {"--config", "--out", "--seed", "--workers"},
        "lil": {"--config", "--out", "--seed", "--workers"},
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_set(self, command):
        [sub] = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        sp = sub.choices[command]
        got = {o for a in sp._actions for o in a.option_strings if o.startswith("--")}
        assert got - {"--help"} == self.OPTIONS[command]

    @pytest.mark.parametrize("argv", [
        ["verify", "--config", "s.json", "--format", "json"],
        ["lil", "--config", "l.json", "--format", "json"],
        ["simulate", "--config", "p.json", "--workers", "2"],
    ], ids=["verify-format", "lil-format", "simulate-workers"])
    def test_unread_options_are_usage_errors(self, argv, capsys):
        build_parser().parse_args(argv[:3])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
