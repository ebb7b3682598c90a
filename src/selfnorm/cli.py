"""Command-line entry point.

Subcommands: constants, boundary, tailbound, simulate, verify, lil.
Exit codes: 0 all checks pass, 1 a bound check failed, 2 usage/config error.
Seed precedence: --seed flag > the experiment's "seed" > the suite's "seed" >
error (no silent default). Unknown keys are refused in experiment configs
(read by `experiments.config_from_json`), simulate configs, suites and suite
entries. Each value, the seed in use included, is checked by its rule in
`experiments.INPUT_RULES`; a suite's, before its first entry runs.
Every JSON document written carries REPORT_SCHEMA (`_write_json`); `verify`
reads suites of SUITE_SCHEMA, a number of its own.
"""
from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import sys

import numpy as np

from . import constants as konst
from . import bounds
from .mixture import (GaussianMixture, RobbinsSiegmund, boundary, measure_from_json,
                      mv_statistic, psi, rs_asymptotic, general_r_asymptotic)
from .processes import make_process, spec_from_json
from .experiments import (INPUT_RULES, BoundReport, REPORT_COLUMNS,
                          check_supermartingale_mean, config_echo, config_from_json,
                          crossing_frequency, lil_track, report_rows,
                          validate_moment_bound, validate_tail_bound)

SUITE_SCHEMA = 1  # the suite format `verify` reads
REPORT_SCHEMA = 1  # stamped on every JSON document the CLI writes


class CliError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_json(path: str | None, doc: dict) -> None:
    """doc, stamped with REPORT_SCHEMA, as sorted, indented JSON and a newline."""
    _write_text(path, json.dumps({**doc, "schema": REPORT_SCHEMA}, indent=2, sort_keys=True) + "\n")


def _rows_to_csv(rows: list[dict], columns) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n",
                       extrasaction="ignore")
    w.writeheader()
    for row in rows:
        w.writerow({k: (repr(float(v)) if isinstance(v, float) else v)
                    for k, v in row.items()})
    return buf.getvalue()


def _emit(rows: list[dict], fmt: str, out: str | None, meta: dict, columns=None) -> None:
    """A table as CSV, its columns every row key sorted unless given, or as JSON."""
    if fmt == "csv":
        _write_text(out, _rows_to_csv(rows, columns or sorted({k for r in rows for k in r})))
    else:
        _write_json(out, {"meta": meta, "rows": rows})


def _known_keys(what: str, obj: dict, allowed: tuple) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise CliError(f"unknown {what} key(s) {unknown}; allowed: {list(allowed)}")


def _resolve_seed(flag: int | None, *cfgs: dict) -> int:
    """The --seed flag, else the "seed" of the first of cfgs that has one."""
    for seed in (flag, *(cfg.get("seed") for cfg in cfgs)):
        if seed is not None:
            return INPUT_RULES["seed"](seed, "seed")
    raise CliError("no seed given: pass --seed or put \"seed\" in the config")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    rows = []
    for g in args.gamma or []:
        row = {"kind": "gamma", "arg": g, "c_gamma": konst.c_gamma(g)}
        if args.r is not None:
            row["c_gamma_r"] = konst.c_gamma_r(g, args.r)
        rows.append(row)
    for lam in args.lam or []:
        k = konst.lil_constants(lam)
        rows.append({"kind": "lambda", "arg": lam, "h": k.h,
                     "b_lambda": k.b_lambda, "gamma": k.gamma,
                     "a_lambda": k.a_lambda})
    if args.l_normalization:
        alpha = args.alpha if args.alpha is not None else konst.DEFAULT_ALPHA
        beta = 2.0 * konst.unnormalized_integral(alpha, args.delta)
        cfg = konst.LConfig(alpha=alpha, delta=args.delta, beta=beta)
        rows.append({"kind": "L", "arg": args.delta, "alpha": alpha,
                     "beta": beta,
                     "growth_violations": len(konst.l_growth_violations(cfg))})
    if not rows:
        raise CliError("nothing requested: use --gamma, --lambda or --l-normalization")
    _emit(rows, args.format, args.out, {"command": "constants"})
    return 0


def cmd_boundary(args) -> int:
    spec = _load_json(args.config)
    F = measure_from_json(spec)
    if isinstance(F, GaussianMixture):
        raise CliError("boundary tables need a scalar mixture, not a Gaussian one")
    INPUT_RULES["c"](args.c, "--c")
    # the asymptotics are of the Robbins-Siegmund boundary, rs at order 2 and
    # at its own delta
    if args.asymptotic != "none" and not isinstance(F, RobbinsSiegmund):
        raise konst.DomainError(f"--asymptotic {args.asymptotic} needs a density_rs mixture, "
                                f"not {spec.get('type')!r}")
    if args.asymptotic == "rs" and args.r != 2.0:
        raise konst.DomainError(f"--asymptotic rs is of order 2, not --r {args.r!r}")
    v_min, v_max = (INPUT_RULES[k](getattr(args, k), "--" + k.replace("_", "-"))
                    for k in ("v_min", "v_max"))
    if v_min > v_max:
        raise konst.DomainError(f"--v-min {v_min!r} exceeds --v-max {v_max!r}")
    vg = np.geomspace(v_min, v_max, INPUT_RULES["v_points"](args.v_points, "--v-points"))
    betas = boundary(vg, args.c, F, args.r)
    rows = []
    for v, beta, back in zip(vg.tolist(), betas.tolist(),
                             psi(betas, vg, F, args.r).tolist()):
        row = {"v": v, "beta": beta, "psi_roundtrip": back}
        if args.asymptotic != "none":
            asy = (rs_asymptotic(v, args.c, F.delta) if args.asymptotic == "rs"
                   else general_r_asymptotic(v, args.r))
            row.update({"asymptotic": asy, "ratio": beta / asy})
        rows.append(row)
    _emit(rows, args.format, args.out,
          {"command": "boundary", "c": args.c, "r": args.r, "mixture": spec})
    return 0


def cmd_tailbound(args) -> int:
    rows = []
    for x in INPUT_RULES["x_grid"](args.x or [], "--x"):
        rows.append({"kind": "tail", "arg": x, "bound": bounds.tail_bound_cor22(x)})
    for p in INPUT_RULES["p_list"](args.p or [], "--p"):
        rows.append({"kind": "moment", "arg": p,
                     "ratio_moment_bound": bounds.moment_bound_thm21(p),
                     "normalized_moment_bound": bounds.moment_bound_cor22(p)})
    if not rows:
        raise CliError("nothing requested: use --x or --p")
    _emit(rows, args.format, args.out, {"command": "tailbound"})
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    run = cfg if "spec" in cfg else {"spec": cfg}  # a bare spec object: every key is the spec's
    _known_keys("simulate config", run, ("spec", "seed", "horizon", "checkpoints"))
    spec = spec_from_json(run["spec"])
    seed = _resolve_seed(args.seed, run)
    horizon = INPUT_RULES["horizon"](run.get("horizon", 0) if args.horizon is None
                                     else args.horizon, "horizon", spec)
    cks = run.get("checkpoints") if args.checkpoints is None else args.checkpoints
    cks = INPUT_RULES["checkpoints"](list(range(1, horizon + 1)) if cks is None else cks,
                                     "checkpoints", horizon)
    if not cks:  # a flag or key given no steps asks for no row
        raise konst.DomainError("checkpoints must name at least one step, got []")
    handle = make_process(spec, seed)
    mv_mix = None
    rows = []
    want = set(cks)
    for n in range(1, horizon + 1):
        st = handle.step()
        if n not in want:
            continue
        row = {"n": st.n, "a_n": st.a_n, "b_pow_r": st.b_pow_r,
               "v_n_sq": st.v_n_sq, "mu_sum": st.mu_sum}
        if "m_vec" in st.extras:  # a vector state, tested by the unit Gaussian mixture
            eye = np.eye(len(st.extras["m_vec"]))
            mv_mix = mv_mix or GaussianMixture(eye)
            row["mv_stat"] = mv_statistic(st.extras["m_vec"], st.extras["t"] * eye, mv_mix)
        rows.append(row)
    _emit(rows, args.format, args.out, {"command": "simulate", "seed": seed, "spec": cfg},
          list(rows[0]))
    return 0


# op -> entry point here, looked up per call so that a wrapper on it is seen
_VERIFY_OPS = {"supermartingale_mean": "check_supermartingale_mean",
               "tail_bound": "validate_tail_bound",
               "moment_bound": "validate_moment_bound",
               "crossing": "crossing_frequency"}


def _check_suite(suite: dict) -> list[tuple]:
    """Each entry's (name, entry point, config object, op_args), after every
    suite and entry key, op, config and op_args, and the suite's seed where
    one is given, has been checked: such a fault anywhere in the suite is
    named before any seed is resolved or any entry draws. The config is
    checked with a stand-in seed, and each op_arg by its rule (`bind` checks
    names only, and a string c would pass it), c_over_mass's being > 1.
    What spans an entry's op_args and spec surfaces only when that entry
    runs: a direct c at or below the mixture's mass, a mixture support
    outside the spec's certified range, and a spec whose weight is not the
    canonical one."""
    _known_keys("suite", suite, ("schema", "seed", "experiments"))
    if suite.get("schema") != SUITE_SCHEMA:
        raise CliError(f"unsupported suite schema {suite.get('schema')!r}")
    if suite.get("seed") is not None:  # entries with their own seeds may never read it
        INPUT_RULES["seed"](suite["seed"], "seed")
    plan = []
    for entry in suite["experiments"]:
        _known_keys("experiment", entry, ("name", "op", "config", "op_args"))
        name = entry["name"]
        op = entry["op"]
        if op not in _VERIFY_OPS:
            raise CliError(f"unknown op {op!r} in experiment {name!r}")
        obj = entry["config"]
        config_from_json({**obj, "seed": 0})
        op_args = dict(entry.get("op_args", {}))
        for key, value in op_args.items():
            if key in INPUT_RULES:
                INPUT_RULES[key](value, f"op_args {key!r} of experiment {name!r}")
        if "mixture" in op_args:
            op_args["mixture"] = measure_from_json(op_args["mixture"])
        if "c_over_mass" in op_args:
            if "c" in op_args:
                raise CliError(f"experiment {name!r} gives both 'c' and 'c_over_mass'")
            op_args["c"] = op_args.pop("c_over_mass") * op_args["mixture"].total_mass
        fn = globals()[_VERIFY_OPS[op]]
        try:
            inspect.signature(fn).bind(None, workers=None, **op_args)
        except TypeError as exc:
            raise CliError(f"bad op_args in experiment {name!r}: {exc}") from exc
        plan.append((name, fn, obj, op_args))
    return plan


def run_suite(suite: dict, seed: int | None,
              workers: int | None) -> list[tuple[str, list[BoundReport], dict]]:
    """Each experiment's reports and config echo. `seed` is the --seed flag;
    op_args are the entry point's keyword arguments (see README). The whole
    suite is checked, and every entry's seed resolved, before the first
    entry runs."""
    plan = _check_suite(suite)
    cfgs = [config_from_json({**obj, "seed": _resolve_seed(seed, obj, suite)})
            for _, _, obj, _ in plan]
    return [(name, fn(cfg, workers=workers, **op_args), config_echo(cfg))
            for (name, fn, _, op_args), cfg in zip(plan, cfgs)]


def cmd_verify(args) -> int:
    suite = _load_json(args.config)
    results = run_suite(suite, args.seed, args.workers)
    out_dir = args.out or "."  # `_write_text` makes it
    all_pass = True
    # the flag, else the suite's seed, by its rule, else none: each entry's
    # config echoes the seed it ran with
    seed = next((_resolve_seed(s) for s in (args.seed, suite.get("seed")) if s is not None), None)
    doc = {"seed": seed, "experiments": []}
    for name, reports, echo in results:
        rows = report_rows(reports)
        all_pass &= all(r["pass"] for r in rows)
        _write_text(os.path.join(out_dir, f"{name}.csv"),
                    _rows_to_csv(rows, REPORT_COLUMNS))
        doc["experiments"].append({"name": name, "config": echo, "reports": rows})
    doc["all_pass"] = bool(all_pass)
    _write_json(os.path.join(out_dir, "report.json"), doc)
    return 0 if all_pass else 1


def cmd_lil(args) -> int:
    cfg_json = _load_json(args.config)
    margin = cfg_json.pop("margin", 0.15)
    cfg = config_from_json({**cfg_json, "seed": _resolve_seed(args.seed, cfg_json)})
    summary = lil_track(cfg, margin=margin, workers=args.workers)
    doc = {k: v for k, v in summary.items() if not isinstance(v, np.ndarray)}
    if math.isinf(doc["limsup_bound"]):
        doc["limsup_bound"] = None
    _write_json(args.out, {**doc, "config": config_echo(cfg)})
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="selfnorm")
    sub = p.add_subparsers(dest="command", required=True)

    options = {"--format": dict(choices=("csv", "json"), default="csv"),
               "--seed": dict(type=int, default=None),
               "--workers": dict(type=int, default=None, help="parallel workers "
                                 "(default: SELFNORM_WORKERS env var or 1)")}

    def common(sp, *flags):
        sp.add_argument("--out", default=None, help="output file/directory")
        for flag in flags:
            sp.add_argument(flag, **options[flag])

    sp = sub.add_parser("constants", help="constant tables")
    sp.add_argument("--gamma", type=float, nargs="*", default=None)
    sp.add_argument("--lambda", dest="lam", type=float, nargs="*", default=None)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--l-normalization", action="store_true")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--delta", type=float, default=1.0)
    common(sp, "--format")
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("boundary", help="mixture boundary tables")
    sp.add_argument("--config", required=True, help="mixture JSON file")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--r", type=float, default=2.0)
    sp.add_argument("--v-min", type=float, default=10.0)
    sp.add_argument("--v-max", type=float, default=1e6)
    sp.add_argument("--v-points", type=int, default=25)
    sp.add_argument("--asymptotic", choices=("none", "rs", "general"), default="none")
    common(sp, "--format")
    sp.set_defaults(fn=cmd_boundary)

    sp = sub.add_parser("tailbound", help="analytic tail/moment bound tables")
    sp.add_argument("--x", type=float, nargs="*", default=None)
    sp.add_argument("--p", type=float, nargs="*", default=None)
    common(sp, "--format")
    sp.set_defaults(fn=cmd_tailbound)

    sp = sub.add_parser("simulate", help="dump one path at checkpoints")
    sp.add_argument("--config", required=True, help="process spec JSON file")
    sp.add_argument("--horizon", type=int, default=None)
    sp.add_argument("--checkpoints", type=int, nargs="*", default=None)
    common(sp, "--format", "--seed")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--config", required=True, help="suite JSON file")
    common(sp, "--seed", "--workers")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("lil", help="iterated-logarithm running statistics")
    sp.add_argument("--config", required=True, help="experiment JSON file")
    common(sp, "--seed", "--workers")
    sp.set_defaults(fn=cmd_lil)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # domain/quadrature/certification errors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
