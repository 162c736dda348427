"""Command-line front end.

Subcommands: fit, select, simulate, cv, reduce.  Option precedence is
command-line flags over a JSON config file (--config) over built-in
defaults; the defaults mirror the benchmark setup (stopping tolerance
1e-6, linear grid 0.001..0.5 with 100 points interpreted in
per-observation units, BIC criterion).  All artifacts are written
atomically with 17-significant-digit numbers so reruns can be compared
byte for byte.  A config file's keys are the subcommand's option names
as argparse stores them (--max-iter as max_iter, --lambda as lam,
--no-scale-y as scale_y); each value is checked like the flag's
argument, and an unknown key or an ill-typed value is a configuration
error.  Required options are checked after the merge, so a config file
can supply them too.

Exit codes: 0 success, 2 usage or configuration, 3 data, 4 numerical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .dataset import (
    ColumnRoles,
    ingest_long_csv,
    remove_linear_combos,
    standardize,
)
from .em_engine import EmControl, fit_em
from .penalized_ls import PenaltySpec
from .exceptions import ConfigurationError, LmmLassoError
from .fileio import write_csv, write_json
from .selector import auto_log_grid, select
from .simkit import (
    D_HIGH,
    D_LOW,
    ScenarioConfig,
    kfold_cv,
    run_monte_carlo,
    write_cv_csv,
    write_mc_detail_csv,
    write_mc_summary_csv,
)

_DEFAULTS = {
    "lambda_scale": "per_obs",
    "criterion": "bic",
    "penalty": "lasso",
    "alpha": 1.0,
    "eps": 1e-6,
    "max_iter": 500,
    "pls_tol": 1e-9,
    "pls_max_sweeps": 10000,
    "grid": "0.001:0.5:100",
    "threads": 1,
    "rank_tol": 1e-7,
    "standardize": False,
    "scale_y": True,
    "categorical": "",
    "n": 30,
    "n_i": 5,
    "p": 50,
    "p_star": 5,
    "d_matrix": "low",
    "replicates": 100,
}


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value, checked and converted as its flag's argument is."""
    if action.nargs == 0:  # a flag that stores a constant
        if not isinstance(value, bool):
            raise ConfigurationError(f"config key {key!r} must be true or false")
        return value
    if key == "grid" and isinstance(value, list):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in value):
            raise ConfigurationError("config key 'grid' must be a string "
                                     "or a list of numbers")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigurationError(
            f"config key {key!r} must be a string or a number, got {json.dumps(value)}")
    try:
        value = (action.type or str)(str(value))
    except ValueError:
        raise ConfigurationError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigurationError(f"config key {key!r}: {value!r} is not one of "
                                 f"{', '.join(map(str, action.choices))}")
    return value


def _merge_options(args: argparse.Namespace) -> dict:
    """Each option's value: its flag, else the config file, else _DEFAULTS, else None.

    An option in args.required that ends up None (or empty) is an error.
    """
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as e:
            raise ConfigurationError(f"cannot read config file: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"config file is not valid JSON: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigurationError("config file must hold a JSON object")

    unknown = sorted(set(file_cfg) - set(args.options))
    if unknown:
        raise ConfigurationError(f"config file has key(s) that {args.command} takes "
                                 f"no option for: {', '.join(unknown)}")
    file_cfg = {key: _config_value(args.options[key], key, value)
                for key, value in file_cfg.items()}

    merged = {}
    for key in args.options:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
        elif key in file_cfg:
            merged[key] = file_cfg[key]
        elif key in _DEFAULTS:
            merged[key] = _DEFAULTS[key]
        else:
            merged[key] = None
    missing = [args.options[key].option_strings[0] for key in args.required
               if merged[key] in (None, "")]
    if missing:
        raise ConfigurationError(f"{args.command} requires {', '.join(missing)} "
                                 "(as a flag or a --config key)")
    return merged


def _parse_grid(spec) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        values = np.asarray([float(v) for v in spec], dtype=float)
    else:
        spec = str(spec).strip()
        if not spec:
            raise ConfigurationError("empty grid specification")
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ConfigurationError(
                    f"grid {spec!r} must be start:stop:num or a comma list")
            try:
                lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError:
                raise ConfigurationError(f"malformed grid {spec!r}") from None
            if num < 1:
                raise ConfigurationError("grid length must be >= 1")
            values = np.linspace(lo, hi, num)
        else:
            try:
                values = np.asarray([float(v) for v in spec.split(",") if v != ""])
            except ValueError:
                raise ConfigurationError(f"malformed grid {spec!r}") from None
    if values.size == 0:
        raise ConfigurationError("empty grid specification")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ConfigurationError("grid values must be finite and >= 0")
    return values


def _roles_from(cfg: dict) -> ColumnRoles:
    fixed = [c.strip() for c in str(cfg["fixed"]).split(",") if c.strip()]
    random = str(cfg["random"])
    if random.startswith("intercept+"):
        roles_random = random
    else:
        roles_random = [c.strip() for c in random.split(",") if c.strip()]
    return ColumnRoles.from_mapping({
        "subject": cfg["subject"], "response": cfg["response"],
        "fixed": fixed, "random": roles_random,
    })


def _load_dataset(cfg: dict):
    roles = _roles_from(cfg)
    ds = ingest_long_csv(cfg["input"], roles)
    if cfg["standardize"]:
        cat_names = [c.strip() for c in str(cfg["categorical"]).split(",") if c.strip()]
        unknown = [c for c in cat_names if c not in ds.x_names]
        if unknown:
            raise ConfigurationError(f"categorical column(s) not in fixed set: {unknown}")
        ds = standardize(ds, categorical=[ds.x_names.index(c) for c in cat_names],
                         scale_y=cfg["scale_y"])
    return ds


def _ctrl_from(cfg: dict) -> EmControl:
    return EmControl(eps=float(cfg["eps"]), max_iter=int(cfg["max_iter"]),
                     pls_tol=float(cfg["pls_tol"]),
                     pls_max_sweeps=int(cfg["pls_max_sweeps"]))


def _penalty_from(cfg: dict):
    family = cfg["penalty"]
    if family == "lasso":
        return PenaltySpec.lasso(0.0)
    if family == "elastic_net":
        return PenaltySpec.elastic_net(float(cfg["alpha"]), 0.0)
    raise ConfigurationError(f"unknown penalty family {family!r}")


def _resolve_grid(cfg: dict, ds):
    if cfg.get("grid_log"):
        spec = cfg["grid_log"]
        try:
            num, ratio = spec.split(":")
            num, ratio = int(num), float(ratio)
        except ValueError:
            raise ConfigurationError(f"--grid-log {spec!r} must be num:ratio") from None
        if num < 1:
            raise ConfigurationError("grid length must be >= 1")
        if not 0.0 < ratio < np.inf:
            raise ConfigurationError("--grid-log ratio must be finite and > 0")
        return auto_log_grid(ds, num=num, ratio=ratio,
                             lambda_scale=cfg["lambda_scale"])
    return _parse_grid(cfg["grid"])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_fit(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    rep = fit_em(ds, float(cfg["lam"]), penalty=_penalty_from(cfg),
                 ctrl=_ctrl_from(cfg), lambda_scale=cfg["lambda_scale"])
    out = rep.to_dict()
    out["x_names"] = ds.x_names
    out["n_subjects"] = ds.n
    out["n_obs"] = ds.N
    write_json(cfg["output"], out)
    print(f"fit: lambda={cfg['lam']} converged={rep.converged} "
          f"iterations={rep.iterations} loglik={rep.final_loglik:.6f}")
    return 0


def cmd_select(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    grid = _resolve_grid(cfg, ds)
    res = select(ds, grid, penalty=_penalty_from(cfg), ctrl=_ctrl_from(cfg),
                 lambda_scale=cfg["lambda_scale"], criterion=cfg["criterion"])

    prefix = cfg["output_prefix"]
    write_csv(f"{prefix}_path.csv",
              ("lambda", "bic", "aic", "df", "nnz", "converged"),
              [(lam, b, a, d, nz, str(c))
               for (lam, b, a, d, nz, c) in res.path.csv_rows()])

    selection = {
        "selected_lambda": res.selected_lambda,
        "lambda_scale": cfg["lambda_scale"],
        "criterion": cfg["criterion"],
        "support": list(res.support),
        "support_names": [ds.x_names[j] for j in res.support],
        "penalized_estimates": res.penalized.params.to_dict(),
        "refit_estimates": res.refit.params.to_dict(),
        "refit_converged": res.refit.converged,
    }
    if res.refit.original_scale is not None:
        selection["refit_original_scale"] = res.refit.original_scale
    write_json(f"{prefix}_selection.json", selection)

    print(f"selected lambda: {res.selected_lambda}")
    print(f"support ({len(res.support)} of {ds.p}): "
          + (", ".join(selection["support_names"]) or "(empty)"))
    beta = res.refit.params.beta
    for j in res.support:
        print(f"  {ds.x_names[j]}: {beta[j]:+.6f}")
    print(f"artifacts: {prefix}_path.csv {prefix}_selection.json")
    return 0


def cmd_simulate(cfg: dict) -> int:
    kw = dict(n=int(cfg["n"]), n_i=int(cfg["n_i"]), seed=int(cfg["seed"]))
    scenario = int(cfg["scenario"])
    if scenario == 1:
        sc = ScenarioConfig.scenario1(**kw)
    elif scenario == 2:
        sc = ScenarioConfig.scenario2(**kw)
    elif scenario == 3:
        sc = ScenarioConfig.scenario3(p=int(cfg["p"]), p_star=int(cfg["p_star"]),
                                      D_true=D_LOW if cfg["d_matrix"] == "low" else D_HIGH,
                                      **kw)
    else:
        raise ConfigurationError("--scenario must be 1, 2, or 3")

    summary = run_monte_carlo(sc, int(cfg["replicates"]),
                              grid=_parse_grid(cfg["grid"]),
                              ctrl=_ctrl_from(cfg),
                              lambda_scale=cfg["lambda_scale"],
                              criterion=cfg["criterion"],
                              n_jobs=int(cfg["threads"]))
    prefix = cfg["output_prefix"]
    write_mc_summary_csv(summary, sc, f"{prefix}_summary.csv")
    write_mc_detail_csv(summary, f"{prefix}_detail.csv")
    sens = "NA" if summary.sensitivity is None else f"{summary.sensitivity:.3f}"
    spec = "NA" if summary.specificity is None else f"{summary.specificity:.3f}"
    print(f"scenario {scenario}: replicates={summary.replicates} "
          f"failures={summary.failures} rmse={summary.rmse:.4f} "
          f"sensitivity={sens} specificity={spec}")
    print(f"artifacts: {prefix}_summary.csv {prefix}_detail.csv")
    return 0


def cmd_cv(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    results = kfold_cv(ds, int(cfg["k"]), grid=_resolve_grid(cfg, ds),
                       penalty=_penalty_from(cfg), ctrl=_ctrl_from(cfg),
                       lambda_scale=cfg["lambda_scale"],
                       criterion=cfg["criterion"], seed=int(cfg["seed"]))
    write_cv_csv(results, cfg["output"])
    mean_sse = float(np.mean([r.sse for r in results]))
    print(f"cv: k={len(results)} mean held-out SSE={mean_sse:.6f}")
    print(f"artifact: {cfg['output']}")
    return 0


def cmd_reduce(cfg: dict) -> int:
    roles = _roles_from(cfg)
    ds = ingest_long_csv(cfg["input"], roles)
    _, report = remove_linear_combos(ds, rank_tol=float(cfg["rank_tol"]))
    dropped_names = {ds.x_names[j] for j in report.dropped}

    # pass the original file through, minus the dropped fixed-effect columns
    with open(cfg["input"], newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    keep_idx = [i for i, name in enumerate(header) if name not in dropped_names]
    write_csv(cfg["output"], [header[i] for i in keep_idx],
              ([row[i] for i in keep_idx] for row in rows[1:] if row))

    report_dict = report.to_dict()
    report_dict["kept_names"] = [ds.x_names[j] for j in report.kept]
    report_dict["dropped_names"] = sorted(dropped_names)
    write_json(cfg["report"], report_dict)
    print(f"reduce: kept {len(report.kept)} of {ds.p} fixed-effect columns")
    print(f"artifacts: {cfg['output']} {cfg['report']}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_DATA_KEYS = ("input", "subject", "response", "fixed", "random")


def _add_data_options(p: argparse.ArgumentParser):
    p.add_argument("--input", help="long-format CSV with header")
    p.add_argument("--subject", help="subject-id column")
    p.add_argument("--response", help="response column")
    p.add_argument("--fixed", help="comma-separated fixed-effect columns")
    p.add_argument("--random",
                   help="comma-separated random-effect columns ('1' = intercept), "
                        "or 'intercept+<col>'")


def _add_standardize_options(p: argparse.ArgumentParser):
    p.add_argument("--standardize", action="store_const", const=True, default=None,
                   help="center/scale X columns and the response")
    p.add_argument("--categorical",
                   help="comma-separated columns exempt from standardization")
    p.add_argument("--no-scale-y", dest="scale_y", action="store_const",
                   const=False, default=None, help="center the response only")


def _add_common_options(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--lambda-scale", dest="lambda_scale",
                   choices=("raw", "per_obs"), default=None)
    p.add_argument("--penalty", choices=("lasso", "elastic_net"), default=None)
    p.add_argument("--alpha", type=float, default=None,
                   help="elastic-net mixing weight in (0, 1)")
    p.add_argument("--criterion", choices=("bic", "aic"), default=None)
    p.add_argument("--eps", type=float, default=None,
                   help="EM relative stopping tolerance")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--pls-tol", dest="pls_tol", type=float, default=None)
    p.add_argument("--pls-max-sweeps", dest="pls_max_sweeps", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmmlasso",
        description="Lasso selection of fixed effects in linear mixed models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="penalized EM fit at one penalty level")
    _add_data_options(p)
    _add_standardize_options(p)
    _add_common_options(p)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--output", help="fit report JSON")
    p.set_defaults(func=cmd_fit, required=_DATA_KEYS + ("lam", "output"))

    p = sub.add_parser("select", help="sweep a grid, pick lambda by BIC, refit")
    _add_data_options(p)
    _add_standardize_options(p)
    _add_common_options(p)
    p.add_argument("--grid", default=None,
                   help="start:stop:num (linear) or comma-separated values")
    p.add_argument("--grid-log", dest="grid_log", default=None,
                   help="num:ratio log grid anchored at the data lambda_max")
    p.add_argument("--output-prefix", dest="output_prefix")
    p.set_defaults(func=cmd_select, required=_DATA_KEYS + ("output_prefix",))

    p = sub.add_parser("simulate", help="Monte Carlo benchmark scenarios")
    _add_common_options(p)
    p.add_argument("--scenario", type=int, choices=(1, 2, 3))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-i", dest="n_i", type=int, default=None)
    p.add_argument("--p", type=int, default=None, help="scenario 3 only")
    p.add_argument("--p-star", dest="p_star", type=int, default=None,
                   help="scenario 3 only")
    p.add_argument("--d-matrix", dest="d_matrix", choices=("low", "high"),
                   default=None, help="scenario 3 covariance preset")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes for the replicates")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--output-prefix", dest="output_prefix")
    p.set_defaults(func=cmd_simulate, required=("scenario", "seed", "output_prefix"))

    p = sub.add_parser("cv", help="subject-grouped k-fold cross-validation")
    _add_data_options(p)
    _add_standardize_options(p)
    _add_common_options(p)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--grid-log", dest="grid_log", default=None)
    p.add_argument("--output", help="per-fold CSV")
    p.set_defaults(func=cmd_cv, required=_DATA_KEYS + ("k", "seed", "output"))

    p = sub.add_parser("reduce", help="drop linearly dependent fixed-effect columns")
    _add_data_options(p)
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--rank-tol", dest="rank_tol", type=float, default=None)
    p.add_argument("--output", help="reduced CSV")
    p.add_argument("--report", help="reduction report JSON")
    p.set_defaults(func=cmd_reduce, required=_DATA_KEYS + ("output", "report"))

    # the options a --config file may set, by key (argparse dest); each
    # subcommand's required keys are checked after the merge (_merge_options)
    for p in sub.choices.values():
        p.set_defaults(options={a.dest: a for a in p._actions
                                if a.dest not in ("help", "config")})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_options(args)
        return args.func(cfg)
    except LmmLassoError as e:
        print(json.dumps({"error": {
            "type": type(e).__name__,
            "message": str(e),
            "exit_code": e.exit_code,
        }}))
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
