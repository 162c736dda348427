"""Command-line front end.

Subcommands: fit, select, simulate, cv, reduce.  Each option is declared
once, in _OPTIONS, and each subcommand's options in _COMMANDS; argparse,
the config merge and the required check read only these tables.  Flags
take precedence over a JSON config file (--config), and the file over
the CLI's own defaults, which exist only where the library's default
differs or is missing: per-observation lambda units, no standardization,
100 replicates.  An option left unset is not passed on, so the library's
default applies.  Config keys are the argparse
dests (--lambda as lam, --no-scale-y as scale_y), checked like the
flags; required options are checked after the merge.  Choices of a
named setting are read from the module that owns it.  Artifacts are
written atomically, CSV numbers with 17 significant digits and JSON
numbers as Python's shortest round-trip repr, so reruns can be
compared byte for byte.

Exit codes: 0 success, 2 usage or configuration, 3 data, 4 numerical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
from typing import Callable, NamedTuple

import numpy as np

from .dataset import (
    ColumnRoles,
    csv_reader,
    ingest_long_csv,
    name_list,
    remove_linear_combos,
    standardize,
)
from .em_engine import EmControl, fit_em
from .penalized_ls import LAMBDA_SCALES, PER_OBS
from .exceptions import ConfigurationError, DataError, LmmLassoError, _checked_real
from .fileio import write_csv, write_json
from .selector import CRITERIA, auto_log_grid, default_grid, select
from .simkit import (
    D_PRESETS,
    SCENARIO_DESIGNS,
    ScenarioConfig,
    kfold_cv,
    run_monte_carlo,
    write_cv_csv,
    write_mc_detail_csv,
    write_mc_summary_csv,
)


# One row per option, keyed by its config name (the argparse dest): its flag,
# its argparse keywords and, only where the library's default differs or is
# missing, the CLI's own default.
_OPTIONS = {
    "config": dict(flag="--config", help="JSON config file (flags take precedence)"),
    "input": dict(flag="--input", help="long-format CSV with header"),
    "subject": dict(flag="--subject", help="subject-id column"),
    "response": dict(flag="--response", help="response column"),
    "fixed": dict(flag="--fixed", help="comma-separated fixed-effect columns"),
    "random": dict(flag="--random", help="comma-separated random-effect columns "
                                         "('1' = intercept), or 'intercept+<col>'"),
    "standardize": dict(flag="--standardize", default=False, action="store_const",
                        const=True, help="center/scale X columns and the response"),
    "categorical": dict(flag="--categorical",
                        help="comma-separated columns exempt from standardization"),
    "scale_y": dict(flag="--no-scale-y", action="store_const", const=False,
                    help="center the response only"),
    "lambda_scale": dict(flag="--lambda-scale", default=PER_OBS, choices=LAMBDA_SCALES),
    "alpha": dict(flag="--alpha", type=float, help="mixing weight in [0, 1]: 1 lasso, 0 ridge"),
    "criterion": dict(flag="--criterion", choices=tuple(CRITERIA)),
    "eps": dict(flag="--eps", type=float, help="EM relative stopping tolerance"),
    "max_iter": dict(flag="--max-iter", type=int),
    "lam": dict(flag="--lambda", type=float),
    "grid": dict(flag="--grid", help="start:stop:num (linear) or comma-separated values"),
    "grid_log": dict(flag="--grid-log",
                     help="num:ratio log grid anchored at the penalty's lambda_max"),
    "scenario": dict(flag="--scenario", type=int, choices=tuple(SCENARIO_DESIGNS)),
    "n": dict(flag="--n", type=int),
    "n_i": dict(flag="--n-i", type=int),
    "p": dict(flag="--p", type=int),
    "p_star": dict(flag="--p-star", type=int),
    "d_matrix": dict(flag="--d-matrix", choices=tuple(D_PRESETS),
                     help="random-effect covariance preset"),
    "replicates": dict(flag="--replicates", default=100, type=int),
    "threads": dict(flag="--threads", type=int, help="worker processes for the replicates"),
    "seed": dict(flag="--seed", type=int),
    "k": dict(flag="--k", type=int),
    "rank_tol": dict(flag="--rank-tol", type=float),
    "output": dict(flag="--output", help="output file (fit: report JSON, "
                                         "cv: per-fold CSV, reduce: reduced CSV)"),
    "output_prefix": dict(flag="--output-prefix", help="prefix of the artifact files"),
    "report": dict(flag="--report", help="reduction report JSON"),
}


def _config_value(key: str, value):
    """A config-file value, checked and converted as its flag's argument is."""
    row = _OPTIONS[key]
    if "const" in row:  # a flag that stores a constant
        if not isinstance(value, bool):
            raise ConfigurationError(f"config key {key!r} must be true or false")
        return value
    if key == "grid" and isinstance(value, list):
        return [_checked_real(v, "config key 'grid': a list entry") for v in value]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigurationError(
            f"config key {key!r} must be a string or a number, got {json.dumps(value)}")
    try:
        value = row.get("type", str)(str(value))
    except ValueError:
        raise ConfigurationError(f"config key {key!r}: invalid value {value!r}") from None
    choices = row.get("choices")
    if choices is not None and value not in choices:
        raise ConfigurationError(f"config key {key!r}: {value!r} is not one of "
                                 f"{', '.join(map(str, choices))}")
    return value


def _merge_options(args: argparse.Namespace) -> dict:
    """The options that are set: each from its flag, else the config file, else
    its CLI default.  An option set by none of these is left out.

    A required option of the subcommand that is left out (or empty) is an
    error, and so is an output path whose directory does not exist or an
    output file path that names a directory.
    """
    command = _COMMANDS[args.command]
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as e:
            raise ConfigurationError(f"cannot read config file: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"config file is not valid JSON: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigurationError("config file must hold a JSON object")

    unknown = sorted(set(file_cfg) - set(command.options))
    if unknown:
        raise ConfigurationError(f"config file has key(s) that {args.command} takes "
                                 f"no option for: {', '.join(unknown)}")
    file_cfg = {key: _config_value(key, value) for key, value in file_cfg.items()}

    merged = {}
    for key in command.options:
        value = getattr(args, key)
        if value is None:
            value = file_cfg.get(key, _OPTIONS[key].get("default"))
        if value is not None:
            merged[key] = value
    missing = [_OPTIONS[key]["flag"] for key in command.required
               if merged.get(key, "") == ""]
    if missing:
        raise ConfigurationError(f"{args.command} requires {', '.join(missing)} "
                                 "(as a flag or a --config key)")
    for key in ("output", "output_prefix", "report"):
        path = merged.get(key, "")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigurationError(f"{_OPTIONS[key]['flag']} {path!r}: "
                                     f"no directory {folder!r} to write into")
        if key != "output_prefix" and os.path.isdir(path):
            raise ConfigurationError(f"{_OPTIONS[key]['flag']} {path!r} is a directory, "
                                     "not a file to write")
    return merged


def _given(cfg: dict, *keys, **renamed) -> dict:
    """Keyword arguments for the options that are set; renamed maps argument to key."""
    names = dict(zip(keys, keys), **renamed)
    return {arg: cfg[key] for arg, key in names.items() if key in cfg}


def _parse_grid(spec):
    """The grid values of a --grid spec, or a config list as it is; sweep checks them."""
    if isinstance(spec, list):
        return spec
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"grid {spec!r} must be start:stop:num or a comma list")
        try:
            lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigurationError(f"malformed grid {spec!r}") from None
        return default_grid(num, lo, hi)
    try:
        return np.asarray([float(v) for v in spec.split(",") if v != ""])
    except ValueError:
        raise ConfigurationError(f"malformed grid {spec!r}") from None


def _load_dataset(cfg: dict):
    ds = ingest_long_csv(cfg["input"], ColumnRoles.from_mapping(cfg))
    if not cfg["standardize"]:
        for key in ("categorical", "scale_y"):
            if key in cfg:
                flag = _OPTIONS[key]["flag"]
                raise ConfigurationError(f"{flag} has no effect without --standardize")
        return ds
    cat_names = name_list(cfg.get("categorical", ""))
    unknown = [c for c in cat_names if c not in ds.x_names]
    if unknown:
        raise ConfigurationError(f"categorical column(s) not in fixed set: {unknown}")
    return standardize(ds, categorical=[ds.x_names.index(c) for c in cat_names],
                       **_given(cfg, "scale_y"))


def _ctrl_from(cfg: dict) -> EmControl:
    return EmControl(**_given(cfg, "eps", "max_iter"))


def _resolve_grid(cfg: dict, ds=None):
    if "grid" in cfg and "grid_log" in cfg:
        raise ConfigurationError("--grid and --grid-log exclude each other")
    if "grid_log" in cfg:
        spec = cfg["grid_log"]
        try:
            num, ratio = spec.split(":")
            num, ratio = int(num), float(ratio)
        except ValueError:
            raise ConfigurationError(f"--grid-log {spec!r} must be num:ratio") from None
        return auto_log_grid(ds, num=num, ratio=ratio, lambda_scale=cfg["lambda_scale"],
                             **_given(cfg, "alpha"))
    if "grid" in cfg:
        return _parse_grid(cfg["grid"])
    return None  # the selector's default grid


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_fit(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    rep = fit_em(ds, cfg["lam"], ctrl=_ctrl_from(cfg), lambda_scale=cfg["lambda_scale"],
                 **_given(cfg, "alpha"))
    write_json(cfg["output"], {**rep.to_dict(), "x_names": ds.x_names,
                               "n_subjects": ds.n, "n_obs": ds.N})
    print(f"fit: lambda={cfg['lam']} converged={rep.converged} "
          f"iterations={rep.iterations} loglik={rep.final_loglik:.6f}")
    return 0


def cmd_select(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    path = select(ds, _resolve_grid(cfg, ds), ctrl=_ctrl_from(cfg),
                  lambda_scale=cfg["lambda_scale"], **_given(cfg, "alpha", "criterion"))

    prefix = cfg["output_prefix"]
    write_csv(f"{prefix}_path.csv", ("lambda", "bic", "aic", "df", "nnz", "converged"),
              path.csv_rows())

    support = path.selected_support
    names = [ds.x_names[j] for j in support]
    write_json(f"{prefix}_selection.json", {**path.to_dict(), "support_names": names})

    print(f"selected lambda: {path.selected_lambda}")
    print(f"support ({len(support)} of {ds.p}): " + (", ".join(names) or "(empty)"))
    beta = path.selected_refit.params.beta
    for j in support:
        print(f"  {ds.x_names[j]}: {beta[j]:+.6f}")
    print(f"artifacts: {prefix}_path.csv {prefix}_selection.json")
    return 0


def cmd_simulate(cfg: dict) -> int:
    design = _given(cfg, "n", "n_i", "p", "p_star", "seed")
    if "d_matrix" in cfg:
        design["D_true"] = D_PRESETS[cfg["d_matrix"]]
    sc = ScenarioConfig(cfg["scenario"], **design)

    summary = run_monte_carlo(sc, cfg["replicates"], grid=_resolve_grid(cfg),
                              ctrl=_ctrl_from(cfg),
                              lambda_scale=cfg["lambda_scale"],
                              **_given(cfg, "criterion", n_jobs="threads"))
    prefix = cfg["output_prefix"]
    write_mc_summary_csv(summary, sc, f"{prefix}_summary.csv")
    write_mc_detail_csv(summary, f"{prefix}_detail.csv")
    sens = "NA" if summary.sensitivity is None else f"{summary.sensitivity:.3f}"
    spec = "NA" if summary.specificity is None else f"{summary.specificity:.3f}"
    print(f"scenario {sc.scenario}: replicates={summary.replicates} "
          f"failures={summary.failures} rmse={summary.rmse:.4f} "
          f"sensitivity={sens} specificity={spec}")
    print(f"artifacts: {prefix}_summary.csv {prefix}_detail.csv")
    return 0


def cmd_cv(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    results = kfold_cv(ds, cfg["k"], grid=_resolve_grid(cfg, ds), ctrl=_ctrl_from(cfg),
                       lambda_scale=cfg["lambda_scale"], seed=cfg["seed"],
                       **_given(cfg, "alpha", "criterion"))
    write_cv_csv(results, cfg["output"])
    mean_sse = float(np.mean([r.sse for r in results]))
    print(f"cv: k={len(results)} mean held-out SSE={mean_sse:.6f}")
    print(f"artifact: {cfg['output']}")
    return 0


def cmd_reduce(cfg: dict) -> int:
    # the input is read twice, so a pipe would block the second read; a
    # missing file or a directory gets ingest's own error
    mode = os.stat(cfg["input"]).st_mode if os.path.exists(cfg["input"]) else stat.S_IFREG
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        raise DataError(f"{cfg['input']}: reduce reads its input twice; "
                        "it must be a regular file, not a pipe or device")
    ds = ingest_long_csv(cfg["input"], ColumnRoles.from_mapping(cfg))
    _, report = remove_linear_combos(ds, **_given(cfg, "rank_tol"))
    dropped_names = {ds.x_names[j] for j in report.dropped}

    # stream the original file through, minus the dropped fixed-effect columns;
    # ingest's C pass reads fields of any size, so this pass lifts csv's limit
    limit = csv.field_size_limit(sys.maxsize)
    try:
        with open(cfg["input"], newline="") as fh:
            rows = csv_reader(fh)
            try:
                header = next(rows)
                keep_idx = [i for i, name in enumerate(header) if name not in dropped_names]
                write_csv(cfg["output"], [header[i] for i in keep_idx],
                          ([row[i] for i in keep_idx] for row in rows if row))
            except csv.Error as e:
                raise DataError(f"{cfg['input']}: line {rows.line_num}: {e}") from None
    finally:
        csv.field_size_limit(limit)

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


class _Command(NamedTuple):
    handler: Callable[[dict], int]
    help: str
    options: tuple   # config keys of its options besides --config, in --help order
    required: tuple


_DATA = ("input", "subject", "response", "fixed", "random")
_EM = ("lambda_scale", "eps", "max_iter")
_FILE_FIT = _DATA + ("standardize", "categorical", "scale_y", "alpha") + _EM

# one row per subcommand
_COMMANDS = {
    "fit": _Command(cmd_fit, "penalized EM fit at one penalty level",
                    _FILE_FIT + ("lam", "output"), _DATA + ("lam", "output")),
    "select": _Command(cmd_select, "sweep a grid, pick lambda by BIC, refit",
                       _FILE_FIT + ("criterion", "grid", "grid_log", "output_prefix"),
                       _DATA + ("output_prefix",)),
    "simulate": _Command(cmd_simulate, "Monte Carlo benchmark scenarios",
                         _EM + ("criterion", "scenario", "n", "n_i", "p", "p_star",
                                "d_matrix", "replicates", "threads", "seed", "grid",
                                "output_prefix"),
                         ("scenario", "seed", "output_prefix")),
    "cv": _Command(cmd_cv, "subject-grouped k-fold cross-validation",
                   _FILE_FIT + ("criterion", "k", "seed", "grid", "grid_log", "output"),
                   _DATA + ("k", "seed", "output")),
    "reduce": _Command(cmd_reduce, "drop linearly dependent fixed-effect columns",
                       _DATA + ("rank_tol", "output", "report"),
                       _DATA + ("output", "report")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmmlasso",
        description="Lasso selection of fixed effects in linear mixed models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in ("config", *command.options):
            kw = {k: v for k, v in _OPTIONS[key].items() if k not in ("flag", "default")}
            p.add_argument(_OPTIONS[key]["flag"], dest=key, **kw)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command].handler(_merge_options(args))
    except LmmLassoError as e:
        print(json.dumps({"error": {"type": type(e).__name__, "message": str(e),
                                    "exit_code": e.exit_code}}))
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
