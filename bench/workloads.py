"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload is one command a user of the package runs through the CLI:

- ``sim-s3``: scenario-3 Monte Carlo (n=30, n_i=5, p=50, default 100-point
  grid).  Coordinate descent and the lambda=0 refits do most of the work;
  no CSV is read.  One pass simulates one replicate; a run cycles through
  25 pass seeds, so the smoke bands of criterion 5 are checked on the
  pooled 25 replicates while the timing gets a median over 25 passes.
- ``select-chol``: ``select`` on a cholesterol-shaped study of 200
  subjects x 5 visits.  Small arrays, so EM overhead per call dominates;
  it is also the path that standardizes and reports on the original scale.
  A run cycles through 8 studies, because EM and coordinate-descent work
  differ between draws by 10-20%.
- ``fit-50k``: one ``fit`` on a 50,000-row file of the same shape.  CSV
  ingest and the N-row passes of the EM dominate.

Inputs are drawn from the benchmark seed only, and the program sees only
the generated files and arguments.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

NAMES = ("sim-s3", "select-chol", "fit-50k")
OPERATIONS = {"sim-s3": "replicates", "select-chol": "grid fits", "fit-50k": "single fits"}

CHOL_HEADER = ("id", "chol", "sex", "age", "time", "sex_age", "sex_time",
               "age_time", "sex_age_time", "decoy_bin", "decoy_n1", "decoy_n2")
FIXED = CHOL_HEADER[2:]
DECOYS = ("decoy_bin", "decoy_n1", "decoy_n2")
CATEGORICAL = ("sex", "decoy_bin")
VISITS = 5
DATA_FLAGS = ["--subject", "id", "--response", "chol", "--fixed", ",".join(FIXED),
              "--random", "intercept+time"]
_SUBJECTS = {"select-chol": 200, "fit-50k": 10_000}
_STREAM = {"select-chol": 1, "fit-50k": 2}

SIM = dict(n=30, n_i=5, p=50, p_star=5)
SIM_REPLICATES = 1  # per pass
# criterion 5's smoke bands for scenario 3 at M=25 (25 pass seeds)
SIM_BANDS = dict(sensitivity=0.91, specificity=0.78, rmse=0.65)
TRACE_SLACK = 1e-8  # the ascent tolerance the simulation kit uses
# at 2.5% per study, 3 or more of 8 studies with a decoy happen in 0.1% of runs
MAX_DECOY_STUDIES = 2


def pass_seeds(name: str) -> int:
    """Number of distinct passes (inputs) a run cycles through."""
    return {"sim-s3": 25, "select-chol": 8, "fit-50k": 1}[name]


def write_study_csv(path, n_subjects: int, rng: np.random.Generator) -> int:
    """Write a cholesterol-shaped long CSV; return its row count.

    Layout of the CLI test fixture: sex, age, time, all their interactions
    and three decoys.  Only age, time and sex x time drive the response.
    Interactions with age use age centred at 46.5, the middle of its range,
    as analysts do before forming products.  With raw products, sex_age and
    sex_age_time correlate about 0.98 with sex and sex_time, and the
    coordinate-descent sweeps of one select varied 10x between draws
    (30k to 325k over 12 seeds), more than any bound could hold.
    """
    sex = rng.integers(0, 2, size=n_subjects).astype(float)
    age = rng.uniform(31, 62, size=n_subjects)
    b = 0.2 * rng.normal(size=(n_subjects, 2))
    decoy_bin = (rng.uniform(size=n_subjects) < 0.5).astype(float)
    z = rng.normal(size=(n_subjects, 2))
    decoy1 = z[:, 0]
    decoy2 = 0.5 * z[:, 0] + math.sqrt(0.75) * z[:, 1]
    noise = 0.15 * rng.normal(size=(n_subjects, VISITS))

    def rep(v):
        return np.repeat(v, VISITS)

    t = np.tile((2.0 * np.arange(VISITS) - 5.0) / 10.0, n_subjects)
    sex_r, age_r = rep(sex), rep(age)
    age_c = age_r - 46.5
    chol = (0.02 * age_r + 0.3 * t + 0.25 * sex_r * t + rep(b[:, 0])
            + rep(b[:, 1]) * t + noise.ravel())
    cols = np.column_stack([chol, sex_r, age_r, t, sex_r * age_c, sex_r * t,
                            age_c * t, sex_r * age_c * t, rep(decoy_bin),
                            rep(decoy1), rep(decoy2)])
    ids = np.repeat(np.arange(n_subjects), VISITS)
    lines = [",".join(CHOL_HEADER)]
    lines += [f"s{i}," + ",".join(map(repr, row))
              for i, row in zip(ids.tolist(), cols.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


def make_inputs(name: str, seed: int, workdir) -> dict:
    """Generate the workload's input files, one per pass seed; describe them."""
    if name == "sim-s3":
        rows = SIM["n"] * SIM["n_i"] * SIM_REPLICATES * pass_seeds(name)
        return {"seed": seed, "rows": rows, "bytes": 0, "paths": []}
    paths, rows = [], 0
    for group in range(pass_seeds(name)):
        path = os.path.join(workdir, f"{name}-{group}.csv")
        rows += write_study_csv(path, _SUBJECTS[name],
                                np.random.default_rng([seed, _STREAM[name], group]))
        paths.append(path)
    return {"seed": seed, "rows": rows, "paths": paths,
            "bytes": sum(os.path.getsize(p) for p in paths)}


def _sim_seed(seed: int, group: int) -> int:
    return seed * pass_seeds("sim-s3") + group


def cli_argv(name: str, seed: int, group: int, paths, prefix: str) -> list:
    """CLI arguments of pass seed ``group``; outputs start with prefix."""
    if name == "sim-s3":
        return ["simulate", "--scenario", "3", "--n", str(SIM["n"]),
                "--n-i", str(SIM["n_i"]), "--p", str(SIM["p"]),
                "--p-star", str(SIM["p_star"]),
                "--replicates", str(SIM_REPLICATES), "--seed", str(_sim_seed(seed, group)),
                "--threads", "1", "--output-prefix", prefix]
    if name == "select-chol":
        return ["select", "--input", paths[group], *DATA_FLAGS, "--standardize",
                "--categorical", ",".join(CATEGORICAL), "--output-prefix", prefix]
    if name == "fit-50k":
        return ["fit", "--input", paths[group], *DATA_FLAGS, "--lambda", "0.05",
                "--standardize", "--output", prefix + "_fit.json"]
    raise ValueError(f"unknown workload {name!r}")


def artifacts(name: str, prefix: str) -> list:
    if name == "sim-s3":
        return [prefix + "_summary.csv", prefix + "_detail.csv"]
    if name == "select-chol":
        return [prefix + "_path.csv", prefix + "_selection.json"]
    return [prefix + "_fit.json"]


def build_datasets(name: str, seed: int, paths):
    """Build the workload's data with the package's public loaders, no fitting.

    This is the work the set-up time measures, so it imports the package.
    """
    from lmmlasso.dataset import ColumnRoles, ingest_long_csv, standardize
    from lmmlasso.simkit import ScenarioConfig, generate_scenario

    if name == "sim-s3":
        out = []
        for group in range(pass_seeds(name)):
            sim_seed = _sim_seed(seed, group)
            cfg = ScenarioConfig.scenario3(seed=sim_seed, **SIM)
            for child in np.random.SeedSequence(sim_seed).spawn(SIM_REPLICATES):
                out.append(generate_scenario(cfg, np.random.default_rng(child))[0])
        return out
    roles = ColumnRoles("id", "chol", FIXED, ("1", "time"))
    categorical = [FIXED.index(c) for c in CATEGORICAL] if name == "select-chol" else []
    return [standardize(ingest_long_csv(p, roles), categorical=categorical) for p in paths]


def check_pass(name: str, prefix: str):
    """Check one pass's artifacts.

    Returns (operations attempted, operations failed, messages, facts).
    An operation is a replicate (sim-s3), a grid fit (select-chol) or the
    single fit (fit-50k); every failed check counts as one more failure.
    facts holds the checked quantities for the report and check_run.
    """
    problems = []
    if name == "sim-s3":
        with open(prefix + "_summary.csv", newline="") as fh:
            summary = {row["quantity"]: row["value"] for row in csv.DictReader(fh)}
        with open(prefix + "_detail.csv", newline="") as fh:
            detail = list(csv.DictReader(fh))
        ok = [row for row in detail if row["failed"] == "False"]
        if len(detail) != SIM_REPLICATES:
            problems.append(f"{len(detail)} replicate rows, expected {SIM_REPLICATES}")
        if int(summary["monotonicity_violations"]) != 0:
            problems.append(f"monotonicity_violations = {summary['monotonicity_violations']}")
        facts = {key: [float(row[key]) for row in ok]
                 for key in ("sq_err", "sensitivity", "specificity")}
        facts["failed_replicates"] = len(detail) - len(ok)
        return len(detail), len(detail) - len(ok) + len(problems), problems, facts

    if name == "select-chol":
        with open(prefix + "_path.csv", newline="") as fh:
            path_rows = list(csv.DictReader(fh))
        with open(prefix + "_selection.json") as fh:
            selection = json.load(fh)
        nan_rows = sum(math.isnan(float(row["bic"])) for row in path_rows)
        picked = set(selection["support_names"])
        if not {"age", "time"} <= picked:
            problems.append(f"support {sorted(picked)} misses age or time")
        if "refit_original_scale" not in selection:
            problems.append("refit_original_scale missing")
        facts = {"selected_lambda": selection["selected_lambda"],
                 "support": sorted(picked), "decoys": sorted(picked & set(DECOYS)),
                 "nan_bic_rows": nan_rows}
        return len(path_rows), nan_rows + len(problems), problems, facts

    with open(prefix + "_fit.json") as fh:
        fit = json.load(fh)
    beta = dict(zip(fit["x_names"], fit["params"]["beta"]))
    if fit["converged"] is not True:
        problems.append("fit did not converge")
    if any(beta[c] == 0.0 for c in ("age", "time", "sex_time")):
        problems.append(f"age, time or sex_time is zero: {beta}")
    if any(beta[c] != 0.0 for c in DECOYS):
        problems.append(f"a decoy is nonzero: {beta}")
    trace = fit["penalized_loglik_trace"]
    if any(b < a - TRACE_SLACK for a, b in zip(trace, trace[1:])):
        problems.append("penalized log-likelihood trace decreases")
    facts = {"iterations": fit["iterations"],
             "support": sorted(c for c, b in beta.items() if b != 0.0)}
    return 1, len(problems), problems, facts


def check_run(name: str, facts_by_group: dict):
    """Checks over all pass seeds of a run; returns (summary, messages).

    For sim-s3 these are criterion 5's smoke bands on the pooled replicates,
    aggregated as the simulation kit does (rmse over squared errors).  For
    select-chol it bounds the studies whose selection holds a decoy: BIC
    picks a pure-noise column in about 2.5% of studies (6 of 240 draws), so
    a check on every study would fail about one run in five.
    """
    if name == "select-chol":
        with_decoy = sum(bool(f["decoys"]) for f in facts_by_group.values())
        summary = {"studies": len(facts_by_group), "studies_with_decoy": with_decoy,
                   "supports": {g: f["support"] for g, f in facts_by_group.items()}}
        problems = []
        if with_decoy > MAX_DECOY_STUDIES:
            problems.append(f"{with_decoy} of {len(facts_by_group)} selections hold a decoy")
        return summary, problems
    if name != "sim-s3":
        return facts_by_group, []
    pooled = {key: [v for facts in facts_by_group.values() for v in facts[key]]
              for key in ("sq_err", "sensitivity", "specificity")}
    n = len(pooled["sq_err"])
    summary = {"replicates": n,
               "failed_replicates": sum(f["failed_replicates"] for f in facts_by_group.values()),
               "rmse": math.sqrt(sum(pooled["sq_err"]) / n) if n else math.nan,
               "sensitivity": sum(pooled["sensitivity"]) / n if n else math.nan,
               "specificity": sum(pooled["specificity"]) / n if n else math.nan}
    problems = []
    if n != SIM_REPLICATES * pass_seeds(name):
        problems.append(f"{n} pooled replicates, expected {SIM_REPLICATES * pass_seeds(name)}")
    if not summary["sensitivity"] >= SIM_BANDS["sensitivity"]:
        problems.append(f"sensitivity {summary['sensitivity']} < {SIM_BANDS['sensitivity']}")
    if not summary["specificity"] >= SIM_BANDS["specificity"]:
        problems.append(f"specificity {summary['specificity']} < {SIM_BANDS['specificity']}")
    if not summary["rmse"] <= SIM_BANDS["rmse"]:
        problems.append(f"rmse {summary['rmse']} > {SIM_BANDS['rmse']}")
    return summary, problems
