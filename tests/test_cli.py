import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from lmmlasso import cli
from lmmlasso.cli import main
from lmmlasso.em_engine import EmControl, fit_em
from lmmlasso.selector import default_grid
from lmmlasso.simkit import ScenarioConfig, generate_scenario

from oracles import direct_ml_lmm, subject_rows


def write_dataset_csv(path, ds, z_time_col="t"):
    """Serialize a two-column-Z dataset (intercept + time) to long CSV."""
    header = ["id", "y", *ds.x_names, z_time_col]
    lines = [",".join(header)]
    for sid, start, count in zip(ds.subject_ids, ds.starts, ds.counts):
        for r in range(start, start + count):
            cells = [str(sid), repr(float(ds.y[r]))]
            cells += [repr(float(v)) for v in ds.X[r]]
            cells.append(repr(float(ds.Z[r, 1])))
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def small_csv(tmp_path):
    # seed chosen so the ML covariance estimate is interior (EM converges
    # linearly; boundary cases crawl sublinearly)
    cfg = ScenarioConfig.scenario1(n=20, n_i=4, seed=5, p=3,
                                   beta_true=np.array([1.0, 1.0, 0.0]))
    ds, _ = generate_scenario(cfg)
    f = tmp_path / "data.csv"
    write_dataset_csv(f, ds)
    return f, ds


DATA_FLAGS = ["--subject", "id", "--response", "y",
              "--fixed", "x1,x2,x3", "--random", "1,t"]


def test_cmd_fit_matches_direct_ml_oracle(tmp_path, small_csv, capsys):
    f, ds = small_csv
    out = tmp_path / "fit.json"
    rc = main(["fit", "--input", str(f), *DATA_FLAGS,
               "--lambda", "0", "--eps", "1e-12", "--max-iter", "20000",
               "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    beta_o, s2_o, D_o, _ = direct_ml_lmm(subject_rows(ds))
    np.testing.assert_allclose(blob["params"]["beta"], beta_o, atol=1e-4)
    assert blob["params"]["sigma2"] == pytest.approx(s2_o, abs=1e-4)
    np.testing.assert_allclose(blob["params"]["D"], D_o, atol=1e-4)
    assert "fit:" in capsys.readouterr().out


def test_cmd_select_writes_path_and_selection(tmp_path, small_csv, capsys):
    f, _ = small_csv
    prefix = str(tmp_path / "sel")
    rc = main(["select", "--input", str(f), *DATA_FLAGS,
               "--grid", "0.01:0.3:8", "--output-prefix", prefix])
    assert rc == 0
    path_lines = (tmp_path / "sel_path.csv").read_text().strip().split("\n")
    assert path_lines[0] == "lambda,bic,aic,df,nnz,converged"
    assert len(path_lines) == 9
    selection = json.loads((tmp_path / "sel_selection.json").read_text())
    assert set(selection["support_names"]) <= {"x1", "x2", "x3"}
    out = capsys.readouterr().out
    assert "selected lambda" in out


_SELECTION_KEYS = {"selected_lambda", "lambda_scale", "criterion", "support",
                   "support_names", "penalized_estimates", "refit_estimates",
                   "refit_converged"}


@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
def test_cmd_select_artifact_is_the_selection_to_dict(tmp_path, small_csv, monkeypatch,
                                                      standardize):
    f, ds = small_csv
    results = []
    cli_select = cli.select

    def recording_select(*args, **kwargs):
        results.append(cli_select(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "select", recording_select)
    flags = ["--standardize"] if standardize else []
    rc = main(["select", "--input", str(f), *DATA_FLAGS, "--grid", "0.01:0.3:8",
               *flags, "--output-prefix", str(tmp_path / "sel")])
    assert rc == 0
    (path,) = results
    selection = json.loads((tmp_path / "sel_selection.json").read_text())
    names = [ds.x_names[j] for j in path.selected_support]
    assert selection == {**path.to_dict(), "support_names": names}
    assert set(selection) == _SELECTION_KEYS | ({"refit_original_scale"} if standardize else set())
    assert path.selected_support == tuple(np.flatnonzero(path.selected_fit.params.beta))


def test_cmd_select_grid_zero_gives_full_support(tmp_path, small_csv):
    f, ds = small_csv
    prefix = str(tmp_path / "z")
    rc = main(["select", "--input", str(f), *DATA_FLAGS,
               "--grid", "0", "--output-prefix", prefix])
    assert rc == 0
    selection = json.loads((tmp_path / "z_selection.json").read_text())
    assert selection["selected_lambda"] == 0.0
    assert selection["support"] == [0, 1, 2]


def test_cmd_select_empty_grid_is_usage_error(tmp_path, small_csv, capsys):
    f, _ = small_csv
    rc = main(["select", "--input", str(f), *DATA_FLAGS,
               "--grid", "", "--output-prefix", str(tmp_path / "e")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"]["type"] == "ConfigurationError"
    assert not (tmp_path / "e_path.csv").exists()


def test_cmd_fit_missing_column_exits_3(tmp_path, small_csv, capsys):
    f, _ = small_csv
    bad = tmp_path / "bad.csv"
    bad.write_text("id,y,x1,t\nA,1,2,1\nA,oops,2,2\n")
    rc = main(["fit", "--input", str(bad), "--subject", "id", "--response", "y",
               "--fixed", "x1", "--random", "1,t", "--lambda", "0.1",
               "--output", str(tmp_path / "f.json")])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"]["type"] == "DataError"


def test_cmd_simulate_writes_table_shaped_artifacts(tmp_path, capsys):
    prefix = str(tmp_path / "sim")
    rc = main(["simulate", "--scenario", "1", "--n", "10", "--n-i", "4",
               "--replicates", "2", "--seed", "42",
               "--grid", "0.02,0.1,0.3", "--output-prefix", prefix])
    assert rc == 0
    summary = (tmp_path / "sim_summary.csv").read_text().strip().split("\n")
    quantities = [ln.split(",")[0] for ln in summary[1:]]
    assert sum(q.startswith("zero_proportion_beta") for q in quantities) == 9
    assert "rmse" in quantities
    detail = (tmp_path / "sim_detail.csv").read_text().strip().split("\n")
    assert len(detail) == 3  # header + one row per replicate


def test_cmd_simulate_single_replicate(tmp_path):
    prefix = str(tmp_path / "one")
    rc = main(["simulate", "--scenario", "2", "--n", "10", "--n-i", "4",
               "--replicates", "1", "--seed", "7",
               "--grid", "0.05,0.2", "--output-prefix", prefix])
    assert rc == 0
    detail = (tmp_path / "one_detail.csv").read_text().strip().split("\n")
    assert len(detail) == 2


def test_cmd_simulate_requires_seed(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "1", "--replicates", "1",
               "--output-prefix", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert "seed" in err["error"]["message"]


def test_cmd_simulate_rejects_pstar_above_p(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "3", "--n", "10", "--n-i", "4",
               "--p", "20", "--p-star", "30", "--replicates", "1",
               "--seed", "1", "--output-prefix", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"]["type"] == "ConfigurationError"


@pytest.mark.parametrize("scenario", ["2", "3"])
def test_cmd_simulate_rejects_scenario_without_covariates(tmp_path, capsys, scenario):
    # p = 0 leaves nothing to select: a usage error, not a traceback or an RMSE of nan
    prefix = tmp_path / "x"
    rc = main(["simulate", "--scenario", scenario, "--n", "10", "--n-i", "4",
               "--p", "0", "--p-star", "0", "--replicates", "1",
               "--seed", "1", "--output-prefix", str(prefix)])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"]["type"] == "ConfigurationError"
    assert not (tmp_path / "x_summary.csv").exists()


def test_cmd_cv_requires_seed(tmp_path, small_csv, capsys):
    f, _ = small_csv
    rc = main(["cv", "--input", str(f), *DATA_FLAGS, "--k", "3",
               "--grid", "0.1", "--output", str(tmp_path / "cv.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert "seed" in err["error"]["message"]


@pytest.mark.parametrize("command", ["simulate", "cv"])
def test_negative_seed_is_usage_error(tmp_path, small_csv, capsys, command):
    # numpy's generators refuse a negative seed with a bare ValueError
    f, _ = small_csv
    args = {"simulate": ["--scenario", "1", "--replicates", "1",
                         "--output-prefix", str(tmp_path / "x")],
            "cv": ["--input", str(f), *DATA_FLAGS, "--k", "3",
                   "--output", str(tmp_path / "cv.csv")]}[command]
    rc = main([command, *args, "--seed", "-1", "--grid", "0.1"])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError" and "seed" in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_cmd_cv_writes_fold_rows(tmp_path, small_csv):
    f, _ = small_csv
    out = tmp_path / "cv.csv"
    rc = main(["cv", "--input", str(f), *DATA_FLAGS, "--k", "4", "--seed", "5",
               "--grid", "0.02,0.1,0.3", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("fold,")
    assert len(lines) == 5


def test_cmd_fit_random_intercept_only(tmp_path, small_csv):
    f, _ = small_csv
    out = tmp_path / "ri.json"
    rc = main(["fit", "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "x1,x2,x3", "--random", "1",
               "--lambda", "0.05", "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    D = np.asarray(blob["params"]["D"])
    assert D.shape == (1, 1) and D[0, 0] > 0


def test_cmd_reduce_drops_dependent_column(tmp_path):
    rng = np.random.default_rng(11)
    lines = ["id,y,a,b,c,t"]
    for i in range(8):
        for t in range(3):
            a, b = (float(v) for v in rng.normal(size=2))
            c = a + b
            y = a - b + float(rng.normal())
            lines.append(f"s{i},{y!r},{a!r},{b!r},{c!r},{t + 1}")
    f = tmp_path / "dep.csv"
    f.write_text("\n".join(lines) + "\n")
    out = tmp_path / "reduced.csv"
    report_path = tmp_path / "report.json"
    rc = main(["reduce", "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "a,b,c", "--random", "1,t",
               "--output", str(out), "--report", str(report_path)])
    assert rc == 0
    header = out.read_text().split("\n")[0].split(",")
    assert header == ["id", "y", "a", "b", "t"]
    report = json.loads(report_path.read_text())
    assert report["dropped_names"] == ["c"]
    assert report["dependency_sets"]["2"] == [0, 1]


def test_cmd_reduce_keeps_quoted_cells_intact(tmp_path):
    rng = np.random.default_rng(12)
    lines = ["id,region,y,a,b,c,t"]
    for i in range(8):
        for t in range(3):
            a, b = (float(v) for v in rng.normal(size=2))
            lines.append(f'{i},"north, east",{float(rng.normal())!r},'
                         f"{a!r},{b!r},{a + b!r},{t + 1}")
    f = tmp_path / "quoted.csv"
    f.write_text("\n".join(lines) + "\n")
    out = tmp_path / "reduced.csv"
    rc = main(["reduce", "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "a,b,c", "--random", "1,t",
               "--output", str(out), "--report", str(tmp_path / "report.json")])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "region", "y", "a", "b", "t"]
    assert len(rows) == 25
    assert all(len(row) == 6 and row[1] == "north, east" for row in rows[1:])


@pytest.mark.parametrize("command, extra", [
    ("fit", ["--lambda", "0.1", "--output"]),
    ("select", ["--output-prefix"]),
    ("cv", ["--k", "2", "--seed", "1", "--output"]),
])
def test_threads_is_rejected_where_unused(tmp_path, small_csv, command, extra):
    f, _ = small_csv
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(f), *DATA_FLAGS, "--threads", "2",
              *extra, str(tmp_path / "out")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [f]


@pytest.mark.parametrize("flags", [["--standardize"], ["--categorical", "a"],
                                   ["--no-scale-y"]])
def test_reduce_rejects_standardization_flags(tmp_path, flags):
    f = tmp_path / "in.csv"
    f.write_text("id,y,a,t\ns0,1.0,2.0,1\n")
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--input", str(f), "--subject", "id", "--response", "y",
              "--fixed", "a", "--random", "1,t", *flags,
              "--output", str(tmp_path / "r.csv"), "--report", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [f]


def test_config_file_provides_defaults_and_flags_override(tmp_path, small_csv):
    f, _ = small_csv
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"grid": "0.01:0.2:4", "subject": "id",
                                  "response": "y", "fixed": "x1,x2,x3",
                                  "random": "1,t"}))
    prefix = str(tmp_path / "cfg")
    rc = main(["select", "--input", str(f), "--config", str(config),
               "--output-prefix", prefix])
    assert rc == 0
    assert len((tmp_path / "cfg_path.csv").read_text().strip().split("\n")) == 5

    # a flag overrides the config grid
    prefix2 = str(tmp_path / "cfg2")
    rc = main(["select", "--input", str(f), "--config", str(config),
               "--grid", "0.05,0.1", "--output-prefix", prefix2])
    assert rc == 0
    assert len((tmp_path / "cfg2_path.csv").read_text().strip().split("\n")) == 3


def _run_with_config(tmp_path, csv_path, config, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(config))
    out = tmp_path / "fit.json"
    rc = main(["fit", "--input", str(csv_path), *DATA_FLAGS, "--lambda", "0.1",
               "--config", str(conf), "--output", str(out)])
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert not out.exists()
    return rc, error


@pytest.mark.parametrize("case, message", [
    ("missing", "cannot read config file"),
    ("not-json", "config file is not valid JSON"),
    ("array", "config file must hold a JSON object"),
])
def test_config_file_that_is_not_a_json_object_is_rejected(tmp_path, small_csv, capsys, case,
                                                          message):
    conf = tmp_path / "conf.json"
    if case != "missing":
        conf.write_text({"not-json": "{'lambda': 0.1}", "array": '["lambda", 0.1]'}[case])
    out = tmp_path / "fit.json"
    rc = main(["fit", "--input", str(small_csv[0]), *DATA_FLAGS, "--lambda", "0.1",
               "--config", str(conf), "--output", str(out)])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError" and error["message"].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("threads", 4), ("standardise", True)])
def test_config_key_without_option_is_rejected(tmp_path, small_csv, capsys, key, value):
    rc, error = _run_with_config(tmp_path, small_csv[0], {key: value}, capsys)
    assert rc == 2
    assert error["type"] == "ConfigurationError" and key in error["message"]


@pytest.mark.parametrize("config", [{"eps": "tiny"}, {"max_iter": 2.5},
                                    {"standardize": "yes"}, {"fixed": ["x1"]},
                                    {"lambda_scale": "per_subject"}],
                         ids=["float", "int", "flag", "string", "choices"])
def test_config_value_of_wrong_type_is_rejected(tmp_path, small_csv, capsys, config):
    rc, error = _run_with_config(tmp_path, small_csv[0], config, capsys)
    assert rc == 2
    assert error["type"] == "ConfigurationError"
    assert next(iter(config)) in error["message"]


@pytest.mark.parametrize("grid", [[0.1, True], [0.1, "0.2"], [None]],
                         ids=["bool", "str", "null"])
def test_config_grid_list_entry_that_is_not_a_number_is_rejected(tmp_path, small_csv, capsys,
                                                                  grid):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": grid}))
    rc = main(["select", "--input", str(small_csv[0]), *DATA_FLAGS, "--config", str(conf),
               "--output-prefix", str(tmp_path / "sel")])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError" and "'grid'" in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json", "data.csv"]


def test_config_grid_list_and_typed_values(tmp_path, small_csv):
    f, _ = small_csv
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"grid": [0.05, 0.1], "eps": "1e-7",
                                  "max_iter": 400, "standardize": True,
                                  "scale_y": False}))
    rc = main(["select", "--input", str(f), *DATA_FLAGS, "--config", str(config),
               "--output-prefix", str(tmp_path / "typed")])
    assert rc == 0
    assert len((tmp_path / "typed_path.csv").read_text().strip().split("\n")) == 3
    selection = json.loads((tmp_path / "typed_selection.json").read_text())
    assert "refit_original_scale" in selection


def test_config_sets_simulate_design_options(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"n": 12, "n_i": 3, "p": 8, "p_star": 2,
                                  "d_matrix": "high", "replicates": 1}))
    prefix = str(tmp_path / "sim")
    rc = main(["simulate", "--scenario", "3", "--seed", "1", "--grid", "0.05,0.2",
               "--config", str(config), "--output-prefix", prefix])
    assert rc == 0
    with open(f"{prefix}_summary.csv", newline="") as fh:
        summary = dict(list(csv.reader(fh))[1:])
    assert {k: summary[k] for k in ("n", "n_i", "p", "p_star", "replicates")} == {
        "n": "12", "n_i": "3", "p": "8", "p_star": "2", "replicates": "1"}


def test_config_supplies_required_options(tmp_path, small_csv, capsys):
    f, _ = small_csv
    out = tmp_path / "fit.json"
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"input": str(f), "lam": 0.1, "output": str(out)}))
    rc = main(["fit", *DATA_FLAGS, "--config", str(config)])
    assert rc == 0
    assert json.loads(out.read_text())["lambda"] == 0.1
    assert "fit:" in capsys.readouterr().out


@pytest.mark.parametrize("command, argv, missing", [
    ("fit", ["--lambda", "0.1"], ["--input", "--output"]),
    ("select", [], ["--input", "--output-prefix"]),
    ("simulate", ["--seed", "1"], ["--scenario", "--output-prefix"]),
    ("cv", ["--seed", "1", *DATA_FLAGS], ["--input", "--k", "--output"]),
    ("reduce", ["--output", "r.csv"], ["--input", "--report"]),
], ids=["fit", "select", "simulate", "cv", "reduce"])
def test_required_option_missing_from_flags_and_config(tmp_path, capsys, command,
                                                       argv, missing):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"subject": "id"} if command != "simulate" else {}))
    rc = main([command, *argv, "--config", str(config)])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError"
    assert all(flag in error["message"] for flag in missing)
    assert list(tmp_path.iterdir()) == [config]


def test_duplicate_role_column_is_data_error(tmp_path, capsys):
    f = tmp_path / "dup.csv"
    f.write_text("id,y,x,x,t\n" + "".join(
        f"s{i},{i % 3}.5,{i}.0,{(7 * i) % 5}.0,{i % 4}\n" for i in range(12)))
    out = tmp_path / "fit.json"
    rc = main(["fit", "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "x", "--random", "1,t", "--lambda", "0",
               "--output", str(out)])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError" and "'x'" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("subject, response, fixed, random", [
    ("id", "x1", "x1,x2", "1,t"),
    ("id", "t", "x1,x2", "1,t"),
    ("id", "y", "id,x1", "1,t"),
    ("id", "y", "x1", "id,t"),
    ("id", "id", "x1,x2", "1,t"),
    ("id", "y", "x1,x1", "1,t"),
    ("id", "y", "x1,x2", "1,1"),
    ("id", "y", "x1,x2", "t,t"),
], ids=["response_fixed", "response_random", "subject_fixed", "subject_random",
        "subject_response", "fixed_twice", "intercept_twice", "random_twice"])
def test_conflicting_column_roles_are_usage_error(tmp_path, small_csv, capsys, subject,
                                                  response, fixed, random):
    f, _ = small_csv
    rc = main(["fit", "--input", str(f), "--subject", subject, "--response", response,
               "--fixed", fixed, "--random", random, "--lambda", "0.1",
               "--output", str(tmp_path / "fit.json")])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError"
    assert list(tmp_path.iterdir()) == [f]


@pytest.mark.parametrize("spec", ["a:b", "10:0.1:3", "0:0.01", "10:0"])
def test_malformed_grid_log_is_usage_error(tmp_path, small_csv, capsys, spec):
    f, _ = small_csv
    rc = main(["select", "--input", str(f), *DATA_FLAGS, "--grid-log", spec,
               "--output-prefix", str(tmp_path / "g")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"]["type"] == "ConfigurationError"
    assert list(tmp_path.iterdir()) == [f]


def test_grid_log_is_anchored_at_the_elastic_net_lambda_max(tmp_path, small_csv):
    f, ds = small_csv
    prefix = str(tmp_path / "en")
    rc = main(["select", "--input", str(f), *DATA_FLAGS,
               "--alpha", "0.5", "--grid-log", "3:0.5", "--output-prefix", prefix])
    assert rc == 0
    with open(prefix + "_path.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # per-observation units: raw lambda_max over 2 N
    top = float(np.max(np.abs(2 * ds.X.T @ ds.y))) / 0.5 / (2 * ds.N)
    assert float(rows[0]["lambda"]) == pytest.approx(top, rel=1e-12)
    assert rows[0]["nnz"] == "0"


def test_same_runconfig_byte_identical_outputs(tmp_path, small_csv):
    f, _ = small_csv
    a, b = str(tmp_path / "runA"), str(tmp_path / "runB")
    for prefix in (a, b):
        rc = main(["select", "--input", str(f), *DATA_FLAGS,
                   "--grid", "0.02:0.3:6", "--output-prefix", prefix])
        assert rc == 0
    assert (tmp_path / "runA_path.csv").read_bytes() == (tmp_path / "runB_path.csv").read_bytes()
    assert (tmp_path / "runA_selection.json").read_bytes() == (tmp_path / "runB_selection.json").read_bytes()


def _write_cholesterol_study_csv(path, n=200, seed=8):
    """Synthetic study shaped like a cholesterol panel: sex, age, time,
    all interactions, and three decoy covariates; only age, time, and the
    sex-by-time interaction drive the response."""
    rng = np.random.default_rng(seed)
    header = ["id", "chol", "sex", "age", "time", "sex_age", "sex_time",
              "age_time", "sex_age_time", "decoy_bin", "decoy_n1", "decoy_n2"]
    lines = [",".join(header)]
    for i in range(n):
        sex = float(rng.integers(0, 2))
        age = float(rng.uniform(31, 62))
        b0, b1 = 0.2 * rng.normal(size=2)
        decoy_bin = float(rng.uniform() < 0.5)
        z = rng.normal(size=2)
        decoy1 = z[0]
        decoy2 = 0.5 * z[0] + np.sqrt(1 - 0.25) * z[1]
        for j in range(5):
            t = (2.0 * j - 5.0) / 10.0
            chol = (0.02 * age + 0.3 * t + 0.25 * sex * t + b0 + b1 * t
                    + 0.15 * float(rng.normal()))
            row = [f"s{i}", chol, sex, age, t, sex * age, sex * t, age * t,
                   sex * age * t, decoy_bin, decoy1, decoy2]
            lines.append(",".join(str(float(v)) if not isinstance(v, str) else v
                                  for v in row))
    path.write_text("\n".join(lines) + "\n")


def test_cmd_select_cholesterol_shaped_study(tmp_path):
    f = tmp_path / "chol.csv"
    _write_cholesterol_study_csv(f)
    prefix = str(tmp_path / "chol_sel")
    rc = main(["select", "--input", str(f),
               "--subject", "id", "--response", "chol",
               "--fixed", "sex,age,time,sex_age,sex_time,age_time,"
                          "sex_age_time,decoy_bin,decoy_n1,decoy_n2",
               "--random", "intercept+time",
               "--standardize", "--categorical", "sex,decoy_bin",
               "--grid", "0.001:0.5:40", "--output-prefix", prefix])
    assert rc == 0
    selection = json.loads((tmp_path / "chol_sel_selection.json").read_text())
    picked = set(selection["support_names"])
    assert {"age", "time"} <= picked
    assert not ({"decoy_bin", "decoy_n1", "decoy_n2"} & picked)
    assert "refit_original_scale" in selection


def test_cmd_cv_gene_expression_shape(tmp_path):
    # 28 subjects observed 2-4 times (71 rows), 101 covariates, sparse truth
    rng = np.random.default_rng(21)
    counts = rng.integers(2, 5, size=28)
    while counts.sum() != 71:
        counts = rng.integers(2, 5, size=28)
    p = 101
    names = [f"g{k}" for k in range(1, p)] + ["gtime"]
    header = ["strain", "ribo", *names]
    lines = [",".join(header)]
    beta = np.zeros(p)
    beta[:3] = 1.0
    for i, c in enumerate(counts):
        b0, b1 = 0.4 * rng.normal(size=2)
        for j in range(int(c)):
            x = rng.normal(size=p - 1)
            t = float(j + 1)
            row_x = np.concatenate([x, [t]])
            y = float(row_x @ beta + b0 + b1 * t + 0.3 * rng.normal())
            lines.append(",".join([f"st{i}", str(y)]
                                  + [str(float(v)) for v in row_x]))
    f = tmp_path / "genes.csv"
    f.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cv.csv"
    # every fold selects lambda 0.1 with a support as large as its training
    # rows (53, 50, 55 and 55 columns), so each selected refit interpolates
    # the data: selection on p > N does not yet stop before a saturated
    # model; tolerances loosened to practical levels for this degenerate shape
    rc = main(["cv", "--input", str(f), "--subject", "strain",
               "--response", "ribo", "--fixed", ",".join(names),
               "--random", "1,gtime", "--k", "4", "--seed", "9",
               "--grid", "0.1,0.18,0.26,0.35", "--max-iter", "100",
               "--eps", "1e-5",
               "--output", str(out)])
    assert rc == 0
    lines_out = out.read_text().strip().split("\n")
    assert len(lines_out) == 5  # header + 4 fold rows


def test_elastic_net_penalty_flags(tmp_path, small_csv, capsys):
    f, _ = small_csv
    rc = main(["select", "--input", str(f), *DATA_FLAGS, "--alpha", "0.5",
               "--grid", "0.05,0.15", "--output-prefix", str(tmp_path / "en")])
    assert rc == 0
    assert (tmp_path / "en_selection.json").exists()
    capsys.readouterr()
    for alpha in ("1.5", "-0.5", "0"):  # outside [0, 1], or ridge, which selects nothing
        rc = main(["select", "--input", str(f), *DATA_FLAGS, "--alpha", alpha,
                   "--grid", "0.05", "--output-prefix", str(tmp_path / "en2")])
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert err["error"]["type"] == "ConfigurationError"
        assert "alpha" in err["error"]["message"] or "ridge" in err["error"]["message"]


@pytest.mark.parametrize("command", ["fit", "select", "cv"])
def test_alpha_1_writes_the_bytes_of_the_default_lasso(tmp_path, small_csv, command):
    f, _ = small_csv
    tail = {"fit": ["--lambda", "0.05"], "select": ["--grid", "0.02:0.3:4"],
            "cv": ["--k", "3", "--seed", "1", "--grid", "0.02:0.3:4"]}[command]
    outputs = {}
    for name, alpha in (("default", []), ("alpha", ["--alpha", "1"])):
        (tmp_path / name).mkdir()
        out = str(tmp_path / name / "out")
        dest = ["--output-prefix", out] if command == "select" else ["--output", out]
        assert main([command, "--input", str(f), *DATA_FLAGS, *tail, *alpha, *dest]) == 0
        outputs[name] = {q.name: q.read_bytes() for q in (tmp_path / name).iterdir()}
    assert outputs["alpha"] == outputs["default"] and outputs["default"]


def test_fit_alpha_0_is_the_library_ridge_fit(tmp_path, small_csv):
    f, ds = small_csv
    out = tmp_path / "ridge.json"
    rc = main(["fit", "--input", str(f), *DATA_FLAGS, "--lambda", "0.05", "--alpha", "0",
               "--output", str(out)])
    assert rc == 0
    ref = fit_em(ds, 0.05, 0.0, lambda_scale="per_obs")
    np.testing.assert_allclose(json.loads(out.read_text())["params"]["beta"],
                               ref.params.beta, rtol=1e-10, atol=1e-12)
    assert np.all(ref.params.beta != 0.0)


@pytest.mark.parametrize("command", ["fit", "select", "simulate", "cv"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_the_removed_penalty_option_is_usage_error(tmp_path, small_csv, command, via):
    # --alpha alone describes the penalty; an old --penalty flag or config
    # key exits 2, never ignored
    out = str(tmp_path / "out")
    argv = {"fit": ["--lambda", "0.1", "--output", out],
            "select": ["--grid", "0.1", "--output-prefix", out],
            "simulate": ["--scenario", "1", "--seed", "1", "--replicates", "1",
                         "--grid", "0.1", "--output-prefix", out],
            "cv": ["--k", "2", "--seed", "1", "--grid", "0.1", "--output", out]}[command]
    if command != "simulate":
        argv += ["--input", str(small_csv[0]), *DATA_FLAGS]
    if via == "flag":
        argv += ["--penalty", "lasso"]
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"penalty": "lasso"}))
        argv += ["--config", str(conf)]
    try:
        rc = main([command, *argv])
    except SystemExit as e:  # argparse rejects an unknown flag
        rc = e.code
    assert rc == 2
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


def test_standardize_flags_reach_selection(tmp_path, small_csv):
    f, _ = small_csv
    prefix = str(tmp_path / "std")
    rc = main(["select", "--input", str(f), *DATA_FLAGS, "--standardize",
               "--grid", "0.02:0.3:6", "--output-prefix", prefix])
    assert rc == 0
    selection = json.loads((tmp_path / "std_selection.json").read_text())
    assert "refit_original_scale" in selection


def _interleaved_csv(path, bad=None):
    """Six subjects of three rows each, the rows interleaved across subjects.

    bad = (column, cell) replaces that column's cell in the last row of
    subject s3.
    """
    lines = ["id,y,x1,x2,t"]
    for t in range(3):
        for i in range(6):
            cells = {"id": f"s{i}", "y": f"{(7 * i + 3 * t) % 5}.25", "x1": f"{i}.5",
                     "x2": f"{(i * t) % 4}.0", "t": str(t)}
            if bad and i == 3 and t == 2:
                cells[bad[0]] = bad[1]
            lines.append(",".join(cells.values()))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column,role", [("y", "y"), ("x2", "X"), ("t", "Z")])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell_is_data_error_naming_the_subject(tmp_path, capsys, column,
                                                          role, cell):
    f = tmp_path / "bad.csv"
    _interleaved_csv(f, bad=(column, cell))
    rc = main(["fit", "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "x1,x2", "--random", "1,t", "--lambda", "0",
               "--output", str(tmp_path / "fit.json")])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError"
    assert error["message"] == f"subject 's3': non-finite values in {role}"
    assert list(tmp_path.iterdir()) == [f]


@pytest.mark.parametrize("command,flags", [
    ("fit", ["--lambda", "nan"]),
    ("fit", ["--lambda", "inf"]),
    ("fit", ["--lambda", "0", "--eps", "nan"]),
    ("fit", ["--lambda", "0", "--eps", "-1"]),
    ("fit", ["--lambda", "0", "--eps", "inf"]),
    ("reduce", ["--rank-tol", "nan"]),
    ("reduce", ["--rank-tol", "inf"]),
    ("select", ["--grid", "1:2"]),
    ("select", ["--grid", "a:b:c"]),
    ("select", ["--grid", "0.1,x"]),
    ("fit", ["--lambda", "0", "--standardize", "--categorical", "zz"]),
], ids=lambda v: v if isinstance(v, str) else "=".join(v[-2:]).lstrip("-"))
def test_non_finite_or_out_of_range_option_is_usage_error(tmp_path, capsys, command,
                                                          flags):
    f = tmp_path / "in.csv"
    _interleaved_csv(f)
    outputs = {"fit": ["--output", str(tmp_path / "fit.json")],
               "select": ["--output-prefix", str(tmp_path / "sel")],
               "reduce": ["--output", str(tmp_path / "r.csv"),
                          "--report", str(tmp_path / "r.json")]}[command]
    rc = main([command, "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "x1,x2", "--random", "1,t", *flags, *outputs])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError"
    assert list(tmp_path.iterdir()) == [f]


def test_random_role_without_columns_is_data_error(tmp_path, capsys):
    f = tmp_path / "in.csv"
    _interleaved_csv(f)
    rc = main(["fit", "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "x1", "--random", ",", "--lambda", "0",
               "--output", str(tmp_path / "fit.json")])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError" and "random-effect" in error["message"]
    assert list(tmp_path.iterdir()) == [f]


_ONE_ROW_CSV = "id,y,a,t\n1,2.0,3.0,1\n"
_ONE_SUBJECT = "a fit needs at least 2 subjects; the data have 1"
# case: (the CSV, or None for _interleaved_csv with t = 0 in every row; the
# command and its flags after --input; the DataError's message)
_UNIDENTIFIABLE = {
    # nothing moved D[1, 1] from its start
    "zero-random-column": (None, ["fit", "--subject", "id", "--response", "y", "--fixed",
                                  "x1,x2", "--random", "1,t", "--lambda", "0", "--output"],
                           "random-effect column 't' is zero in every row"),
    # fit exited 0 with "converged=True iterations=126", and select chose 'a'
    "one-row-fit": (_ONE_ROW_CSV, ["fit", "--subject", "id", "--response", "y", "--fixed", "a",
                                   "--random", "1", "--lambda", "0.1", "--output"],
                    _ONE_SUBJECT),
    "one-row-select": (_ONE_ROW_CSV, ["select", "--subject", "id", "--response", "y",
                                      "--fixed", "a", "--random", "1", "--grid", "0.1,0",
                                      "--output-prefix"], _ONE_SUBJECT),
}


@pytest.mark.parametrize("case", list(_UNIDENTIFIABLE))
def test_design_that_cannot_identify_D_is_data_error(tmp_path, capsys, case):
    text, args, message = _UNIDENTIFIABLE[case]
    f = tmp_path / "in.csv"
    if text is None:
        _interleaved_csv(f)
        header, *rows = f.read_text().splitlines()
        text = "\n".join([header] + [row.rsplit(",", 1)[0] + ",0" for row in rows]) + "\n"
    f.write_text(text)
    rc = main([args[0], "--input", str(f), *args[1:], str(tmp_path / "out")])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError"
    assert error["message"] == message
    assert list(tmp_path.iterdir()) == [f]


@pytest.mark.parametrize("cell", ["", '""'], ids=["bare", "quoted"])
def test_empty_subject_cell_is_data_error(tmp_path, capsys, cell):
    # four rows of four subjects with no id would be fitted as one subject ""
    f = tmp_path / "in.csv"
    _interleaved_csv(f)
    header, *rows = f.read_text().splitlines()
    rows[:4] = [cell + row[row.index(","):] for row in rows[:4]]
    f.write_text("\n".join([header] + rows) + "\n")
    rc = main(["fit", "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "x1,x2", "--random", "1,t", "--lambda", "0",
               "--output", str(tmp_path / "fit.json")])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError"
    assert error["message"] == f"{f}: subject column 'id' is empty in 4 row(s)"
    assert list(tmp_path.iterdir()) == [f]


def test_one_row_csv_with_standardize_is_data_error_naming_the_rows(tmp_path, capsys):
    # numpy's "Degrees of freedom <= 0" warning reached stderr, and then
    # the refusal blamed column 'x1' for zero variance
    f = tmp_path / "in.csv"
    f.write_text("id,y,x1,t\ns1,2.0,3.0,1\n")
    rc = main(["fit", "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "x1", "--random", "1", "--standardize", "--lambda", "0.1",
               "--output", str(tmp_path / "fit.json")])
    assert rc == 3
    out, err = capsys.readouterr()
    error = json.loads(out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError"
    assert error["message"] == "standardize needs at least 2 rows; the data have 1"
    assert err == ""
    assert list(tmp_path.iterdir()) == [f]


@pytest.mark.parametrize("command", ["select", "cv"])
def test_no_fixed_effects_selects_the_empty_support(tmp_path, small_csv, command):
    # --fixed "," names no column: fit ran the random-effects model, but
    # select and cv ended in a numpy reshape traceback (exit 1)
    f, _ = small_csv
    outputs = {"select": ["--output-prefix", str(tmp_path / "sel")],
               "cv": ["--k", "2", "--seed", "0", "--output", str(tmp_path / "cv.csv")]}
    rc = main([command, "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", ",", "--random", "1,t", "--grid", "0.1,0", *outputs[command]])
    assert rc == 0
    if command == "select":
        selection = json.loads((tmp_path / "sel_selection.json").read_text())
        assert selection["support"] == [] and selection["support_names"] == []
    else:
        with open(tmp_path / "cv.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and [r["support"] for r in rows] == ["", ""]


def test_standardize_refuses_a_scale_that_overflows(tmp_path, small_csv, capsys):
    # y and x1 near 1e200: the scales would come out inf, the data all zero,
    # and the fit a floor fit that exited 0; the ingested dataset is refused
    # before standardize runs
    f, _ = small_csv
    header, *rows = f.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    for c in cells:
        c[1], c[2] = (repr(1e200 * float(v)) for v in c[1:3])
    f.write_text("\n".join([header] + [",".join(c) for c in cells]) + "\n")
    rc = main(["fit", "--input", str(f), *DATA_FLAGS, "--standardize", "--lambda", "0.05",
               "--output", str(tmp_path / "fit.json")])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError"
    assert error["message"] == ("columns 'y', 'x1': sum of squares overflows double "
                                "precision; rescale")
    assert list(tmp_path.iterdir()) == [f]


def test_column_whose_squares_overflow_is_data_error(tmp_path, small_csv, capsys):
    # y and x1 near 1e200, no --standardize: the fit overflowed in a matmul
    # (a RuntimeWarning) and exited 4 with "sigma2 must be finite"
    f, _ = small_csv
    header, *rows = f.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    for c in cells:
        c[1], c[2] = (repr(1e200 * float(v)) for v in c[1:3])
    f.write_text("\n".join([header] + [",".join(c) for c in cells]) + "\n")
    rc = main(["fit", "--input", str(f), *DATA_FLAGS, "--lambda", "0.05",
               "--output", str(tmp_path / "fit.json")])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError"
    assert error["message"] == ("columns 'y', 'x1': sum of squares overflows double "
                                "precision; rescale")
    assert list(tmp_path.iterdir()) == [f]


def test_column_whose_squares_underflow_is_data_error(tmp_path, small_csv, capsys):
    # y and x1 near 1e-200: the fit reported converged after 2 iterations
    # with beta 0 and sigma2 at its floor, and exited 0
    f, _ = small_csv
    header, *rows = f.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    for c in cells:
        c[1], c[2] = (repr(1e-200 * float(v)) for v in c[1:3])
    f.write_text("\n".join([header] + [",".join(c) for c in cells]) + "\n")
    rc = main(["fit", "--input", str(f), *DATA_FLAGS, "--lambda", "0.05",
               "--output", str(tmp_path / "fit.json")])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError"
    assert error["message"] == ("columns 'y', 'x1': sum of squares underflows double "
                                "precision; rescale")
    assert list(tmp_path.iterdir()) == [f]


_DATA_OPTIONS = ["--input", "--subject", "--response", "--fixed", "--random"]
_STANDARDIZE_OPTIONS = ["--standardize", "--categorical", "--no-scale-y"]
_EM_OPTIONS = ["--config", "--lambda-scale", "--eps", "--max-iter"]
_PENALTY_OPTIONS = ["--alpha"]


@pytest.mark.parametrize("command, flags", [
    ("fit", [*_DATA_OPTIONS, *_STANDARDIZE_OPTIONS, *_EM_OPTIONS, *_PENALTY_OPTIONS,
             "--lambda", "--output"]),
    ("select", [*_DATA_OPTIONS, *_STANDARDIZE_OPTIONS, *_EM_OPTIONS, *_PENALTY_OPTIONS,
                "--criterion", "--grid", "--grid-log", "--output-prefix"]),
    ("simulate", [*_EM_OPTIONS, "--criterion", "--scenario", "--n", "--n-i", "--p",
                  "--p-star", "--d-matrix", "--replicates", "--threads", "--seed",
                  "--grid", "--output-prefix"]),
    ("cv", [*_DATA_OPTIONS, *_STANDARDIZE_OPTIONS, *_EM_OPTIONS, *_PENALTY_OPTIONS,
            "--criterion", "--k", "--seed", "--grid", "--grid-log", "--output"]),
    ("reduce", [*_DATA_OPTIONS, "--config", "--rank-tol", "--output", "--report"]),
])
def test_each_subcommand_accepts_exactly_its_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set()
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):
            listed.update(re.findall(r"--?[\w-]+", line.split("  ")[1]))
    assert listed == {"-h", "--help", *flags}


@pytest.mark.parametrize("command, option, value", [
    ("fit", "criterion", "aic"),
    ("simulate", "alpha", 0.5),
])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_subcommand_rejects_option_it_would_ignore(tmp_path, small_csv, command, option,
                                                   value, via):
    # fit selects no penalty level; simulate's scenarios are lasso sweeps
    out = str(tmp_path / "out")
    if command == "fit":
        argv = ["fit", "--input", str(small_csv[0]), *DATA_FLAGS, "--lambda", "0.1",
                "--output", out]
    else:
        argv = ["simulate", "--scenario", "1", "--seed", "1", "--replicates", "1",
                "--grid", "0.1", "--output-prefix", out]
    if via == "flag":
        argv += [f"--{option}", str(value)]
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({option: value}))
        argv += ["--config", str(conf)]
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse rejects an unknown flag
        rc = e.code
    assert rc == 2
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


def test_unset_fit_options_take_the_library_defaults(tmp_path, small_csv, monkeypatch):
    seen = {}

    def recording_fit_em(ds, lam, **kw):
        seen.update(kw)
        return fit_em(ds, lam, **kw)

    monkeypatch.setattr(cli, "fit_em", recording_fit_em)
    rc = main(["fit", "--input", str(small_csv[0]), *DATA_FLAGS, "--lambda", "0.1",
               "--output", str(tmp_path / "fit.json")])
    assert rc == 0
    assert seen == {"ctrl": EmControl(), "lambda_scale": "per_obs"}


def test_unset_select_options_take_the_library_defaults(tmp_path, small_csv):
    prefix = str(tmp_path / "d")
    rc = main(["select", "--input", str(small_csv[0]), *DATA_FLAGS,
               "--output-prefix", prefix])
    assert rc == 0
    with open(f"{prefix}_path.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert sorted(float(r[0]) for r in rows) == list(default_grid())
    selection = json.loads((tmp_path / "d_selection.json").read_text())
    assert (selection["criterion"], selection["lambda_scale"]) == ("bic", "per_obs")


def _simulate_summary(tmp_path, *flags):
    prefix = str(tmp_path / "sim")
    rc = main(["simulate", *flags, "--seed", "1", "--replicates", "1",
               "--grid", "0.1,0.3", "--output-prefix", prefix])
    assert rc == 0
    with open(f"{prefix}_summary.csv", newline="") as fh:
        return dict(list(csv.reader(fh))[1:])


def test_unset_simulate_design_takes_the_scenario_defaults(tmp_path):
    summary = _simulate_summary(tmp_path, "--scenario", "3")
    assert {k: summary[k] for k in ("n", "n_i", "p", "p_star")} == {
        "n": "30", "n_i": "5", "p": "50", "p_star": "5"}


def test_simulate_design_options_apply_to_every_scenario(tmp_path):
    summary = _simulate_summary(tmp_path, "--scenario", "1", "--p", "4", "--p-star", "1")
    assert (summary["p"], summary["p_star"]) == ("4", "1")
    assert sum(k.startswith("zero_proportion_beta") for k in summary) == 4


@pytest.mark.parametrize("command, flags, config", [
    ("select", ["--grid", "0.1", "--grid-log", "5:0.1"], {}),
    ("select", ["--grid", "0.1"], {"grid_log": "5:0.1"}),
    ("cv", ["--grid-log", "5:0.1"], {"grid": "0.1"}),
    ("fit", ["--categorical", "x1"], {}),
    ("fit", ["--no-scale-y"], {}),
    ("fit", [], {"scale_y": False}),
    ("simulate", ["--threads", "0"], {}),
    ("simulate", ["--threads", "-3"], {}),
    ("simulate", ["--n-i", "1"], {}),
], ids=["grid-and-grid-log", "grid-and-config-grid-log",
        "config-grid-and-grid-log", "categorical-unstandardized",
        "no-scale-y-unstandardized", "config-scale-y-unstandardized",
        "threads-0", "threads-negative", "one-time-point"])
def test_option_that_would_be_ignored_is_usage_error(tmp_path, small_csv, capsys,
                                                     command, flags, config):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(config))
    out = str(tmp_path / "out")
    tail = {"fit": ["--lambda", "0.1", "--output", out],
            "select": ["--output-prefix", out],
            "cv": ["--k", "2", "--seed", "1", "--output", out]}
    if command == "simulate":
        argv = ["--scenario", "1", "--seed", "1", "--replicates", "2",
                "--grid", "0.1", "--output-prefix", out]
    else:
        argv = ["--input", str(small_csv[0]), *DATA_FLAGS, *tail[command]]
    rc = main([command, *argv, *flags, "--config", str(conf)])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json", "data.csv"]


def _unreadable_input(tmp_path, case):
    if case == "missing":
        return tmp_path / "no_such.csv"
    if case == "directory":
        return tmp_path
    f = tmp_path / "latin1.csv"
    f.write_bytes("id,y,x1,x2,x3,t\nMüller,1,2,3,4,1\n".encode("latin-1"))
    return f


@pytest.mark.parametrize("command", ["fit", "select", "cv", "reduce"])
@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
def test_unreadable_input_is_data_error_naming_the_path(tmp_path, capsys, case, command):
    path = _unreadable_input(tmp_path, case)
    out = str(tmp_path / "out")
    tail = {"fit": ["--lambda", "0.1", "--output", out],
            "select": ["--output-prefix", out],
            "cv": ["--k", "2", "--seed", "1", "--output", out],
            "reduce": ["--output", out, "--report", out + ".json"]}
    rc = main([command, "--input", str(path), *DATA_FLAGS, *tail[command]])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError" and str(path) in error["message"]
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


_BIG_FIELD = "x" * 200_000  # above csv's default field size limit of 131072


@pytest.mark.parametrize("command, text, line", [
    ("fit", f"id,y,x1,x2,x3,t,note\nA,1,2,3,4,1,{_BIG_FIELD}\nA,oops,2,3,4,2,b\n", 2),
    ("fit", f"id,y,x1,x2,x3,t,{_BIG_FIELD}\nA,1,2,3,4,1,a\n", 1),
], ids=["cell", "header"])
def test_oversized_csv_field_is_data_error_naming_the_line(tmp_path, capsys, command, text,
                                                           line):
    # "cell" has an "oops" cell, so the row loop reads it after the C pass
    path = tmp_path / "big.csv"
    path.write_text(text)
    out = str(tmp_path / "out")
    rc = main([command, "--input", str(path), *DATA_FLAGS, "--lambda", "0.1", "--output", out])
    assert rc == 3
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError"
    assert error["message"].startswith(f"{path}: line {line}: field larger than field limit")
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


def test_reduce_copies_an_oversized_field_byte_for_byte(tmp_path):
    # ingest's C pass reads the cell; reduce's own second pass must read it too
    path = tmp_path / "big.csv"
    path.write_text(f"id,y,x1,x2,x3,t,note\nA,1,2,3,4,1,{_BIG_FIELD}\nA,2,3,4,5,2,b\n")
    out = tmp_path / "out.csv"
    limit = csv.field_size_limit()
    rc = main(["reduce", "--input", str(path), *DATA_FLAGS, "--output", str(out),
               "--report", str(tmp_path / "report.json")])
    assert rc == 0
    assert csv.field_size_limit() == limit
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",note") and lines[1].endswith(f",{_BIG_FIELD}")


def test_reduce_refuses_a_pipe_without_reading_it(tmp_path, small_csv):
    # reduce reads its input twice; a pipe would leave the second read waiting
    # for a writer that never comes, so the pipe is refused before ingest
    f, _ = small_csv
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(f.read_bytes()), daemon=True)
    writer.start()
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "lmmlasso.cli", "reduce", "--input", str(fifo),
             *DATA_FLAGS, "--output", str(tmp_path / "out.csv"),
             "--report", str(tmp_path / "out.json")],
            env=env, capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("reduce on a pipe did not return within 30 s")
    finally:
        # release the writer whether or not reduce opened the pipe
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        writer.join(timeout=10)
        os.close(reader)
    assert not writer.is_alive()
    assert done.returncode == 3, done.stderr
    error = json.loads(done.stdout.strip().split("\n")[-1])["error"]
    assert error["type"] == "DataError" and str(fifo) in error["message"]
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


@pytest.mark.parametrize("command, tail", [
    ("fit", ["--lambda", "0.1", "--output", "{gone}/fit.json"]),
    ("select", ["--output-prefix", "{gone}/sel"]),
    ("cv", ["--k", "2", "--seed", "1", "--output", "{gone}/cv.csv"]),
    ("reduce", ["--output", "{here}/r.csv", "--report", "{gone}/r.json"]),
    ("simulate", ["--output-prefix", "{gone}/sim"]),
])
def test_missing_output_directory_is_usage_error_before_any_fit(tmp_path, small_csv, capsys,
                                                                monkeypatch, command, tail):
    calls = []
    for name in ("ingest_long_csv", "fit_em", "select", "kfold_cv", "run_monte_carlo"):
        def record(*args, _name=name, _real=getattr(cli, name), **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(cli, name, record)
    paths = {"gone": str(tmp_path / "no_such_dir"), "here": str(tmp_path)}
    argv = ["--scenario", "1", "--seed", "1", "--replicates", "1", "--grid", "0.1"] \
        if command == "simulate" else ["--input", str(small_csv[0]), *DATA_FLAGS]
    rc = main([command, *argv, *(arg.format(**paths) for arg in tail)])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError" and "no_such_dir" in error["message"]
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_default_p_star_above_p_names_its_source(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "3", "--p", "3", "--seed", "1",
               "--replicates", "1", "--output-prefix", str(tmp_path / "x")])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError"
    assert "scenario 3's default" in error["message"] and "--p-star" in error["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, tail", [
    ("fit", ["--lambda", "0.1", "--output", "{here}"]),
    ("cv", ["--k", "2", "--seed", "1", "--output", "{here}"]),
    ("reduce", ["--output", "{here}", "--report", "{here}/r.json"]),
    ("reduce", ["--output", "{here}/r.csv", "--report", "{here}"]),
], ids=["fit", "cv", "reduce-output", "reduce-report"])
def test_output_path_naming_a_directory_is_usage_error_before_any_fit(tmp_path, small_csv,
                                                                      capsys, monkeypatch,
                                                                      command, tail):
    calls = []
    for name in ("ingest_long_csv", "fit_em", "kfold_cv"):
        def record(*args, _name=name, _real=getattr(cli, name), **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(cli, name, record)
    argv = ["--input", str(small_csv[0]), *DATA_FLAGS]
    rc = main([command, *argv, *(arg.format(here=tmp_path) for arg in tail)])
    assert rc == 2
    error = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["error"]
    assert error["type"] == "ConfigurationError" and "is a directory" in error["message"]
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


_BOM_RUNS = {
    "fit": ["--lambda", "0.1", "--output", "{out}/fit.json"],
    "select": ["--grid", "0.05,0.1", "--output-prefix", "{out}/sel"],
    "cv": ["--k", "2", "--seed", "1", "--grid", "0.05,0.1", "--output", "{out}/cv.csv"],
    "reduce": ["--output", "{out}/reduced.csv", "--report", "{out}/r.json"],
}


@pytest.mark.parametrize("command, tail, first_cell", [
    *((command, tail, "id") for command, tail in _BOM_RUNS.items()),
    *((command, tail, '"id"') for command, tail in _BOM_RUNS.items()),
], ids=[*_BOM_RUNS, *(f"quoted-{command}" for command in _BOM_RUNS)])
def test_byte_order_mark_before_the_header_is_dropped(tmp_path, small_csv, command, tail,
                                                      first_cell):
    # a spreadsheet's "CSV UTF-8" starts the file with U+FEFF; the first
    # column, here the subject id, keeps its name, and the run writes what
    # it writes for the file without the mark.  csv reads a quoted cell
    # after the mark as \ufeff"id", so the mark goes before csv parses it
    plain = small_csv[0]
    text = plain.read_text()
    assert text.startswith("id,")
    marked = tmp_path / "marked.csv"
    marked.write_text("\ufeff" + first_cell + text[2:], encoding="utf-8")
    for name, f in (("plain", plain), ("marked", marked)):
        (tmp_path / name).mkdir()
        rc = main([command, "--input", str(f), *DATA_FLAGS,
                   *(arg.format(out=tmp_path / name) for arg in tail)])
        assert rc == 0
    outputs = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert outputs == sorted(p.name for p in (tmp_path / "marked").iterdir())
    for name in outputs:
        assert (tmp_path / "marked" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


def test_reduce_drops_a_first_column_after_a_byte_order_mark(tmp_path):
    # the dropped column is the first one, so its header cell holds the mark
    rng = np.random.default_rng(11)
    lines = ["\ufeffc,id,y,a,b,t"]
    for i in range(8):
        for t in range(3):
            a, b = (float(v) for v in rng.normal(size=2))
            lines.append(f"{a + b!r},s{i},{a - b + float(rng.normal())!r},{a!r},{b!r},{t + 1}")
    f = tmp_path / "dep.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "reduced.csv"
    rc = main(["reduce", "--input", str(f), "--subject", "id", "--response", "y",
               "--fixed", "a,b,c", "--random", "1,t",
               "--output", str(out), "--report", str(tmp_path / "report.json")])
    assert rc == 0
    assert out.read_text(encoding="utf-8").split("\n")[0] == "id,y,a,b,t"
