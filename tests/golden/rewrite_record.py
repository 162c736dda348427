"""Run the benchmark's 34 pass seeds in process and write their record.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden/rewrite_record.py

Each pass of bench/workloads.py (bench seed 1: 25 `sim-s3` simulations, 8
`select-chol` selections and the `fit-50k` fit) runs through cli.main in
this process.  The record (workloads.json, beside this script) holds per
pass the exit code, a sha256 of stdout with the output directory replaced,
a sha256 of the artifacts, and the readable facts: the artifacts themselves
(CSV lines, whose numbers carry 17 digits, and JSON with every float as a
17-digit string) and, for every sweep the pass ran, the selected index and
support, each entry's support and nnz, and each grid fit's and refit's
iteration count and converged flag.  tests/test_golden.py compares a fresh
run with it.  A change that moves numbers on purpose reruns this script and
lists every changed entry; before it writes, the script prints per workload
what changed against the committed record (summarize).  The record names
the numpy version, BLAS build and BLAS thread setting it was taken under.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
RECORD = HERE / "workloads.json"
WORKLOADS = HERE.parent.parent / "bench" / "workloads.py"
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads_golden", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build() -> dict:
    """The numpy version, BLAS build and BLAS thread setting the bits depend on."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _fmt17(obj):
    """obj with every float as its 17-digit string."""
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, list):
        return [_fmt17(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _fmt17(v) for k, v in obj.items()}
    return obj


def _path_facts(path) -> dict:
    """The selection facts of one sweep's RegularizationPath."""
    def runs(reports):
        return [None if f is None else [f.iterations, f.converged] for f in reports]

    return {"selected_index": path.selected_index,
            "selected_support": list(path.selected_support),
            "supports": [None if f is None else np.flatnonzero(f.params.beta).tolist()
                         for f in path.fits],
            "nnz": path.nnz.tolist(), "fits": runs(path.fits), "refits": runs(path.refit_fits)}


@contextlib.contextmanager
def _recorded_sweeps(paths: list):
    """Append every path that selector.sweep returns, as select and simkit call it."""
    from lmmlasso import selector, simkit

    sweep = selector.sweep

    def recorded(*args, **kwargs):
        path = sweep(*args, **kwargs)
        paths.append(path)
        return path

    selector.sweep = simkit.sweep = recorded
    try:
        yield
    finally:
        selector.sweep = simkit.sweep = sweep


def run_passes(workdir) -> dict:
    """{"<workload>/<pass seed>": facts} for every pass seed, run in workdir."""
    from lmmlasso import cli

    workloads = _load_workloads()
    workdir = str(workdir)
    out = {}
    for name in workloads.NAMES:
        inputs = workloads.make_inputs(name, SEED, workdir)
        for group in range(workloads.pass_seeds(name)):
            prefix = os.path.join(workdir, f"{name}-out{group}")
            sink, paths = io.StringIO(), []
            with contextlib.redirect_stdout(sink), _recorded_sweeps(paths):
                code = cli.main(workloads.cli_argv(name, SEED, group, inputs["paths"], prefix))
            artifacts = {}
            digest = hashlib.sha256()
            for artifact in workloads.artifacts(name, prefix):
                key = os.path.basename(artifact).removeprefix(f"{name}-out{group}")
                if not os.path.exists(artifact):
                    artifacts[key] = None
                    continue
                text = pathlib.Path(artifact).read_text()
                digest.update(key.encode() + b"\0" + text.encode())
                artifacts[key] = (_fmt17(json.loads(text)) if artifact.endswith(".json")
                                  else text.splitlines())
            stdout = sink.getvalue().replace(workdir, "<dir>")
            out[f"{name}/{group}"] = {
                "exit": code,
                "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                "artifacts_sha256": digest.hexdigest(),
                "sweeps": [_path_facts(p) for p in paths],
                "artifacts": artifacts,
            }
    return out


def _numbers(obj, where="") -> dict:
    """{key path: float} of every number in a recorded artifact: JSON floats
    are 17-digit strings, and a CSV artifact is a list of lines."""
    if isinstance(obj, str) and "," in obj:  # a CSV line
        obj = obj.split(",")
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    elif isinstance(obj, bool) or obj is None:
        return {}
    else:
        try:
            return {where: float(obj)}
        except ValueError:
            return {}
    out = {}
    for key, value in items:
        out.update(_numbers(value, f"{where}/{key}"))
    return out


def _relative_change(old: dict, new: dict) -> float:
    """The largest relative change between the numbers at the key paths of both."""
    worst = 0.0
    for key in old.keys() & new.keys():
        a, b = old[key], new[key]
        scale = max(abs(a), abs(b))
        if scale > 0.0:
            worst = max(worst, abs(a - b) / scale)
    return worst


def _fit_support(artifacts: dict):
    """The support of a pass's one fit (a fit JSON), or None."""
    fit = artifacts.get("_fit.json")
    return None if fit is None else [j for j, b in enumerate(fit["params"]["beta"])
                                     if float(b) != 0.0]


def summarize(old: dict, new: dict) -> list:
    """One line per workload: what new (passes facts) changes against old.

    It counts the selections changed and the entries whose support or nnz
    changed (a fit pass: its one fit), sums per record the grid-fit
    iterations and the iterations of each entry's refit (a support shared
    by entries counts once per entry), and gives the largest relative
    change among the numbers of the entries whose support held: the path
    CSV row of such an entry, and the other artifacts when every selection
    and the fit's support held (iteration counts and traces left out).
    """
    lines = []
    for name in dict.fromkeys(key.split("/")[0] for key in new):
        selections = changed = entries = 0
        iterations = {"grid": [0, 0], "refit": [0, 0]}
        worst = 0.0
        for key in (k for k in new if k.startswith(name + "/") and k in old):
            was, now = old[key], new[key]
            held = True
            for side, facts in enumerate((was, now)):
                for sweep in facts["sweeps"]:
                    iterations["grid"][side] += sum(f[0] for f in sweep["fits"] if f)
                    iterations["refit"][side] += sum(f[0] for f in sweep["refits"] if f)
                fit = facts["artifacts"].get("_fit.json")
                if fit is not None:
                    iterations["grid"][side] += fit["iterations"]
            rows = now["artifacts"].get("_path.csv")
            for a, b in zip(was["sweeps"], now["sweeps"]):
                if (a["selected_index"], a["selected_support"]) != (
                        b["selected_index"], b["selected_support"]):
                    selections += 1
                    held = False
                for i, (na, nb) in enumerate(zip(a["nnz"], b["nnz"])):
                    entries += 1
                    if na != nb or a["supports"][i] != b["supports"][i]:
                        changed += 1
                    elif rows is not None:
                        worst = max(worst, _relative_change(
                            _numbers(was["artifacts"]["_path.csv"][i + 1]),
                            _numbers(rows[i + 1])))
            if _fit_support(was["artifacts"]) is not None:
                entries += 1
                if _fit_support(was["artifacts"]) != _fit_support(now["artifacts"]):
                    changed += 1
                    held = False
            if held:
                worst = max(worst, _relative_change(*(
                    {k: x for k, x in _numbers(facts["artifacts"]).items()
                     if not k.startswith("/_path.csv") and "iterations" not in k
                     and "trace" not in k} for facts in (was, now))))
        sweeps = sum(len(new[k]["sweeps"]) for k in new if k.startswith(name + "/"))
        lines.append(
            f"{name}: {selections} of {sweeps} selections changed; {changed} of {entries} "
            f"entries changed support or nnz; grid-fit iterations {iterations['grid'][0]} -> "
            f"{iterations['grid'][1]}; refit iterations over entries {iterations['refit'][0]} -> "
            f"{iterations['refit'][1]}; largest relative change where the support held "
            f"{worst:.2e}")
    return lines


def _dumps(obj, indent: int = 0) -> str:
    """obj as JSON with one dict entry, or list string or dict, per line, and
    any other list on one line: a diff of the record shows the changed lines."""
    pad = " " * (indent + 1)
    if isinstance(obj, dict) and obj:
        items = [f"{pad}{json.dumps(k)}: {_dumps(v, indent + 1)}" for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(obj, list) and obj and all(isinstance(v, (str, dict)) for v in obj):
        items = [pad + _dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    return json.dumps(obj)


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        passes = run_passes(workdir)
    if RECORD.exists():
        print(f"against {RECORD}:")
        for line in summarize(json.loads(RECORD.read_text())["passes"], passes):
            print("  " + line)
    record = {"build": build(), "bench_seed": SEED, "passes": passes}
    RECORD.write_text(_dumps(record) + "\n")
    print(f"wrote {len(passes)} passes to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
