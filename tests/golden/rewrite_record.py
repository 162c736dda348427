"""Run the benchmark's 34 pass seeds in process and write their record.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden/rewrite_record.py

Each pass of bench/workloads.py (bench seed 1: 25 `sim-s3` simulations, 8
`select-chol` selections and the `fit-50k` fit) runs through cli.main in
this process.  The record (workloads.json, beside this script) holds per
pass the exit code, a sha256 of stdout with the output directory replaced,
a sha256 of the artifacts, and the readable facts: the artifacts themselves
(CSV lines, whose numbers carry 17 digits, and JSON with every float as a
17-digit string) and, for every sweep the pass ran, the selected index and
support, each entry's nnz, and each grid fit's and refit's iteration count
and converged flag.  tests/test_golden.py compares a fresh run with it.  A
change that moves numbers on purpose reruns this script and lists every
changed entry.  The record names the numpy version, BLAS build and BLAS
thread setting it was taken under.
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
    record = {"build": build(), "bench_seed": SEED, "passes": passes}
    RECORD.write_text(_dumps(record) + "\n")
    print(f"wrote {len(passes)} passes to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
