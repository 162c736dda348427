"""Child process of the benchmark: set-up probes and timed CLI passes.

    python3 bench/worker.py setup <src> <workload> <seed> [input ...]
    python3 bench/worker.py passes <src> <job.json>

``setup`` imports ``lmmlasso.cli`` and builds the workload's data, then
exits; its parent times the whole process.  ``passes`` calls
``lmmlasso.cli.main`` on the workload's arguments until the job's seconds
are used, checks every pass's artifacts, and writes a JSON result.  With
tracing on it runs those untraced passes first, then one traced pass per
pass seed.  Run through ``bench/run.py``, which writes the job file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time


def _import_package(src: str):
    sys.path.insert(0, src)
    import lmmlasso.cli

    if not os.path.abspath(lmmlasso.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"lmmlasso was imported from {lmmlasso.cli.__file__}, not {src}")
    return lmmlasso.cli


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def setup(src, name, seed, *paths):
    _import_package(src)
    import workloads

    workloads.build_datasets(name, int(seed), paths)


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def passes(src, job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    cli = _import_package(src)
    import speed
    import workloads

    name = job["workload"]
    groups = workloads.pass_seeds(name)
    result = {"raw_walls": [], "walls": [], "attempted": 0, "failed": 0, "problems": [],
              "blas_threads": _blas_threads()}
    first_digest = {}
    facts_by_group = {}
    walls_by_group = {}

    def one_pass(main, group):
        prefix = os.path.join(job["workdir"], f"out{group}")
        argv = workloads.cli_argv(name, job["seed"], group, job["inputs"], prefix)
        outputs = workloads.artifacts(name, prefix)
        for p in outputs:
            if os.path.exists(p):
                os.unlink(p)
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), speed.Sampler() as timing:
            try:
                rc = main(argv)
            except Exception as e:  # a crash is a failed pass, reported below
                rc = f"{type(e).__name__}: {e}"
        if rc != 0:
            result["attempted"] += 1
            result["failed"] += 1
            result["problems"].append(f"exit {rc}: {sink.getvalue()[-500:]}")
            return timing
        attempted, failed, problems, facts = workloads.check_pass(name, prefix)
        result["attempted"] += attempted
        result["failed"] += failed
        result["problems"] += problems
        facts_by_group[group] = facts
        digest = _digest(outputs)
        if first_digest.setdefault(group, digest) != digest:
            result["failed"] += 1
            result["problems"].append(f"pass seed {group}: artifacts differ from its first pass")
        return timing

    # every pass seed runs; untraced runs repeat one for the byte comparison,
    # which traced runs make against the traced passes
    min_passes = groups if job["trace"] else groups + 1
    start = time.perf_counter()
    k = 0
    while True:
        group = k % groups
        timing = one_pass(cli.main, group)
        result["raw_walls"].append(timing.wall_s)
        result["walls"].append(timing.scaled_s)
        walls_by_group.setdefault(group, []).append(timing.scaled_s)
        k += 1
        used = time.perf_counter() - start
        if ((k >= min_passes and used >= job["seconds"])
                or used + timing.elapsed_s > job["max_seconds"]):
            break
    result["wall_s"] = statistics.median(result["walls"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if job["trace"]:
        import spans

        expected = 1.5 * sum(result["raw_walls"][:groups])
        if time.perf_counter() - start + expected > job["max_seconds"]:
            raise SystemExit("no time left for the traced passes")
        untraced = sum(statistics.median(w) for w in walls_by_group.values())
        tracer = spans.Tracer()
        tracer.install({m: sys.modules[f"lmmlasso.{m}"]
                        for m in ("cli", "dataset", "em_engine", "selector", "simkit")})
        traced_main = tracer.wrap("cli", "main", cli.main)
        elapsed = scaled = 0.0
        try:
            for g in range(groups):
                timing = one_pass(traced_main, g)
                elapsed += timing.elapsed_s
                scaled += timing.scaled_s
        finally:
            tracer.uninstall()
        tracer.dump(job["spans_out"])
        result["layers"], result["trace"] = spans.reduce_spans(
            tracer.spans, elapsed, scaled / untraced - 1.0)

    result["facts"], problems = workloads.check_run(name, facts_by_group)
    result["failed"] += len(problems)
    result["problems"] += problems
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:])
    elif sys.argv[1] == "passes":
        passes(sys.argv[2], sys.argv[3])
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
