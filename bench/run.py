"""lmmlasso benchmark: one CLI workload per run, checked and timed.

    python3 bench/run.py --workload sim-s3 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The run generates the workload's inputs
from --seed, then:

- with --trace 0, times the set-up (a fresh interpreter that imports
  ``lmmlasso.cli`` and builds the data, five times) and runs CLI passes
  in one child process for --seconds; it reports the end-to-end metrics
  ``wall_s`` (median pass), ``setup_s`` (median probe) and ``peak_rss_mb``,
  times scaled to a reference machine speed (see ``speed.py``);
- with --trace 1, runs the same untraced passes, then one pass per pass
  seed with a span around every call into each layer, and reports the
  per-layer metrics (see ``spans.py``), including the tracing overhead.

Every pass's artifacts are checked, and a repeated pass must write the
same bytes as its first run.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
the environment, the inputs and a readable report.  The spans of a traced
run are written to ``.bench_out/<workload>.spans.tsv``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
# every child runs single-threaded, so no run uses more threads than nproc
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _git_commit():
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over the package sources, which identifies the code outside git too."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "lmmlasso")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _cache_sizes():
    out = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            res = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=10)
            out[level.lower()] = int(res.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            out[level.lower()] = None
    return out


def environment(blas_threads):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads,
        "thread_env": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "caches": _cache_sizes(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    return env


def _time_left(t_start):
    return RUN_LIMIT_S - (time.monotonic() - t_start)


def measure_setup(name, seed, paths, t_start):
    """Wall times of fresh interpreters that import the CLI and build the
    data, and the speed factor measured around them."""
    cmd = [sys.executable, WORKER, "setup", SRC, name, str(seed), *paths]
    log = speed.SpeedLog()
    walls = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_child_env(), check=True, timeout=_time_left(t_start))
        walls.append(time.perf_counter() - t0)
        log.mark()
    return walls, log.factor()


def run_passes(job, job_path, t_start):
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, WORKER, "passes", SRC, job_path], env=_child_env(),
                   check=True, timeout=_time_left(t_start))
    with open(job["result"]) as fh:
        return json.load(fh)


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_trace(name, layers, extras):
    print("per-layer metrics (traced pass):")
    for key, (value, unit) in layers.items():
        print(f"  {key} = {_fmt(value)} {unit}")
    print(f"  em_engine.fit_tail_ms is p{extras['fit_tail_pct']} of {extras['fits']} fits; "
          f"simkit.replicate_tail_s is p{extras['replicate_tail_pct']} of "
          f"{extras['replicates']} replicates (p100 = maximum, below 20 samples)")
    print(f"  traced passes took {extras['traced_wall_s']:.4f} s (unscaled); "
          f"layer self times sum to {extras['self_sum_s']:.4f} s")
    if layers["dataset.ingest_s"][0]:
        print("  dataset.ingest_mb_per_s is computed: input file bytes / ingest_s")
    print("ROADMAP 'where the time goes' claims, as measured here:")
    if name == "sim-s3":
        print(f"  solve_pls self time / sweep time = "
              f"{layers['penalized_ls.share_of_sweep'][0]:.1%} (claimed ~80%)")
        print(f"  refit time / sweep time = {layers['selector.refit_share'][0]:.1%} "
              f"(claimed ~45%)")
    elif name == "fit-50k":
        print(f"  ingest {layers['dataset.ingest_s'][0]:.3f} s vs one fit_em "
              f"{layers['em_engine.fit_p50_ms'][0] / 1e3:.3f} s (claimed 2.6 s vs 0.56 s)")
    else:
        print("  none apply to this workload")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "lmmlasso", "cli.py")):
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    name = args.workload
    work = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs = workloads.make_inputs(name, args.seed, work)
        if args.trace:
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            spans_out = os.path.join(ROOT, ".bench_out", f"{name}.spans.tsv")
        else:
            spans_out = None
            setup_walls, setup_factor = measure_setup(name, args.seed, inputs["paths"], t_start)
        job = {"workload": name, "seed": args.seed, "inputs": inputs["paths"],
               "workdir": work, "seconds": args.seconds,
               "max_seconds": _time_left(t_start) - 5.0, "trace": bool(args.trace),
               "result": os.path.join(work, "result.json"), "spans_out": spans_out}
        res = run_passes(job, os.path.join(work, "job.json"), t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(work))

    failed, attempted = res["failed"], res["attempted"]
    problems = res["problems"]
    walls = res["walls"]
    print(f"workload {name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(environment(res["blas_threads"]), sort_keys=True))
    print(f"input seed={inputs['seed']} rows={inputs['rows']} bytes={inputs['bytes']}")
    print(f"passes {len(walls)} untraced; unscaled walls_s="
          f"{[round(w, 4) for w in res['raw_walls']]}")
    print(f"speed-scaled walls_s: {[round(w, 4) for w in walls]}")
    print(f"output facts: {json.dumps(res['facts'], sort_keys=True)}")
    print(f"fail_frac = {failed}/{attempted} {workloads.OPERATIONS[name]} over all passes")
    for p in problems:
        print(f"FAILED CHECK: {p}")

    if args.trace:
        layers = res["layers"]
        failed_reps = res["facts"]["failed_replicates"] if name == "sim-s3" else 0
        layers["simkit.failed_replicates"] = (failed_reps, "count")
        extras = res["trace"]
        overhead = layers["trace.overhead_frac"][0]
        gap = abs(extras["self_sum_s"] / extras["traced_wall_s"] - 1.0)
        if gap > max(overhead, 1e-3):
            failed += 1
            print(f"FAILED CHECK: layer self times miss the traced wall by {gap:.2%}")
        report_trace(name, layers, extras)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        print(f"setup_s probes, unscaled: {[round(w, 4) for w in setup_walls]}; "
              f"speed factor {setup_factor:.4f}")
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup_walls) * setup_factor, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
