"""Spans around the package's layer boundaries, and their reduction.

The tracer replaces module bindings with wrappers that record one span per
call: name, start, end, the enclosing span, and a few counts read from the
arguments or the result.  Spans stay in memory until the pass ends.

The package imports functions with ``from .x import y``, so a function has
one binding per importing module; each binding a layer is called through
is wrapped separately (patching only ``em_engine.fit_em`` would miss
``cli.fit_em``).  Layers are the package modules; ``cli`` includes the
``fileio`` writers.
"""

from __future__ import annotations

import math
import os
import time
import weakref

# (module, attribute, layer, span name, note); notes are read after the
# span ends, so their cost falls on the caller's self time
BINDINGS = (
    ("cli", "ingest_long_csv", "dataset", "ingest", "file_bytes"),
    ("cli", "standardize", "dataset", "standardize", None),
    ("em_engine", "solve_pls", "penalized_ls", "solve_pls", "pls"),
    ("em_engine", "e_step", "em_engine", "e_step", None),
    ("em_engine", "m_step", "em_engine", "m_step", None),
    ("em_engine", "observed_loglik", "em_engine", "loglik", None),
    ("selector", "observed_loglik", "em_engine", "loglik", None),
    ("cli", "fit_em", "em_engine", "fit_em", "fit"),
    ("selector", "fit_em", "em_engine", "fit_em", "fit"),
    ("cli", "select", "selector", "select", None),
    ("simkit", "select", "selector", "select", None),
    ("selector", "sweep", "selector", "sweep", None),
    ("simkit", "sweep", "selector", "sweep", None),
    ("selector", "refit_support", "selector", "refit_support", None),
    ("cli", "run_monte_carlo", "simkit", "run_monte_carlo", None),
    ("simkit", "generate_scenario", "simkit", "generate", None),
    ("cli", "write_csv", "cli", "write", "file_bytes"),
    ("cli", "write_json", "cli", "write", "file_bytes"),
    ("simkit", "write_csv", "cli", "write", "file_bytes"),
)
LAYERS = ("dataset", "penalized_ls", "em_engine", "selector", "simkit", "cli")


def _note(kind, args, kwargs, out):
    if kind == "pls":
        penalty = args[2] if len(args) > 2 else kwargs["penalty"]
        return (out.iterations, out.converged, penalty.lam == 0.0)
    if kind == "fit":
        return (out.iterations, out.converged)
    if kind == "file_bytes":
        return os.path.getsize(args[0] if args else kwargs["path"])
    return None


class Tracer:
    """In-memory span recorder.

    spans[i] is (layer, name, start, end, parent index or -1, note).
    """

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._undo = []

    def wrap(self, layer: str, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, name, t0, t1, parent, None)
            if note:  # a call that raised keeps its span, without a note
                spans[idx] = (layer, name, t0, t1, parent, _note(note, args, kwargs, out))
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: dict):
        """Wrap every binding in BINDINGS; package maps module names to modules."""
        for mod, attr, layer, name, note in BINDINGS:
            module = package[mod]
            if attr not in vars(module):
                raise RuntimeError(f"trace binding {mod}.{attr} no longer exists")
            self._patch(module, attr, self.wrap(layer, name, getattr(module, attr), note))

        cls = package["dataset"].LongitudinalDataset
        self._patch(cls, "select_columns",
                    self.wrap("dataset", "select_columns", cls.select_columns))
        # first access computes the cached moments; later ones read the cache
        getter = cls.block_moments.fget
        first = self.wrap("dataset", "block_moments_first", getter)
        again = self.wrap("dataset", "block_moments", getter)
        seen = weakref.WeakSet()

        def block_moments(ds):
            if ds in seen:
                return again(ds)
            seen.add(ds)
            return first(ds)

        self._patch(cls, "block_moments", property(block_moments, doc=cls.block_moments.__doc__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write("index\tparent\tlayer\tname\tstart_s\tend_s\tnote\n")
            for i, (layer, name, t0, t1, parent, info) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{layer}\t{name}\t{t0!r}\t{t1!r}\t{info}\n")


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it.

    Below 20 samples no percentile qualifies and the maximum (100) is used.
    """
    return 100 if n < 20 else math.floor(100.0 * (1.0 - 10.0 / n))


def quantile(values, pct: float) -> float:
    """Linear-interpolation percentile of values (0 when empty)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _ratio(num, den):
    return num / den if den else 0.0


def reduce_spans(spans, traced_wall_s: float, overhead_frac: float):
    """Reduce the traced passes to per-layer metrics.

    traced_wall_s is the passes' unscaled wall time, speed sampling
    included, which the layers' self times add up to; overhead_frac
    compares speed-scaled traced and untraced times.  Returns (metrics,
    extras): metrics maps name -> (value, unit); extras holds the sample
    counts and percentiles behind the tails and the numbers the self-time
    check uses.
    """
    n = len(spans)
    child = [0.0] * n
    for layer, name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = [s[3] - s[2] - child[i] for i, s in enumerate(spans)]

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[1], []).append(i)

    def pick(name, parent_name=None):
        idx = by_name.get(name, [])
        if parent_name is None:
            return idx
        return [i for i in idx if spans[i][4] >= 0 and spans[spans[i][4]][1] == parent_name]

    def incl(idx):
        return sum(spans[i][3] - spans[i][2] for i in idx)

    def selfsum(idx):
        return sum(self_s[i] for i in idx)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer_self[s[0]] += self_s[i]

    m = {}
    # dataset
    ingest = pick("ingest")
    ingest_s = incl(ingest)
    ingest_bytes = sum(spans[i][5] or 0 for i in ingest)
    sel_cols = pick("select_columns")
    m["dataset.ingest_s"] = (ingest_s, "s")
    m["dataset.ingest_mb_per_s"] = (_ratio(ingest_bytes / 1e6, ingest_s), "MB/s")
    m["dataset.standardize_s"] = (incl(pick("standardize")), "s")
    m["dataset.block_moments_s"] = (incl(pick("block_moments_first")), "s")
    m["dataset.select_columns_calls"] = (len(sel_cols), "count")
    m["dataset.select_columns_s"] = (incl(sel_cols), "s")

    # penalized_ls
    pls = pick("solve_pls")
    lam0 = [i for i in pls if spans[i][5][2]]
    sweeps = sum(spans[i][5][0] for i in pls)
    pls_self = selfsum(pls)
    m["penalized_ls.calls"] = (len(pls), "count")
    m["penalized_ls.self_s"] = (pls_self, "s")
    m["penalized_ls.sweeps"] = (sweeps, "count")
    m["penalized_ls.us_per_sweep"] = (1e6 * _ratio(pls_self, sweeps), "us")
    m["penalized_ls.budget_hits"] = (sum(not spans[i][5][1] for i in pls), "count")
    m["penalized_ls.lam0_self_s"] = (selfsum(lam0), "s")
    m["penalized_ls.lam0_sweeps"] = (sum(spans[i][5][0] for i in lam0), "count")

    # em_engine
    fits = pick("fit_em")
    grid_fits = pick("fit_em", "sweep")
    refit_fits = pick("fit_em", "refit_support")
    fit_ms = [1e3 * (spans[i][3] - spans[i][2]) for i in fits]
    fit_tail = tail_percentile(len(fit_ms))
    loglik = pick("loglik")
    m["em_engine.fits"] = (len(fits), "count")
    m["em_engine.iters"] = (sum(spans[i][5][0] for i in fits), "count")
    m["em_engine.iters_per_grid_fit"] = (
        _ratio(sum(spans[i][5][0] for i in grid_fits), len(grid_fits)), "count")
    m["em_engine.iters_per_refit"] = (
        _ratio(sum(spans[i][5][0] for i in refit_fits), len(refit_fits)), "count")
    m["em_engine.not_converged"] = (sum(not spans[i][5][1] for i in fits), "count")
    m["em_engine.e_step_self_s"] = (selfsum(pick("e_step")), "s")
    m["em_engine.m_step_self_s"] = (selfsum(pick("m_step")), "s")
    m["em_engine.loglik_calls"] = (len(loglik), "count")
    m["em_engine.loglik_self_s"] = (selfsum(loglik), "s")
    m["em_engine.fit_self_s"] = (selfsum(fits), "s")
    m["em_engine.fit_p50_ms"] = (quantile(fit_ms, 50), "ms")
    m["em_engine.fit_tail_ms"] = (quantile(fit_ms, fit_tail), "ms")

    # selector
    sweep_s = incl(pick("sweep"))
    refits = pick("refit_support")
    refit_s = incl(refits)
    m["selector.sweep_s"] = (sweep_s, "s")
    m["selector.refit_calls"] = (len(refits), "count")
    m["selector.refit_s"] = (refit_s, "s")
    m["selector.refit_share"] = (_ratio(refit_s, sweep_s), "ratio")
    m["selector.refit_hit_ratio"] = (
        1.0 - _ratio(len(refits), len(grid_fits)) if grid_fits else 0.0, "ratio")
    m["selector.score_s"] = (incl(pick("loglik", "sweep")), "s")

    # simkit: a replicate runs from its generate call to the end of its sweep
    gens = pick("generate", "run_monte_carlo")
    sim_sweeps = pick("sweep", "run_monte_carlo")
    reps = [spans[s][3] - spans[g][2] for g, s in zip(gens, sim_sweeps)]
    rep_tail = tail_percentile(len(reps))
    m["simkit.generate_s"] = (incl(gens), "s")
    m["simkit.replicate_p50_s"] = (quantile(reps, 50), "s")
    m["simkit.replicate_tail_s"] = (quantile(reps, rep_tail), "s")

    # cli
    writes = pick("write")
    m["cli.self_s"] = (layer_self["cli"], "s")
    m["cli.write_s"] = (incl(writes), "s")
    m["cli.write_bytes"] = (sum(spans[i][5] or 0 for i in writes), "B")

    # the ROADMAP's "where the time goes" comparisons
    m["penalized_ls.share_of_sweep"] = (_ratio(pls_self, sweep_s), "ratio")
    m["dataset.ingest_per_fit"] = (
        _ratio(_ratio(ingest_s, len(ingest)), _ratio(incl(fits), len(fits))), "ratio")

    # penalized_ls.self_s and cli.self_s already are their layers' self times
    for layer in ("dataset", "em_engine", "selector", "simkit"):
        m[f"{layer}.layer_self_s"] = (layer_self[layer], "s")
    m["trace.spans"] = (n, "count")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    extras = {"fits": len(fits), "fit_tail_pct": fit_tail,
              "replicates": len(reps), "replicate_tail_pct": rep_tail,
              "traced_wall_s": traced_wall_s,
              "self_sum_s": sum(layer_self.values())}
    return m, extras
