"""Which program functions the traced run wraps, and the per-layer
metrics computed from their spans.

Only modules the workload has already imported are wrapped, so tracing
never adds an import. Unless a name says otherwise, ``.ms`` is the total
per pass, ``.us`` the mean per call and ``.calls`` the count per pass.
"""
from __future__ import annotations

import sys

import numpy as np

from tracer import Instrumentation, SpanFrame

BO = "tuners.bo"
GP_FIT = "tuners.gp.fit"
RF_FIT = "tuners.rf.fit"
RF_PREDICT = "tuners.rf.predict"
EI = "tuners.ei"
OBJECTIVE = "tuners.objective"
DECODE = "tuners.configspace.decode"
SAMPLE = "tuners.configspace.sample"
GRID = "config.grid_configs"
PWFG = "profiler.profile_with_full_gc"

SYNTH_GENERATORS = (
    "lineitem", "orders", "part", "customer", "random_text", "clustered_points",
    "labeled_examples", "graph_edges", "uniform_keys",
)


def _rows(args, kwargs, result) -> float:
    return float(len(result))


def instrument(inst: Instrumentation) -> None:
    """Register every wrapper; modules not yet imported are skipped."""

    def mod(name):
        return sys.modules.get(name)

    if m := mod("repro.tuners.bo"):
        inst.function(m, "bayesian_optimize", BO)
    if m := mod("repro.tuners.gp"):
        inst.method(m.GaussianProcess, "fit", GP_FIT)
        inst.function(m, "expected_improvement", EI, _rows)
    if m := mod("repro.tuners.rf"):
        inst.method(m.RandomForest, "fit", RF_FIT)
        inst.method(m.RandomForest, "predict", RF_PREDICT)
    if m := mod("repro.tuners.ddpg"):
        inst.method(m.DDPGAgent, "train_step", "tuners.ddpg.train_step")
    if m := mod("repro.tuners.base"):
        inst.method(m.Objective, "__call__", OBJECTIVE, lambda a, k, r: float(r.aborted))
        inst.method(m.ConfigSpace, "decode", DECODE)
        inst.method(m.ConfigSpace, "encode", "tuners.configspace.encode")
        inst.method(m.ConfigSpace, "sample", SAMPLE, _rows)
    if m := mod("repro.tuners.exhaustive"):
        inst.function(m, "exhaustive_search", "tuners.exhaustive")
    if m := mod("repro.config"):
        inst.function(m, "grid_configs", GRID, _rows)
    if m := mod("repro.core.qmodel"):
        inst.function(m, "q_metrics", "core.q_metrics")
    if m := mod("repro.core.relm"):
        inst.function(m, "relm_recommend", "core.relm_recommend")
    if m := mod("repro.profiler.stats"):
        inst.function(m, "profile_with_full_gc", PWFG, lambda a, k, r: float(r[1]))
        inst.function(m, "generate_stats", "profiler.generate_stats")
    if m := mod("repro.simcluster.runtime"):
        inst.function(m, "simulate", "simcluster.simulate")
    if m := mod("repro.simcluster.memory"):
        inst.function(m, "layout", "simcluster.layout")
    if m := mod("repro.simcluster.gc_model"):
        inst.function(m, "gc_overhead", "simcluster.gc_overhead")
    if m := mod("repro.simcluster.profile_gen"):
        inst.function(m, "profile_app", "simcluster.profile_app")
    if m := mod("repro.synth_data"):
        for fn in SYNTH_GENERATORS:
            inst.function(m, fn, "synth_data")
    if m := mod("repro.oracle"):
        inst.function(m, "assert_equivalent", "oracle")


def _share(x: np.ndarray) -> float:
    return float(x.mean()) if len(x) else 0.0


def _bo_iterations(f: SpanFrame) -> np.ndarray:
    """Host seconds of each adaptive BO/GBO iteration: from one surrogate
    fit to the next, the last one to the end of the session."""
    fits = np.flatnonzero(f.under(GP_FIT, BO) | f.under(RF_FIT, BO))
    if not len(fits):
        return np.zeros(0)
    par = f.parent[fits]
    same = np.append(par[1:] == par[:-1], False)
    nxt = np.append(f.start[fits][1:], 0.0)
    return np.where(same, nxt, f.end[par]) - f.start[fits]


def pass_metrics(f: SpanFrame, check: SpanFrame | None) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``check``: its check phase)."""
    bo_iters = _bo_iterations(f)
    ei_bo = f.under(EI, BO)
    n_iter = int(ei_bo.sum())
    not_pipeline = f.under(GP_FIT, BO) | f.under(RF_FIT, BO) | ei_bo | f.under(OBJECTIVE, BO)
    bo_self = f.dur[f.mask(BO)].sum() - f.dur[not_pipeline].sum()
    generated = (f.value[f.under(SAMPLE, BO)].sum() + f.value[f.under(GRID, BO)].sum()
                 + f.under(DECODE, BO).sum())
    rf_parents = f.parent[f.mask(RF_PREDICT)]
    ei = f.mask(EI)
    gp_ei = ei & ~np.isin(np.arange(len(f)), rf_parents)
    return {
        "tuners.bo.self_ms_per_iter": float(1e3 * bo_self / n_iter) if n_iter else 0.0,
        "tuners.bo.iter_ms.p50": float(1e3 * np.percentile(bo_iters, 50)) if len(bo_iters) else 0.0,
        "tuners.bo.iter_ms.p99": float(1e3 * np.percentile(bo_iters, 99)) if len(bo_iters) else 0.0,
        "tuners.bo.candidates_scored": float(f.value[ei_bo].sum()),
        "tuners.bo.unique_ratio": float(f.value[ei_bo].sum() / generated) if generated else 0.0,
        "tuners.configspace.decode.calls": f.count(DECODE),
        "tuners.configspace.decode.us": f.mean_us(DECODE),
        "tuners.configspace.encode.calls": f.count("tuners.configspace.encode"),
        "tuners.gp.fit.ms": f.total_ms(GP_FIT),
        "tuners.gp.fit.calls": f.count(GP_FIT),
        "tuners.gp.ei.ms": float(1e3 * f.dur[gp_ei].sum()),
        "tuners.rf.fit.ms": f.total_ms(RF_FIT),
        "tuners.rf.predict.ms": f.total_ms(RF_PREDICT),
        "tuners.ddpg.train_step.ms": f.total_ms("tuners.ddpg.train_step"),
        "tuners.ddpg.train_step.calls": f.count("tuners.ddpg.train_step"),
        "tuners.objective.calls": f.count(OBJECTIVE),
        "tuners.exhaustive.ms": f.total_ms("tuners.exhaustive"),
        "core.q_metrics.calls": f.count("core.q_metrics"),
        "core.q_metrics.us": f.mean_us("core.q_metrics"),
        "core.relm_recommend.us": f.mean_us("core.relm_recommend"),
        "core.relm_recommend.calls": f.count("core.relm_recommend"),
        "profiler.profile_with_full_gc.ms": f.total_ms(PWFG),
        "profiler.generate_stats.ms": f.total_ms("profiler.generate_stats"),
        "profiler.reprofile_share": _share(f.value[f.mask(PWFG)] > 1),
        "simcluster.simulate.calls": f.count("simcluster.simulate"),
        "simcluster.simulate.self_us": f.mean_us("simcluster.simulate", self_time=True),
        "simcluster.layout.us": f.mean_us("simcluster.layout"),
        "simcluster.gc_overhead.us": f.mean_us("simcluster.gc_overhead"),
        "simcluster.profile_app.ms": f.total_ms("simcluster.profile_app"),
        "simcluster.aborted_share": _share(f.value[f.mask(OBJECTIVE)]),
        "synth_data.ms": f.total_ms("synth_data"),
        "oracle.ms": check.total_ms("oracle") if check is not None else 0.0,
        "trace.spans": float(len(f)),
    }
