"""The simulator-only workloads: ``tune-blackbox`` and ``tune-whitebox``.

Both run on the analytic cluster simulator, so every ``sim`` metric is a
deterministic function of the seed; only host time varies from run to
run.

tune-blackbox
    BO, GBO and DDPG sessions on the five Table 2 applications on
    Cluster A, plus BO/GBO with the Random-Forest surrogate on K-means
    and SVM (Figure 26). About half the sessions follow the Figure 16
    protocol (LHS bootstrap, train until the first clean run inside the
    top 5 percentile of the grid, capped at 60 BO/GBO and 80 DDPG
    probes), the rest the Table 8 CherryPick protocol (Table 7
    bootstrap, EI/plateau stop; DDPG stops after 10 probes).

tune-whitebox
    RelM on WorkloadModels whose memory, CPU and network fields are
    scaled by factors drawn from U(0.5, 1.5), around each of the six
    registered models, on Clusters A and B. A session profiles (with the
    §4.1 re-profiling), derives the statistics, recommends, simulates the
    recommendation, then runs the sequential exhaustive search over the
    grid as the reference optimum.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from repro import core, profiler, simcluster, workloads
from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.experiments import common
from repro.experiments import fig16_overheads as fig16
from repro.tuners import bo, ddpg, exhaustive, gbo, lhs
from repro.tuners.base import ConfigSpace, Objective
from repro.tuners.rf import RandomForest

from harness import Meter, Op, PassResult, clock, digest

#: tune-blackbox: session seeds per pass. Every slot runs the 30
#: Figure 16 / Table 8 sessions; the first RF_SLOTS slots add the 4
#: Figure 26 Random-Forest sessions, so a pass holds 128 sessions.
BLACKBOX_SLOTS = 4
RF_SLOTS = 2
#: Table 8 protocol: DDPG stops after 10 new samples.
CHERRYPICK_DDPG_STEPS = 10
#: Bootstrap probes of every BO/GBO session (LHS or Table 7).
BOOTSTRAP = 4

#: tune-whitebox: perturbed models per (registered model, cluster), so a
#: pass holds 6 x 2 x 20 = 240 sessions.
WHITEBOX_PERTURBATIONS = 20
PERTURB_LOW, PERTURB_HIGH = 0.5, 1.5
#: WorkloadModel fields the whitebox workload perturbs.
MEMORY_FIELDS = ("code_mb", "cache_mb", "shuffle_task_mb", "unmanaged_task_mb")
CPU_FIELDS = ("cpu_sec_per_task", "cpu_cores_per_task")
NETWORK_FIELDS = ("net_task_mb",)

#: Repetitions of the repeatable part of set-up; the median is reported.
SETUP_REPEATS = 3
#: Sessions of the pass run once in set-up as warm-up.
WARMUP_SESSIONS = 12
#: tune-blackbox warms up on this session seed, which no ``--seed`` makes
#: (those are 1000 * seed + slot), so that set-up does the same work for
#: every ``--seed``: the stop points, and with them the sessions' lengths,
#: vary with the seed.
WARMUP_SESSION_SEED = 999
#: Set-ups per run (the run's own and fresh processes); the median is reported.
SETUP_RUNS = 3


def _row(cfg) -> tuple:
    return tuple(cfg.as_row().values())


def _unsafe(run) -> bool:
    return bool(run.aborted or run.failed_containers > 0)


# --------------------------------------------------------------------------
# tune-blackbox


@dataclass(frozen=True)
class BlackboxSpec:
    app: str
    policy: str  # BO | GBO | DDPG | RF-BO | RF-GBO
    protocol: str  # to-target | cherrypick
    seed: int

    @property
    def label(self) -> str:
        return f"{self.protocol}/{self.policy}/{self.app}/{self.seed}"


class TuneBlackbox:
    name = "tune-blackbox"
    op_kind = "session"
    setup_runs = SETUP_RUNS

    def __init__(self, seed: int):
        self.seed = seed
        self.session_seeds = [1000 * seed + j for j in range(BLACKBOX_SLOTS)]
        self.specs: list[BlackboxSpec] = []
        self.sweep_sec: dict[tuple[str, int], float] = {}
        self.best_sec: dict[tuple[str, int], float] = {}

    # -- set-up ------------------------------------------------------------
    def setup(self) -> dict[str, float]:
        suite = workloads.SUITE
        for j, s in enumerate(self.session_seeds):
            for app in suite:
                for protocol in ("to-target", "cherrypick"):
                    for policy in ("BO", "GBO", "DDPG"):
                        self.specs.append(BlackboxSpec(app, policy, protocol, s))
            if j < RF_SLOTS:
                for app in ("K-means", "SVM"):
                    for policy in ("RF-BO", "RF-GBO"):
                        self.specs.append(BlackboxSpec(app, policy, "to-target", s))

        fills = []
        for _ in range(SETUP_REPEATS):
            common.profiled_stats.cache_clear()
            common.grid_runtimes.cache_clear()
            t0 = clock()
            self._fill_caches()
            fills.append(clock() - t0)
        t0 = clock()
        for spec in self.specs[:WARMUP_SESSIONS]:
            self._session(replace(spec, seed=WARMUP_SESSION_SEED))
        return {"caches_s": float(np.median(fills)), "warmup_s": clock() - t0}

    def _fill_caches(self) -> None:
        """Profiles, grid sweeps and exhaustive optima the sessions read."""
        for s in self.session_seeds:
            for app in workloads.SUITE:
                common.profiled_stats(app, "A", s)
                self.sweep_sec[app, s] = float(sum(common.grid_runtimes(app, "A", s)))
                common.top5_threshold(app, "A", s)
                ex = exhaustive.exhaustive_search(
                    Objective(workloads.workload_model(app), CLUSTER_A, seed=s),
                    dominant_pool=workloads.dominant_pool(app),
                )
                self.best_sec[app, s] = ex.best_runtime_sec

    # -- one pass ------------------------------------------------------------
    def _session(self, spec: BlackboxSpec):
        """One tuning session, exactly as the Figure 16/26 and Table 8 jobs run it."""
        s, app = spec.seed, spec.app
        model = workloads.workload_model(app)
        space = ConfigSpace(CLUSTER_A, workloads.dominant_pool(app))
        stats = common.profiled_stats(app, "A", s)
        objective = Objective(model, CLUSTER_A, seed=s)
        if spec.protocol == "cherrypick":
            if spec.policy == "DDPG":
                res, _ = ddpg.ddpg_tune(
                    objective, space, stats, common.default_config(app), seed=s,
                    max_steps=CHERRYPICK_DDPG_STEPS,
                )
                return res
            boot = lhs.paper_table7_samples(space)
            if spec.policy == "BO":
                return bo.bayesian_optimize(objective, space, seed=s, bootstrap=boot)
            return gbo.guided_bayesian_optimize(objective, space, stats, seed=s, bootstrap=boot)

        thr = common.top5_threshold(app, "A", s)
        rng = np.random.default_rng(s)
        if spec.policy == "DDPG":
            res, _ = ddpg.ddpg_tune(
                objective, space, stats, common.default_config(app), seed=s,
                max_steps=fig16.DDPG_MAX_STEPS, stop_runtime_sec=thr,
            )
            return res
        fit = None
        if spec.policy.startswith("RF-"):
            fit = lambda x, y: RandomForest.fit(x, y, seed=s)  # noqa: E731
        kw = dict(
            seed=s, bootstrap=lhs.lhs_configs(space, rng), surrogate_fit=fit,
            max_iters=fig16.MAX_ITERS, target_runtime_sec=thr,
        )
        if spec.policy.endswith("GBO"):
            return gbo.guided_bayesian_optimize(objective, space, stats, **kw)
        return bo.bayesian_optimize(objective, space, **kw)

    def run_pass(self, traced: bool, meter: Meter) -> PassResult:
        return PassResult(ops=[meter.op(spec.label, lambda spec=spec: self._session(spec))
                               for spec in self.specs])

    # -- outside the timed span ------------------------------------------------
    def finish(self, result: PassResult) -> None:
        """Digest the simulated outcomes and check them."""
        rows = []
        for spec, op in zip(self.specs, result.ops):
            if op.error:
                rows.append((op.label, op.error))
                continue
            res = op.outcome
            rows.append((
                op.label, res.iterations, _row(res.best_config), res.best_runtime_sec,
                res.total_observation_sec,
                tuple((_row(x.config), x.runtime_sec, x.aborted, x.failed_containers)
                      for x in res.samples),
            ))
            problem = self._check(spec, res)
            if problem:
                op.failed = True
                op.error = problem
        result.digest = digest(rows)

    def _check(self, spec: BlackboxSpec, res) -> str | None:
        model = workloads.workload_model(spec.app)
        for x in res.samples:
            again = simcluster.simulate(model, x.config, CLUSTER_A, seed=spec.seed)
            if again.runtime_sec != x.runtime_sec or again.aborted != x.aborted:
                return f"probe {_row(x.config)} does not replay"
        clean = [x for x in res.samples if not x.aborted] or res.samples
        if res.best_runtime_sec != min(clean, key=lambda x: x.objective).runtime_sec:
            return "best config is not the best observed probe"
        if spec.policy == "DDPG":
            steps = fig16.DDPG_MAX_STEPS if spec.protocol == "to-target" else CHERRYPICK_DDPG_STEPS
            cap = 1 + steps  # the profiled default, then one probe per step
        else:
            cap = BOOTSTRAP + (fig16.MAX_ITERS if spec.protocol == "to-target" else bo.DEFAULT_MAX_ITERS)
        if len(res.samples) > cap:
            return f"{len(res.samples)} probes exceed the cap of {cap}"
        if spec.protocol == "to-target" and len(res.samples) < cap:
            last = res.samples[-1]
            if (last.aborted or last.failed_containers
                    or last.runtime_sec > common.top5_threshold(spec.app, "A", spec.seed)):
                return "to-target session stopped before the cap without reaching the target"
        return None

    def sim_metrics(self, result: PassResult) -> dict[str, float]:
        target, picks = [], []
        for spec, op in zip(self.specs, result.ops):
            if op.error:
                continue
            res = op.outcome
            if spec.protocol == "to-target":
                target.append((100.0 * res.total_observation_sec / self.sweep_sec[spec.app, spec.seed],
                               res.iterations))
            else:
                run = simcluster.simulate(workloads.workload_model(spec.app), res.best_config,
                                          CLUSTER_A, seed=spec.seed)
                gap = 100.0 * (run.runtime_sec / self.best_sec[spec.app, spec.seed] - 1.0)
                picks.append((gap, _unsafe(run)))
        return {
            "train_sim_pct": float(np.mean([t[0] for t in target])) if target else 0.0,
            "probes_per_session": float(np.mean([t[1] for t in target])) if target else 0.0,
            "rec_gap_pct": float(np.mean([p[0] for p in picks])) if picks else 0.0,
            "unsafe_recs": float(sum(p[1] for p in picks)),
        }

    def expected_probes(self, result: PassResult) -> int:
        return sum(len(op.outcome.samples) for op in result.ops if not op.error)

    def steps(self, result: PassResult) -> list[tuple[Op, int]]:
        """A step is one adaptive iteration, Table 10's per-iteration cost:
        each session with its number of iterations. Session times swing
        with the seed-dependent stop points; the cost of an iteration much
        less."""
        out = []
        for spec, op in zip(self.specs, result.ops):
            if not op.error:
                seeded = 1 if spec.policy == "DDPG" else BOOTSTRAP  # probes before the first iteration
                out.append((op, len(op.outcome.samples) - seeded))
        return out

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# tune-whitebox


@dataclass(frozen=True)
class WhiteboxSpec:
    base: str
    cluster: str
    index: int
    seed: int
    model: object  # the perturbed WorkloadModel

    @property
    def label(self) -> str:
        return f"relm/{self.base}/{self.cluster}/{self.index}"


class TuneWhitebox:
    name = "tune-whitebox"
    op_kind = "session"
    setup_runs = SETUP_RUNS

    def __init__(self, seed: int):
        self.seed = seed
        self.specs: list[WhiteboxSpec] = []

    def _inputs(self) -> list[WhiteboxSpec]:
        rng = np.random.default_rng(self.seed)
        specs = []
        fields = MEMORY_FIELDS + CPU_FIELDS + NETWORK_FIELDS
        for k in range(WHITEBOX_PERTURBATIONS):
            for base in workloads.SUITE + ("TPC-H",):
                for cluster in ("A", "B"):
                    m = workloads.workload_model(base)
                    scale = rng.uniform(PERTURB_LOW, PERTURB_HIGH, len(fields))
                    model = m.with_(**{f: getattr(m, f) * float(x) for f, x in zip(fields, scale)})
                    specs.append(WhiteboxSpec(base, cluster, k, int(rng.integers(2**31)), model))
        return specs

    def setup(self) -> dict[str, float]:
        gens = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            self.specs = self._inputs()
            gens.append(clock() - t0)
        t0 = clock()
        for spec in self.specs[:WARMUP_SESSIONS]:
            self._session(spec)
        return {"inputs_s": float(np.median(gens)), "warmup_s": clock() - t0}

    def _session(self, spec: WhiteboxSpec):
        cluster = CLUSTER_A if spec.cluster == "A" else CLUSTER_B
        model, s = spec.model, spec.seed
        dflt = common.default_config(spec.base, cluster)
        profile, runs = profiler.profile_with_full_gc(model, dflt, cluster, seed=s)
        stats = profiler.generate_stats(profile)
        cfg, _, _ = core.relm_recommend(stats, cluster)
        rec = simcluster.simulate(model, cfg, cluster, seed=s)
        pool = "cache" if model.cache_mb > 0 else "shuffle"
        ex = exhaustive.exhaustive_search(Objective(model, cluster, seed=s), dominant_pool=pool)
        # Keep the optimum, not the sweep, so memory reflects the program.
        return runs, cfg, rec, (_row(ex.best_config), ex.best_runtime_sec, len(ex.samples))

    def run_pass(self, traced: bool, meter: Meter) -> PassResult:
        return PassResult(ops=[meter.op(spec.label, lambda spec=spec: self._session(spec))
                               for spec in self.specs])

    def finish(self, result: PassResult) -> None:
        rows = []
        for spec, op in zip(self.specs, result.ops):
            if op.error:
                rows.append((op.label, op.error))
                continue
            runs, cfg, rec, ex = op.outcome
            rows.append((
                op.label, runs, _row(cfg), rec.runtime_sec, rec.aborted, rec.failed_containers,
                *ex,
            ))
            cluster = CLUSTER_A if spec.cluster == "A" else CLUSTER_B
            if not (1 <= cfg.containers_per_node <= cluster.max_containers_per_node
                    and cfg.task_concurrency <= cluster.max_task_concurrency(cfg.containers_per_node)):
                op.failed, op.error = True, f"recommendation {_row(cfg)} is outside the cluster"
            again = simcluster.simulate(spec.model, cfg, cluster, seed=spec.seed)
            if again.runtime_sec != rec.runtime_sec:
                op.failed, op.error = True, "recommendation does not replay"
        result.digest = digest(rows)

    def sim_metrics(self, result: PassResult) -> dict[str, float]:
        done = [op.outcome for op in result.ops if not op.error]
        if not done:
            return {}
        return {
            "rec_gap_pct": float(np.mean([100.0 * (rec.runtime_sec / ex[1] - 1.0)
                                          for _, _, rec, ex in done])),
            "unsafe_recs": float(sum(_unsafe(rec) for _, _, rec, _ in done)),
            "profile_runs": float(np.mean([runs for runs, _, _, _ in done])),
        }

    def expected_probes(self, result: PassResult) -> int:
        return sum(op.outcome[3][2] for op in result.ops if not op.error)

    def steps(self, result: PassResult) -> list[tuple[Op, int]]:
        """A step is one whole session."""
        return [(op, 1) for op in result.ops]

    def close(self) -> None:
        pass
