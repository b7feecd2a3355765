"""Shared tuner machinery: the search space and the objective runner.

The configuration space follows §6.1: four tuned dimensions —
Containers per Node, Task Concurrency, the dominant pool fraction
(Cache Capacity for cache-heavy apps, Shuffle Capacity otherwise; the
minor pool is pinned at 0.1), and NewRatio. The objective is the
application runtime; an aborted run scores twice the worst runtime seen
so far so failing regions rank low during exploration (§6.1).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterSpec
from ..config import NEW_RATIO_MAX, MemoryConfig, check_dominant_pool, pool_config, pool_knobs
from ..simcluster.runtime import SimulatedRun, simulate
from ..workloads.base import WorkloadModel


@dataclass(frozen=True)
class Sample:
    """One observed probe of the configuration space."""

    config: MemoryConfig
    runtime_sec: float  # true runtime of the run
    objective: float  # penalized objective fed to the model
    aborted: bool
    failed_containers: int
    run: SimulatedRun


@dataclass
class TuningResult:
    """Outcome of one tuning session."""

    policy: str
    best_config: MemoryConfig
    best_runtime_sec: float
    samples: list[Sample]
    fit_seconds: float = 0.0
    probe_seconds: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.samples)

    @property
    def total_observation_sec(self) -> float:
        """Stress-testing cost: summed (simulated) runtimes of all probes."""
        return sum(s.runtime_sec for s in self.samples)


class ConfigSpace:
    """The §6.1 tuning space with a [0,1]^4 continuous encoding.

    Encoding order: (containers_per_node, task_concurrency,
    dominant_pool_fraction, new_ratio). Decoding clamps Task Concurrency
    to the per-container core budget, so any point of the unit cube maps
    to a *valid* configuration — what both BO's acquisition search and
    DDPG's continuous actions require.
    """

    FRAC_MIN, FRAC_MAX = 0.05, 0.9

    def __init__(self, cluster: ClusterSpec, dominant_pool: str):
        self.cluster = cluster
        self.dominant_pool = check_dominant_pool(dominant_pool)
        self.dim = 4

    def decode(self, x: np.ndarray) -> MemoryConfig:
        """Map a unit-cube point to a valid MemoryConfig."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        n = int(round(1 + x[0] * (self.cluster.max_containers_per_node - 1)))
        p_max = self.cluster.max_task_concurrency(n)
        p = int(round(1 + x[1] * (self.cluster.cores_per_node - 1)))
        p = max(1, min(p, p_max))
        frac = float(self.FRAC_MIN + x[2] * (self.FRAC_MAX - self.FRAC_MIN))
        nr = int(round(1 + x[3] * (NEW_RATIO_MAX - 1)))
        return pool_config(n, p, frac, nr, dominant_pool=self.dominant_pool)

    def encode(self, cfg: MemoryConfig) -> np.ndarray:
        """Inverse of :meth:`decode` (up to rounding)."""
        n, p, frac, nr = pool_knobs(cfg, dominant_pool=self.dominant_pool)
        return np.array(
            [
                (n - 1) / (self.cluster.max_containers_per_node - 1),
                (p - 1) / (self.cluster.cores_per_node - 1),
                (frac - self.FRAC_MIN) / (self.FRAC_MAX - self.FRAC_MIN),
                (nr - 1) / (NEW_RATIO_MAX - 1),
            ],
            dtype=float,
        ).clip(0.0, 1.0)

    def sample(self, rng: np.random.Generator, k: int) -> list[MemoryConfig]:
        """Uniform random configurations."""
        return [self.decode(rng.random(self.dim)) for _ in range(k)]


@dataclass
class Objective:
    """Runs configurations through the cluster simulator and scores them.

    The objective is the runtime, with the §6.1 abort rule: an aborted
    run scores twice the worst runtime observed so far (its own
    included).
    """

    model: WorkloadModel
    cluster: ClusterSpec
    seed: int = 0
    history: list[Sample] = field(default_factory=list)

    def __call__(self, cfg: MemoryConfig) -> Sample:
        run = simulate(self.model, cfg, self.cluster, seed=self.seed)
        obj = run.runtime_sec
        if run.aborted:
            # §6.1: "the objective value for the sample is set to twice
            # the worst runtime obtained on the samples explored so far"
            # — worst *runtime*, not worst penalized objective, so
            # repeated aborts do not compound geometrically.
            worst = max((s.runtime_sec for s in self.history), default=run.runtime_sec)
            obj = 2.0 * max(worst, run.runtime_sec)
        sample = Sample(
            config=cfg,
            runtime_sec=run.runtime_sec,
            objective=obj,
            aborted=run.aborted,
            failed_containers=run.failed_containers,
            run=run,
        )
        self.history.append(sample)
        return sample

    def best(self) -> Sample:
        """Best non-aborted sample so far (falls back to best objective)."""
        clean = [s for s in self.history if not s.aborted]
        pool = clean if clean else self.history
        return min(pool, key=lambda s: s.objective)
