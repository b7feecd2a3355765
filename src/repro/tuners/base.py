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
from ..config import (
    NEW_RATIO_MAX,
    MemoryConfig,
    check_dominant_pool,
    pool_config,
    pool_fractions,
    pool_knobs,
)
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

    The ``*_rows`` methods work on knob rows: a (k, 4) float array of
    (n, p, frac, NR), one row per configuration, with the fraction
    already kept as :func:`~repro.config.pool_fraction` keeps it. Two
    rows are equal exactly when their configurations are, and
    :meth:`config` builds the ``MemoryConfig`` of a row.
    """

    FRAC_MIN, FRAC_MAX = 0.05, 0.9

    def __init__(self, cluster: ClusterSpec, dominant_pool: str):
        self.cluster = cluster
        self.dominant_pool = check_dominant_pool(dominant_pool)
        self.dim = 4

    def decode_rows(self, x: np.ndarray) -> np.ndarray:
        """Map unit-cube points (k, 4) to the knob rows of valid configs."""
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError("cannot decode a point with NaN coordinates")
        x = np.clip(x, 0.0, 1.0)
        n_max = self.cluster.max_containers_per_node
        n = np.rint(1 + x[:, 0] * (n_max - 1))
        p = np.rint(1 + x[:, 1] * (self.cluster.cores_per_node - 1))
        p_max = np.array([self.cluster.max_task_concurrency(i) for i in range(1, n_max + 1)])
        p = np.minimum(p, p_max[n.astype(int) - 1])
        frac = pool_fractions(self.FRAC_MIN + x[:, 2] * (self.FRAC_MAX - self.FRAC_MIN))
        nr = np.rint(1 + x[:, 3] * (NEW_RATIO_MAX - 1))
        return np.column_stack([n, p, frac, nr])

    def encode_rows(self, rows: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`decode_rows` (up to rounding)."""
        n, p, frac, nr = np.asarray(rows, dtype=float).T
        return np.column_stack([
            (n - 1) / (self.cluster.max_containers_per_node - 1),
            (p - 1) / (self.cluster.cores_per_node - 1),
            (frac - self.FRAC_MIN) / (self.FRAC_MAX - self.FRAC_MIN),
            (nr - 1) / (NEW_RATIO_MAX - 1),
        ]).clip(0.0, 1.0)

    def sample_rows(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Knob rows of ``k`` uniform random configurations."""
        return self.decode_rows(rng.random((k, self.dim)))

    def knob_rows(self, configs: list[MemoryConfig]) -> np.ndarray:
        """Knob rows of configurations of this space."""
        rows = [pool_knobs(c, dominant_pool=self.dominant_pool) for c in configs]
        return np.array(rows, dtype=float).reshape(len(rows), self.dim)

    def config(self, row: np.ndarray) -> MemoryConfig:
        """The ``MemoryConfig`` of one knob row."""
        n, p, frac, nr = row.tolist()
        return pool_config(int(n), int(p), frac, int(nr), dominant_pool=self.dominant_pool)

    def decode(self, x: np.ndarray) -> MemoryConfig:
        """Map a unit-cube point to a valid MemoryConfig."""
        return self.config(self.decode_rows(np.reshape(x, (1, self.dim)))[0])

    def encode(self, cfg: MemoryConfig) -> np.ndarray:
        """Inverse of :meth:`decode` (up to rounding)."""
        return self.encode_rows(self.knob_rows([cfg]))[0]

    def sample(self, rng: np.random.Generator, k: int) -> list[MemoryConfig]:
        """Uniform random configurations."""
        return [self.config(row) for row in self.sample_rows(rng, k)]


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
