"""Memory configuration knobs (paper Table 1) and the tuning search space.

A :class:`MemoryConfig` carries the five knobs every policy tunes
(SurvivorRatio stays at the JVM default of 8 throughout, as in §6.1):

* ``containers_per_node`` — resource-manager level (Figure 1),
* ``task_concurrency`` — slots per container,
* ``cache_capacity`` / ``shuffle_capacity`` — fractions of heap handed to
  Spark's unified memory pool (their sum is the unified-pool fraction),
* ``new_ratio`` — JVM Old:Young capacity ratio (ParallelGC).

Also defined here: the Amazon-EMR ``MaxResourceAllocation`` default policy
(Table 4), :func:`pool_config`, the one mapping from the four tuned §6.1
knobs to a ``MemoryConfig`` (only the dominant one of Cache/Shuffle
varied, the minor pool pinned at 0.1; :func:`pool_fields` also takes
arrays of knobs), and the discretized grid the
Exhaustive Search policy probes (§6.1: 4 values per knob).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .cluster import ClusterSpec

#: §6.1 — NewRatio is capped at 9 so Young keeps >=10% of heap.
NEW_RATIO_MIN = 1
NEW_RATIO_MAX = 9

#: §6.1 defaults / Table 4.
DEFAULT_SURVIVOR_RATIO = 8

#: Minor-pool capacity pinned by Exhaustive Search and BO (§6.1).
MINOR_POOL_CAPACITY = 0.1

#: Grid values for the dominant memory pool fraction and NewRatio (§6.1:
#: "discretizing the domain of each parameter into 4 values").
GRID_POOL_FRACTIONS = (0.2, 0.4, 0.6, 0.8)
GRID_NEW_RATIOS = (1, 3, 5, 7)
GRID_TASK_CONCURRENCY = (1, 2, 4, 8)


@dataclass(frozen=True)
class MemoryConfig:
    """One point of the configuration space (Table 1 knobs)."""

    containers_per_node: int
    task_concurrency: int
    cache_capacity: float
    shuffle_capacity: float
    new_ratio: int
    survivor_ratio: int = DEFAULT_SURVIVOR_RATIO

    def __post_init__(self) -> None:
        if self.containers_per_node < 1:
            raise ValueError("containers_per_node must be >= 1")
        if self.task_concurrency < 1:
            raise ValueError("task_concurrency must be >= 1")
        for name in ("cache_capacity", "shuffle_capacity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.cache_capacity + self.shuffle_capacity > 1.0 + 1e-9:
            raise ValueError("unified pool (cache+shuffle) cannot exceed heap")
        if not NEW_RATIO_MIN <= self.new_ratio <= NEW_RATIO_MAX:
            raise ValueError(f"new_ratio must be in [1, 9], got {self.new_ratio}")
        if self.survivor_ratio < 3:
            raise ValueError("survivor_ratio must be >= 3 (Eden needs SR-2 > 0)")

    def heap_mb(self, cluster: ClusterSpec) -> float:
        """Heap per container when this config runs on ``cluster``."""
        return float(cluster.container_heap_mb(self.containers_per_node))

    def with_(self, **kw) -> "MemoryConfig":
        """Functional update."""
        return replace(self, **kw)

    def as_row(self) -> dict:
        """Row used by the experiment tables (Table 8 column order)."""
        return {
            "containers_per_node": self.containers_per_node,
            "task_concurrency": self.task_concurrency,
            "cache_capacity": round(self.cache_capacity, 2),
            "shuffle_capacity": round(self.shuffle_capacity, 2),
            "new_ratio": self.new_ratio,
        }


def max_resource_allocation(cluster: ClusterSpec) -> MemoryConfig:
    """Amazon EMR's MaxResourceAllocation + framework defaults (Table 4).

    One fat container per node with all the heap; Task Concurrency 2;
    unified pool fraction 0.6 (Spark's ``spark.memory.fraction`` default),
    which we split as cache 0.4 / shuffle 0.2 mirroring Spark's storage
    share; NewRatio 2, SurvivorRatio 8 (ParallelGC defaults).
    """
    return MemoryConfig(
        containers_per_node=1,
        task_concurrency=2,
        cache_capacity=0.4,
        shuffle_capacity=0.2,
        new_ratio=2,
    )


def unified_pool_fraction(cfg: MemoryConfig) -> float:
    """Spark's unified memory pool = Cache Capacity + Shuffle Capacity (§6.1)."""
    return cfg.cache_capacity + cfg.shuffle_capacity


def check_dominant_pool(dominant_pool: str) -> str:
    """``dominant_pool`` itself, if it is ``"cache"`` or ``"shuffle"``."""
    if dominant_pool not in ("cache", "shuffle"):
        raise ValueError(f"dominant_pool must be cache|shuffle, got {dominant_pool}")
    return dominant_pool


def pool_fraction(frac: float) -> float:
    """A dominant-pool fraction as the §6.1 space keeps it: rounded to 2
    decimals by Python's ``round`` (``np.round`` scales by 100 first, and
    can round a value the other way)."""
    return round(frac, 2)


def pool_fractions(frac: np.ndarray) -> np.ndarray:
    """:func:`pool_fraction` of each of an array of fractions in [0, 1].

    ``np.round`` rounds ``100·frac`` after one rounding of the product,
    so it agrees with ``round(·, 2)`` except where ``100·frac`` lies
    within that rounding error of a half; those few values go through
    :func:`pool_fraction` itself.
    """
    out = np.round(frac, 2)
    scaled = 100.0 * frac
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6
    if near_half.any():
        out[near_half] = [pool_fraction(f) for f in frac[near_half].tolist()]
    return out


def pool_fields(n, p, frac, nr, *, dominant_pool: str) -> tuple:
    """The ``MemoryConfig`` fields (n, p, cache, shuffle, NR, SR) of the
    §6.1 knobs (n, p, frac, NR), taken as given.

    ``frac`` goes to the dominant pool — Cache Capacity for cache-heavy
    apps (K-means, SVM, PageRank), Shuffle Capacity for shuffle-only apps
    (WordCount, SortByKey). A cache-heavy app keeps the minor shuffle pool
    pinned at :data:`MINOR_POOL_CAPACITY`; a shuffle-only app gets no
    cache pool. Each knob may be a scalar or an array with one value per
    config; the pinned fields stay scalars.
    """
    if check_dominant_pool(dominant_pool) == "cache":
        cache, shuffle = frac, MINOR_POOL_CAPACITY
    else:
        cache, shuffle = 0.0, frac
    return n, p, cache, shuffle, nr, DEFAULT_SURVIVOR_RATIO


def pool_config(n: int, p: int, frac: float, nr: int, *, dominant_pool: str) -> MemoryConfig:
    """The one point of the §6.1 space with knobs (n, p, frac, NR):
    :func:`pool_fields` of the :func:`pool_fraction` of ``frac``. Task
    Concurrency is taken as given: each caller applies its own cap."""
    return MemoryConfig(*pool_fields(n, p, pool_fraction(frac), nr, dominant_pool=dominant_pool))


def pool_knobs(cfg: MemoryConfig, *, dominant_pool: str) -> tuple[int, int, float, int]:
    """Inverse of :func:`pool_config`: (n, p, dominant pool fraction, NR)."""
    if check_dominant_pool(dominant_pool) == "cache":
        frac = cfg.cache_capacity
    else:
        frac = cfg.shuffle_capacity
    return cfg.containers_per_node, cfg.task_concurrency, frac, cfg.new_ratio


def grid_configs(cluster: ClusterSpec, *, dominant_pool: str) -> list[MemoryConfig]:
    """The Exhaustive Search grid (§6.1): :func:`pool_config` over the
    grid values, skipping Task Concurrency above cores/containers."""
    return [
        pool_config(n, p, frac, nr, dominant_pool=dominant_pool)
        for n, p, frac, nr in product(
            range(1, cluster.max_containers_per_node + 1),
            GRID_TASK_CONCURRENCY,
            GRID_POOL_FRACTIONS,
            GRID_NEW_RATIOS,
        )
        if p <= cluster.max_task_concurrency(n)
    ]
