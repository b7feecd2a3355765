"""Guiding white-box model Q (paper §5.2, Eq 8).

Given a candidate configuration ``x`` and the profiled statistics of a
*prior* run (any configuration), Q derives three metrics:

* ``q1`` — expected heap occupancy: flags both under-utilizing
  configurations (low) and unsafe ones (over 1);
* ``q2`` — long-term memory efficiency: demand over the available
  long-term storage min(Old, Cache Capacity); high values mean disk
  re-reads or Observation 5 GC thrash;
* ``q3`` — shuffle-pool efficiency vs ½·Eden (Observation 7): high
  values mean spill-triggered full-GC overheads.

:func:`q_array` evaluates Eq 8 over columns of ``MemoryConfig`` fields,
one value per configuration, so BO/GBO can score a whole candidate
sweep in one call; :func:`q_metrics` is its one-config form.
"""
from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec
from ..config import MemoryConfig
from ..profiler.stats import ProfileStats
from ..simcluster.jvm import eden_capacity, old_capacity

#: q values are clipped before scaling into [0, 1] — a wildly unsafe
#: configuration should rank "bad", not distort distances.
Q_CLIP = 4.0


def q_array(n, p, cache, shuffle, new_ratio, survivor_ratio,
            stats: ProfileStats, cluster: ClusterSpec) -> np.ndarray:
    """Eq 8 over ``MemoryConfig`` field columns: (k, 3) of (q1, q2, q3).

    Each field is an array with one value per configuration, or a scalar
    shared by all of them; ``n`` must be an array. Elementwise only, so
    every value equals the one-config arithmetic bit for bit.
    """
    m_h = cluster.container_heap_mb(n)
    old_mb = old_capacity(m_h, new_ratio)
    eden_mb = eden_capacity(m_h, new_ratio, survivor_ratio)

    # Modeled requirements (Eq 1 / Eq 2 as in the Initializer).
    if stats.cache_mb > 0 and stats.cache_hit_ratio > 0:
        m_c_req = m_h * min(stats.cache_mb / (stats.cache_hit_ratio * stats.heap_mb), 1.0)
    else:
        m_c_req = 0.0
    if stats.shuffle_task_mb > 0:
        m_s_req = stats.shuffle_task_mb / max(
            1e-6, 1.0 - stats.spill_fraction / stats.task_concurrency
        )
    else:
        m_s_req = 0.0

    # Configured capacities.
    m_c_x = cache * m_h
    m_s_x = shuffle * m_h / p  # per-task grant

    q1 = (
        stats.code_mb
        + np.minimum(m_c_x, m_c_req)
        + p * (stats.unmanaged_task_mb + np.minimum(m_s_x, m_s_req))
    ) / m_h

    long_term = stats.code_mb + m_c_req
    denom = np.where(m_c_x > 0, np.minimum(old_mb, m_c_x), old_mb)
    q2 = long_term / np.maximum(1.0, denom)

    q3 = p * np.minimum(m_s_x, m_s_req) / np.maximum(1.0, 0.5 * eden_mb)

    return np.stack([q1, q2, q3], axis=-1)


def q_metrics(cfg: MemoryConfig, stats: ProfileStats, cluster: ClusterSpec) -> tuple[float, float, float]:
    """Eq 8: (q1, q2, q3) for configuration ``cfg`` under ``stats``."""
    q = q_array(
        np.array([cfg.containers_per_node]), cfg.task_concurrency, cfg.cache_capacity,
        cfg.shuffle_capacity, cfg.new_ratio, cfg.survivor_ratio, stats, cluster,
    )[0]
    return float(q[0]), float(q[1]), float(q[2])


def scale_q(q: np.ndarray) -> np.ndarray:
    """q clipped to [0, Q_CLIP] and scaled by 1/Q_CLIP: the q inputs of
    GBO's surrogate and DDPG's state."""
    return np.clip(q, 0.0, Q_CLIP) / Q_CLIP


def q_features(cfg: MemoryConfig, stats: ProfileStats, cluster: ClusterSpec) -> np.ndarray:
    """:func:`scale_q` of :func:`q_metrics` for one configuration."""
    return scale_q(np.array(q_metrics(cfg, stats, cluster)))
