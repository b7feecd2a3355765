"""Guided Bayesian Optimization (paper §5.2).

GBO is BO whose surrogate sees, in addition to the raw knob encoding
``x``, the three white-box metrics ``q(x)`` of Eq 8 computed from a
profiled prior run. The q features separate expensive regions (unsafe
heap occupancy, Old-pool overflow, oversized shuffle grants) from
promising ones before a single adaptive sample lands there, which is
what makes the surrogate fit usable after far fewer probes (Figure 25).
"""
from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec
from ..config import MemoryConfig, pool_fields
from ..core.qmodel import q_array, scale_q
from ..profiler.stats import ProfileStats
from .base import ConfigSpace, Objective, TuningResult
from .bo import bayesian_optimize


def gbo_features(space: ConfigSpace, stats: ProfileStats, cluster: ClusterSpec):
    """Feature function over knob rows: x ⊕ scaled q(x), all in [0, 1]."""

    def feats(rows: np.ndarray) -> np.ndarray:
        fields = pool_fields(*rows.T, dominant_pool=space.dominant_pool)
        return np.concatenate(
            [space.encode_rows(rows), scale_q(q_array(*fields, stats, cluster))], axis=1
        )

    return feats


def guided_bayesian_optimize(
    objective: Objective,
    space: ConfigSpace,
    stats: ProfileStats,
    *,
    seed: int = 0,
    bootstrap: list[MemoryConfig] | None = None,
    surrogate_fit=None,
    max_iters: int = 30,
    target_runtime_sec: float | None = None,
) -> TuningResult:
    """Run GBO: the BO loop over the augmented feature space."""
    return bayesian_optimize(
        objective,
        space,
        seed=seed,
        feature_fn=gbo_features(space, stats, objective.cluster),
        bootstrap=bootstrap,
        surrogate_fit=surrogate_fit,
        max_iters=max_iters,
        target_runtime_sec=target_runtime_sec,
        policy_name="GBO",
    )
