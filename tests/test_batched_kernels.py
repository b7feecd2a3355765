"""The batched candidate kernels of BO/GBO equal their one-config
formulas exactly: knob-row decoding and encoding, the Eq 8 q kernel,
Random-Forest prediction and candidate dedupe. Each reference below is
the scalar formula the batched kernel replaced."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.config import (
    MINOR_POOL_CAPACITY,
    NEW_RATIO_MAX,
    MemoryConfig,
    grid_configs,
    max_resource_allocation,
    pool_fractions,
)
from repro.core.qmodel import Q_CLIP, q_array, q_metrics
from repro.experiments.common import profiled_stats
from repro.tuners.base import ConfigSpace
from repro.tuners.bo import unique_rows
from repro.tuners.gbo import gbo_features
from repro.tuners.rf import RandomForest

SPACES = [
    ConfigSpace(cluster, pool) for cluster in (CLUSTER_A, CLUSTER_B) for pool in ("cache", "shuffle")
]
IDS = [f"{s.cluster.name}-{s.dominant_pool}" for s in SPACES]
#: A cache-heavy and a shuffle-only app, so every Eq 8 branch is taken.
APPS = ("K-means", "SortByKey")

points = st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
    min_size=1, max_size=20,
).map(np.array)


# -- references: the one-config formulas ------------------------------------


def ref_knobs(space: ConfigSpace, x: np.ndarray) -> tuple[int, int, float, int]:
    """One point's (n, p, frac, NR), as ConfigSpace.decode computed them."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    n = int(round(1 + x[0] * (space.cluster.max_containers_per_node - 1)))
    p_max = space.cluster.max_task_concurrency(n)
    p = int(round(1 + x[1] * (space.cluster.cores_per_node - 1)))
    p = max(1, min(p, p_max))
    frac = round(float(space.FRAC_MIN + x[2] * (space.FRAC_MAX - space.FRAC_MIN)), 2)
    nr = int(round(1 + x[3] * (NEW_RATIO_MAX - 1)))
    return n, p, frac, nr


def ref_config(space: ConfigSpace, knobs) -> MemoryConfig:
    n, p, frac, nr = knobs
    if space.dominant_pool == "cache":
        return MemoryConfig(n, p, frac, MINOR_POOL_CAPACITY, nr)
    return MemoryConfig(n, p, 0.0, frac, nr)


def ref_encode(space: ConfigSpace, cfg: MemoryConfig) -> np.ndarray:
    frac = cfg.cache_capacity if space.dominant_pool == "cache" else cfg.shuffle_capacity
    return np.array([
        (cfg.containers_per_node - 1) / (space.cluster.max_containers_per_node - 1),
        (cfg.task_concurrency - 1) / (space.cluster.cores_per_node - 1),
        (frac - space.FRAC_MIN) / (space.FRAC_MAX - space.FRAC_MIN),
        (cfg.new_ratio - 1) / (NEW_RATIO_MAX - 1),
    ]).clip(0.0, 1.0)


def ref_q(cfg: MemoryConfig, stats, cluster) -> tuple[float, float, float]:
    """Eq 8 for one configuration."""
    m_h = float(int(cluster.node_heap_mb / cfg.containers_per_node))
    p = cfg.task_concurrency
    young = m_h / (cfg.new_ratio + 1)
    old = m_h * cfg.new_ratio / (cfg.new_ratio + 1)
    eden = young * (cfg.survivor_ratio - 2) / cfg.survivor_ratio
    if stats.cache_mb > 0 and stats.cache_hit_ratio > 0:
        m_c_req = m_h * min(stats.cache_mb / (stats.cache_hit_ratio * stats.heap_mb), 1.0)
    else:
        m_c_req = 0.0
    if stats.shuffle_task_mb > 0:
        m_s_req = stats.shuffle_task_mb / max(1e-6, 1.0 - stats.spill_fraction / stats.task_concurrency)
    else:
        m_s_req = 0.0
    m_c_x = cfg.cache_capacity * m_h
    m_s_x = cfg.shuffle_capacity * m_h / p
    q1 = (stats.code_mb + min(m_c_x, m_c_req) + p * (stats.unmanaged_task_mb + min(m_s_x, m_s_req))) / m_h
    denom = min(old, m_c_x) if m_c_x > 0 else old
    q2 = (stats.code_mb + m_c_req) / max(1.0, denom)
    q3 = p * min(m_s_x, m_s_req) / max(1.0, 0.5 * eden)
    return q1, q2, q3


def ref_tree_value(node, row: np.ndarray) -> float:
    """Walk one tree for one row."""
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


def columns(configs: list[MemoryConfig]) -> tuple[np.ndarray, ...]:
    return tuple(
        np.array([getattr(c, f) for c in configs])
        for f in ("containers_per_node", "task_concurrency", "cache_capacity",
                  "shuffle_capacity", "new_ratio", "survivor_ratio")
    )


@pytest.fixture(scope="module", params=[(app, c) for app in APPS for c in ("A", "B")],
                ids=lambda p: f"{p[0]}-{p[1]}")
def stats_cluster(request):
    app, name = request.param
    return profiled_stats(app, name, 0), CLUSTER_A if name == "A" else CLUSTER_B


# -- knob rows ---------------------------------------------------------------


@pytest.mark.parametrize("space", SPACES, ids=IDS)
class TestKnobRows:
    @settings(max_examples=200, deadline=None)
    @given(x=points)
    def test_decode_rows_equal_per_point_decode(self, space, x):
        rows = space.decode_rows(x)
        expected = [ref_knobs(space, xi) for xi in x]
        assert rows.tolist() == [list(map(float, k)) for k in expected]
        assert [space.config(r) for r in rows] == [ref_config(space, k) for k in expected]
        assert [space.decode(xi) for xi in x] == [ref_config(space, k) for k in expected]

    @settings(max_examples=200, deadline=None)
    @given(x=points)
    def test_encode_rows_equal_per_config_encode(self, space, x):
        configs = [ref_config(space, ref_knobs(space, xi)) for xi in x]
        expected = np.array([ref_encode(space, c) for c in configs])
        assert np.array_equal(space.encode_rows(space.knob_rows(configs)), expected)
        assert np.array_equal(np.array([space.encode(c) for c in configs]), expected)

    def test_grid_rows_round_trip(self, space):
        grid = grid_configs(space.cluster, dominant_pool=space.dominant_pool)
        assert [space.config(r) for r in space.knob_rows(grid)] == grid

    def test_sample_draws_like_per_point_decode(self, space):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert space.sample(a, 50) == [space.decode(b.random(space.dim)) for _ in range(50)]


# Fractions whose 100x lies on or next to a half, where np.round can differ.
_halves = (2 * np.arange(200) + 1) / 200
NEAR_HALVES = np.concatenate([_halves, np.nextafter(_halves, 0), np.nextafter(_halves, 1)])


class TestPoolFractions:
    @settings(max_examples=200, deadline=None)
    @given(f=st.lists(st.floats(0.0, 1.0) | st.sampled_from(NEAR_HALVES.tolist()), min_size=1))
    def test_equal_python_round(self, f):
        assert pool_fractions(np.array(f)).tolist() == [round(v, 2) for v in f]

    def test_every_near_half(self):
        assert pool_fractions(NEAR_HALVES).tolist() == [round(v, 2) for v in NEAR_HALVES.tolist()]


# -- Eq 8 ------------------------------------------------------------------


configs_both_pools = st.builds(
    lambda n, p, c, s, nr: MemoryConfig(n, p, c, s * (1.0 - c), nr),
    st.integers(1, 4), st.integers(1, 16), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    st.integers(1, NEW_RATIO_MAX),
)


class TestQArray:
    def _check(self, configs, stats, cluster):
        expected = np.array([ref_q(c, stats, cluster) for c in configs])
        assert np.array_equal(q_array(*columns(configs), stats, cluster), expected)
        assert np.array_equal(np.array([q_metrics(c, stats, cluster) for c in configs]), expected)

    def test_grid_and_default(self, stats_cluster):
        stats, cluster = stats_cluster
        for pool in ("cache", "shuffle"):
            self._check(grid_configs(cluster, dominant_pool=pool) + [max_resource_allocation(cluster)],
                        stats, cluster)

    @settings(max_examples=100, deadline=None)
    @given(configs=st.lists(configs_both_pools, min_size=1, max_size=20))
    def test_configs_with_both_pools(self, stats_cluster, configs):
        self._check(configs, *stats_cluster)

    @pytest.mark.parametrize("pool", ["cache", "shuffle"])
    @settings(max_examples=50, deadline=None)
    @given(x=points)
    def test_gbo_features_equal_per_config_features(self, stats_cluster, pool, x):
        stats, cluster = stats_cluster
        space = ConfigSpace(cluster, pool)
        rows = space.decode_rows(x)
        expected = [
            np.concatenate([ref_encode(space, c), np.clip(ref_q(c, stats, cluster), 0.0, Q_CLIP) / Q_CLIP])
            for c in (space.config(r) for r in rows)
        ]
        assert np.array_equal(gbo_features(space, stats, cluster)(rows), np.array(expected))


# -- Random Forest ------------------------------------------------------------


class TestRandomForestPredict:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 40), d=st.integers(1, 7),
           k=st.integers(1, 60), grid=st.booleans())
    def test_equal_per_row_tree_walk(self, seed, n, d, k, grid):
        rng = np.random.default_rng(seed)
        # Coarse values put many query coordinates exactly on thresholds.
        x = np.round(rng.random((n, d)), 1) if grid else rng.random((n, d))
        y = rng.normal(size=n)
        rf = RandomForest.fit(x, y, seed=seed, n_trees=5)
        xq = np.concatenate([x, rng.random((k, d))])
        per_tree = np.array([[ref_tree_value(t, row) for row in xq] for t in rf.trees])
        mean, std = rf.predict(xq)
        assert np.array_equal(mean, per_tree.mean(axis=0))
        assert np.array_equal(std, np.maximum(per_tree.std(axis=0), 1e-9))


# -- dedupe ------------------------------------------------------------------


@pytest.mark.parametrize("space", SPACES, ids=IDS)
class TestUniqueRows:
    @settings(max_examples=100, deadline=None)
    @given(picks=st.lists(st.integers(0, 29), min_size=1, max_size=120), seed=st.integers(0, 99))
    def test_keeps_first_occurrences_in_order(self, space, picks, seed):
        pool = space.sample_rows(np.random.default_rng(seed), 30)
        rows = pool[picks]
        configs = [space.config(r) for r in rows]
        assert [space.config(r) for r in unique_rows(rows)] == list(dict.fromkeys(configs))
