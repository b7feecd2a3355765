"""Properties of the §6.1 config encoding: every point of ℝ⁴ decodes to a
valid config, encode∘decode is idempotent, and the grid and the Table 7
bootstrap lie inside the decode image."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CLUSTER_A, CLUSTER_B
from repro.config import MemoryConfig, grid_configs, pool_config, pool_knobs
from repro.tuners.base import ConfigSpace
from repro.tuners.lhs import paper_table7_samples

SPACES = [
    ConfigSpace(cluster, pool) for cluster in (CLUSTER_A, CLUSTER_B) for pool in ("cache", "shuffle")
]
IDS = [f"{s.cluster.name}-{s.dominant_pool}" for s in SPACES]

points = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4
).map(np.array)


@pytest.mark.parametrize("space", SPACES, ids=IDS)
class TestEncoding:
    @settings(max_examples=300, deadline=None)
    @given(x=points)
    def test_any_point_decodes_to_valid_config(self, space, x):
        cfg = space.decode(x)
        assert isinstance(cfg, MemoryConfig)
        assert 1 <= cfg.containers_per_node <= space.cluster.max_containers_per_node
        assert cfg.task_concurrency <= space.cluster.max_task_concurrency(cfg.containers_per_node)
        n, p, frac, nr = pool_knobs(cfg, dominant_pool=space.dominant_pool)
        assert space.FRAC_MIN <= frac <= space.FRAC_MAX
        assert cfg == pool_config(n, p, frac, nr, dominant_pool=space.dominant_pool)

    @settings(max_examples=300, deadline=None)
    @given(x=points)
    def test_encode_decode_idempotent(self, space, x):
        cfg = space.decode(x)
        assert space.decode(space.encode(cfg)) == cfg

    def test_nan_point_is_rejected(self, space):
        with pytest.raises(ValueError, match="NaN"):
            space.decode(np.array([0.5, np.nan, 0.5, 0.5]))

    def test_grid_and_table7_in_decode_image(self, space):
        grid = grid_configs(space.cluster, dominant_pool=space.dominant_pool)
        for cfg in grid + paper_table7_samples(space):
            assert space.decode(space.encode(cfg)) == cfg


class TestPoolConfig:
    def test_minor_pool_pinned(self):
        assert pool_config(2, 2, 0.456, 3, dominant_pool="cache") == MemoryConfig(2, 2, 0.46, 0.1, 3)
        assert pool_config(2, 2, 0.456, 3, dominant_pool="shuffle") == MemoryConfig(2, 2, 0.0, 0.46, 3)

    def test_rejects_unknown_pool(self):
        with pytest.raises(ValueError, match="cache|shuffle"):
            pool_config(1, 1, 0.5, 1, dominant_pool="heap")
        with pytest.raises(ValueError, match="cache|shuffle"):
            pool_knobs(MemoryConfig(1, 1, 0.5, 0.1, 1), dominant_pool="heap")
