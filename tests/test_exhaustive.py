"""Exhaustive search (§6.1) and the definitions built on its sweep: the
sorted grid runtimes, the §6.2 top-5 threshold and the Figure 16
baseline."""
import pytest

from repro.cluster import CLUSTER_A
from repro.config import grid_configs
from repro.experiments.common import grid_runtimes, top5_threshold
from repro.tuners.base import Objective
from repro.tuners.exhaustive import exhaustive_search
from repro.workloads import SUITE, dominant_pool, workload_model


def _sweep(name: str, seed: int = 0):
    obj = Objective(workload_model(name), CLUSTER_A, seed=seed)
    return exhaustive_search(obj, dominant_pool=dominant_pool(name))


class TestSequential:
    def test_covers_whole_grid(self):
        obj = Objective(workload_model("SVM"), CLUSTER_A)
        res = exhaustive_search(obj, dominant_pool="cache")
        assert res.iterations == len(grid_configs(CLUSTER_A, dominant_pool="cache"))

    def test_best_is_clean_minimum(self):
        obj = Objective(workload_model("PageRank"), CLUSTER_A)
        res = exhaustive_search(obj, dominant_pool="cache")
        clean = [s for s in res.samples if not s.aborted]
        assert res.best_runtime_sec <= min(s.runtime_sec for s in clean) + 1e-9


@pytest.mark.parametrize("name", SUITE)
class TestSweepDefinitions:
    def test_grid_runtimes_are_sorted_sweep(self, name):
        runtimes = sorted(s.runtime_sec for s in _sweep(name, seed=1).samples)
        assert grid_runtimes(name, "A", 1) == tuple(runtimes)

    def test_top5_is_eighth_fastest(self, name):
        # §6.2 on the 176-config grid: int(0.05 * 176) = 8.
        runtimes = sorted(s.runtime_sec for s in _sweep(name).samples)
        assert len(runtimes) == 176
        assert top5_threshold(name, "A", 0) == runtimes[7]

    def test_fig16_baseline_is_sweep_cost(self, name):
        # Figure 16 divides by sum(grid_runtimes): the sweep's total cost.
        expected = _sweep(name).total_observation_sec
        assert sum(grid_runtimes(name, "A", 0)) == pytest.approx(expected, rel=1e-9)
