"""The benchmark test suite (paper Table 2): the simulator's workload models.

This package holds the two sides of each application in separate places:

* here, the registry of :class:`~repro.workloads.base.WorkloadModel` s —
  the paper-scale parameterization the cluster simulator evaluates
  (50GB WordCount, 30GB SortByKey, 100M-sample K-means and SVM, 69M-edge
  PageRank, SF-50 TPC-H), each with its derivation; it imports no Spark,
  so the simulator, the tuners and the experiments load without it;
* in the job modules (``wordcount``, ``sortbykey``, ``kmeans``, ``svm``,
  ``pagerank``, ``tpch``), the **real PySpark DataFrame job** over
  synthetic data, its DuckDB oracle SQL and ``measure()``, the small-SF
  measurement the models below were scaled from
  (:func:`~repro.workloads.base.scale_measurement`).
"""
from __future__ import annotations

from .base import WorkloadModel

#: Paper Table 2 ordering.
SUITE = ("WordCount", "SortByKey", "K-means", "SVM", "PageRank")

_MODELS = {
    # 50GB input, 128MB partitions → 400 tasks. CPU cost and footprints
    # derived via ``scale_measurement`` from ``wordcount.measure`` at
    # SF=0.01 (see tests/test_workload_scaling.py); shuffle per task is the
    # per-partition word-count map (~8% of a deserialized 128MB partition),
    # M_u the deserialized partition at the measured ~1.8x string expansion.
    "WordCount": WorkloadModel(
        name="WordCount",
        input_mb=50 * 1024,
        partition_mb=128,
        cache_mb=0.0,
        shuffle_task_mb=40.0,
        unmanaged_task_mb=230.0,
        tenured_frac=0.15,
        code_mb=110.0,
        cpu_sec_per_task=30.0,
        cpu_cores_per_task=0.9,
        disk_mbps_per_task=14.0,
        net_task_mb=10.0,
        alloc_mbps_per_task=90.0,
        iterations=0,
        iter_cpu_frac=0.0,
        recompute_frac=0.0,
        stage_overhead_sec=15.0,
    ),
    # 30GB, 512MB partitions → 60 fat tasks. The per-task sort working set
    # is the whole partition in sort-record form (1.5x expansion); M_u is
    # the streamed deserialization window of a 512MB partition. The
    # deliberately large partitions (Table 2 footnote) give SortByKey the
    # biggest per-task footprint in the suite.
    "SortByKey": WorkloadModel(
        name="SortByKey",
        input_mb=30 * 1024,
        partition_mb=512,
        cache_mb=0.0,
        shuffle_task_mb=768.0,
        unmanaged_task_mb=420.0,
        tenured_frac=0.2,
        code_mb=110.0,
        cpu_sec_per_task=50.0,
        cpu_cores_per_task=0.85,
        disk_mbps_per_task=25.0,
        net_task_mb=60.0,
        alloc_mbps_per_task=110.0,
        iterations=0,
        iter_cpu_frac=0.0,
        recompute_frac=0.0,
        stage_overhead_sec=15.0,
    ),
    # 100M HiBench samples ≈ 19.2GB input in 150 × 128MB partitions; the
    # cached RDD of boxed vectors inflates to ~28.8GB, which cannot fully
    # fit on Cluster A (Figure 7d: K-means never reaches hit ratio 1 before
    # the memory bottleneck). 8 Lloyd iterations.
    "K-means": WorkloadModel(
        name="K-means",
        input_mb=19.2 * 1024,
        partition_mb=128,
        cache_mb=28.8 * 1024,
        shuffle_task_mb=60.0,
        unmanaged_task_mb=185.0,
        tenured_frac=0.6,
        code_mb=120.0,
        cpu_sec_per_task=10.0,
        cpu_cores_per_task=0.95,
        disk_mbps_per_task=12.0,
        net_task_mb=15.0,
        alloc_mbps_per_task=70.0,
        iterations=8,
        iter_cpu_frac=0.5,
        recompute_frac=3.5,  # a miss re-reads, re-parses and re-vectorizes the partition
        stage_overhead_sec=12.0,
    ),
    # 100M examples ≈ 9.4GB input in 300 × 32MB partitions; cached examples
    # inflate to ~15.6GB, which fits fully at Cache Capacity >= 0.5 on the
    # default containers (Figure 7d: SVM hits ratio 1.0 at 0.5). Tiny M_u
    # keeps heap pressure low → no full GCs on big-heap profiles (the
    # Figure 22 sensitivity study).
    "SVM": WorkloadModel(
        name="SVM",
        input_mb=9.4 * 1024,
        partition_mb=32,
        cache_mb=15.6 * 1024,
        shuffle_task_mb=30.0,
        unmanaged_task_mb=60.0,
        tenured_frac=0.1,
        code_mb=110.0,
        cpu_sec_per_task=6.0,
        cpu_cores_per_task=1.0,
        disk_mbps_per_task=8.0,
        net_task_mb=8.0,
        alloc_mbps_per_task=50.0,
        iterations=5,
        iter_cpu_frac=0.6,
        recompute_frac=0.8,
        stage_overhead_sec=12.0,
    ),
    # LiveJournal's 69M edges are ~1.1GB on disk but the coalesced GraphX
    # representation processed per task is far larger: the paper measures
    # M_u = 770MB and M_c = 2300MB at hit ratio 0.3 (Table 6), implying a
    # cache demand near 60GB across 8 containers — we use 60GB so the
    # simulated Statistics Generator reproduces the Table 6 column. 32
    # coalesced edge partitions, 10 rank iterations, 550MB of off-heap
    # network fetch per coalesce task (Figure 11's RSS mechanism). M_s = 0
    # matching Table 6.
    "PageRank": WorkloadModel(
        name="PageRank",
        input_mb=4096,
        partition_mb=128,
        cache_mb=60.0 * 1024,
        shuffle_task_mb=0.0,
        unmanaged_task_mb=770.0,
        tenured_frac=0.5,
        code_mb=115.0,
        cpu_sec_per_task=38.0,
        cpu_cores_per_task=1.4,  # Table 6: CPU_avg 35% at P=2 on 8 cores
        disk_mbps_per_task=1.0,  # Table 6: Disk_avg 2%
        net_task_mb=550.0,
        alloc_mbps_per_task=90.0,
        iterations=10,
        iter_cpu_frac=0.35,
        recompute_frac=1.0,
        stage_overhead_sec=20.0,
    ),
    # Cluster B (Figure 21): dbgen SF-50 ≈ 50GB in 50 × 1GB-class scan
    # units; the 22-query workload is modeled as 22 stages (iterations=21
    # at full per-stage cost) with per-query driver and setup overhead.
    # Scans are memory-bandwidth heavy (high core demand), joins shuffle
    # ~25% of scanned bytes.
    "TPC-H": WorkloadModel(
        name="TPC-H",
        input_mb=50 * 1024,
        partition_mb=1024,
        cache_mb=0.0,
        shuffle_task_mb=420.0,
        unmanaged_task_mb=600.0,
        tenured_frac=0.15,
        code_mb=130.0,
        cpu_sec_per_task=30.0,
        cpu_cores_per_task=1.8,
        disk_mbps_per_task=15.0,
        net_task_mb=80.0,
        alloc_mbps_per_task=100.0,
        iterations=21,
        iter_cpu_frac=1.0,
        recompute_frac=0.0,
        stage_overhead_sec=90.0,
    ),
}


def workload_model(name: str) -> WorkloadModel:
    """The simulator parameterization for a Table 2 workload."""
    try:
        return _MODELS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(_MODELS)}") from None


def dominant_pool(name: str) -> str:
    """Which of Cache/Shuffle capacity the app predominantly uses (§6.1)."""
    return "cache" if workload_model(name).uses_cache else "shuffle"
