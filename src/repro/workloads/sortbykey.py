"""SortByKey (paper Table 2: Map and Reduce, 30GB, 512MB partitions).

Real job: a total sort through Catalyst's range-partitioned Sort
(Exchange rangepartitioning + SortExec). The reduce-side in-memory sort
is exactly the operation whose shuffle-memory/GC interplay Section 3.3
and Figure 10 analyze.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession

from .base import MeasuredProfile, WorkloadModel

_ROWS_PER_SF = 8_000_000  # SF=1 ~ 1GB of (k, v) pairs


def input_df(spark: SparkSession, *, sf: float = 0.001, seed: int = 4) -> DataFrame:
    from .. import synth_data  # loads pandas: keep it off the simulator's import path

    n = max(1, int(_ROWS_PER_SF * sf))
    return synth_data.uniform_keys(spark, n=n, n_keys=max(10, n // 4), seed=seed)


def run(spark: SparkSession, *, sf: float = 0.001, seed: int = 4) -> DataFrame:
    """Totally-ordered rows by key (ties broken by value for determinism)."""
    return input_df(spark, sf=sf, seed=seed).orderBy("k", "v")


#: Content-equality oracle (row order is asserted separately in tests
#: because the oracle canonicalizes order away).
ORACLE_SQL = "SELECT k, v FROM pairs ORDER BY k, v"


def measure(spark: SparkSession, *, sf: float = 0.001) -> MeasuredProfile:
    df = input_df(spark, sf=sf)
    rows = df.count()
    t0 = time.perf_counter()
    run(spark, sf=sf).count()
    wall = time.perf_counter() - t0
    input_mb = rows * 16 / 2**20  # 8B key + 8B value
    return MeasuredProfile(
        name="SortByKey",
        sf=sf,
        rows=rows,
        input_mb=input_mb,
        wall_sec=wall,
        mem_expansion=1.5,  # boxed pairs / sort records
        shuffle_frac=1.0,  # every byte is shuffled and sorted
    )


#: Paper-scale model (30GB, 512MB partitions → 60 fat tasks). The
#: per-task sort working set is the whole partition in sort-record form
#: (1.5x expansion); M_u is the streamed deserialization window of a
#: 512MB partition. The deliberately large partitions (Table 2 footnote)
#: give SortByKey the biggest per-task footprint in the suite.
MODEL = WorkloadModel(
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
)
