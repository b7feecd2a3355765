"""PageRank (paper Table 2: Graph, LiveJournal 69M edges, 128MB parts).

Real job: join-based PageRank on an edge DataFrame (the GraphX
LiveJournalPageRank pattern of §3.5: coalesce + cache the edges, then
iterate rank updates through joins). Heavy per-task footprints (M_u =
770MB in Table 6) and large network fetches during the coalesce make
this the paper's canonical unsafe-under-defaults application.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .base import MeasuredProfile

_EDGES_PER_SF = 4_000_000  # SF=1 ~ 69M-edge-class graph scaled down
DAMPING = 0.85


def input_df(spark: SparkSession, *, sf: float = 0.001, seed: int = 13) -> DataFrame:
    from .. import synth_data  # loads pandas: keep it off the simulator's import path

    n_edges = max(10, int(_EDGES_PER_SF * sf))
    n_nodes = max(5, n_edges // 12)
    return synth_data.graph_edges(spark, n_edges=n_edges, n_nodes=n_nodes, seed=seed)


def iterate(edges: DataFrame, ranks: DataFrame, out_deg: DataFrame) -> DataFrame:
    """One PageRank step: rank' = (1-d) + d * Σ rank(src)/outdeg(src)."""
    contribs = (
        edges.join(ranks, edges.src == ranks.node)
        .join(out_deg, edges.src == out_deg.dnode)
        .select(F.col("dst").alias("node"), (F.col("rank") / F.col("deg")).alias("c"))
        .groupBy("node")
        .agg(F.sum("c").alias("s"))
    )
    # Dangling-target nodes keep the base rank via a right join on ranks.
    nodes = ranks.select("node")
    return nodes.join(contribs, "node", "left").select(
        "node",
        (F.lit(1.0 - DAMPING) + F.lit(DAMPING) * F.coalesce(F.col("s"), F.lit(0.0))).alias("rank"),
    )


def run(spark: SparkSession, *, sf: float = 0.001, iterations: int = 3, seed: int = 13) -> DataFrame:
    """Ranks after ``iterations`` steps over the cached, coalesced edges."""
    edges = input_df(spark, sf=sf, seed=seed).coalesce(8).cache()
    try:
        nodes = (
            edges.select(F.col("src").alias("node"))
            .union(edges.select(F.col("dst").alias("node")))
            .distinct()
        )
        ranks = nodes.select("node", F.lit(1.0).alias("rank"))
        out_deg = edges.groupBy(F.col("src").alias("dnode")).agg(F.count("*").alias("deg"))
        for _ in range(iterations):
            ranks = iterate(edges, ranks, out_deg)
        return ranks
    finally:
        edges.unpersist()


def measure(spark: SparkSession, *, sf: float = 0.001) -> MeasuredProfile:
    df = input_df(spark, sf=sf)
    rows = df.count()
    t0 = time.perf_counter()
    run(spark, sf=sf, iterations=2).count()
    wall = time.perf_counter() - t0
    input_mb = rows * 16 / 2**20
    return MeasuredProfile(
        name="PageRank",
        sf=sf,
        rows=rows,
        input_mb=input_mb,
        wall_sec=wall,
        mem_expansion=6.0,  # GraphX edge/vertex replication + routing tables
        shuffle_frac=0.0,  # GraphX keeps messages in its own cached structures
    )
