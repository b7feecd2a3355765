"""K-means (paper Table 2: Machine Learning, HiBench huge, 128MB parts).

Real job: Lloyd's algorithm on a DataFrame of points — each iteration
assigns points to the nearest center with a literal-expression distance
computation (no UDF; pure Catalyst expressions) and recomputes centers
by groupBy/avg. The input is cached, exactly the iterative
cache-storage pattern Section 3.3 studies.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .base import MeasuredProfile

_POINTS_PER_SF = 20_000_000  # SF=1 ~ 1GB of 4-d float points
DIM = 4
K = 4


def input_df(spark: SparkSession, *, sf: float = 0.001, seed: int = 11) -> DataFrame:
    from .. import synth_data  # loads pandas: keep it off the simulator's import path

    n = max(10, int(_POINTS_PER_SF * sf))
    return synth_data.clustered_points(spark, n=n, k=K, dim=DIM, seed=seed)


def _dist2(center: np.ndarray):
    """Squared-distance Catalyst expression to a literal center."""
    return sum(
        (F.col(f"x{i}") - float(center[i])) * (F.col(f"x{i}") - float(center[i]))
        for i in range(DIM)
    )


def assign(points: DataFrame, centers: np.ndarray) -> DataFrame:
    """Add an ``assigned`` column: index of the nearest center."""
    dists = [_dist2(c) for c in centers]
    best = F.lit(0)
    best_d = dists[0]
    for j in range(1, len(centers)):
        cond = dists[j] < best_d
        best = F.when(cond, F.lit(j)).otherwise(best)
        best_d = F.when(cond, dists[j]).otherwise(best_d)
    return points.withColumn("assigned", best)


def step(points: DataFrame, centers: np.ndarray) -> np.ndarray:
    """One Lloyd iteration: new centers (empty clusters keep the old)."""
    rows = (
        assign(points, centers)
        .groupBy("assigned")
        .agg(*[F.avg(f"x{i}").alias(f"x{i}") for i in range(DIM)])
        .collect()
    )
    new = centers.copy()
    for r in rows:
        new[r["assigned"]] = [r[f"x{i}"] for i in range(DIM)]
    return new


def initial_centers(seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-5, 5, (K, DIM))


def run(spark: SparkSession, *, sf: float = 0.001, iterations: int = 3, seed: int = 11) -> DataFrame:
    """Cached Lloyd's iterations; returns final per-cluster counts+centers."""
    points = input_df(spark, sf=sf, seed=seed).cache()
    try:
        centers = initial_centers()
        for _ in range(iterations):
            centers = step(points, centers)
        return (
            assign(points, centers)
            .groupBy("assigned")
            .agg(
                F.count("*").alias("cnt"),
                *[F.avg(f"x{i}").alias(f"x{i}") for i in range(DIM)],
            )
        )
    finally:
        points.unpersist()


def oracle_sql(centers: np.ndarray) -> str:
    """DuckDB SQL mirroring one assignment + aggregation step."""
    dist = lambda c: "+".join(  # noqa: E731
        f"(x{i}-({c[i]}))*(x{i}-({c[i]}))" for i in range(DIM)
    )
    # argmin over centers via CASE chain, identical associativity to assign().
    expr, best_d = "0", dist(centers[0])
    for j in range(1, len(centers)):
        cond = f"({dist(centers[j])}) < ({best_d})"
        expr = f"CASE WHEN {cond} THEN {j} ELSE {expr} END"
        best_d = f"CASE WHEN {cond} THEN {dist(centers[j])} ELSE {best_d} END"
    avgs = ", ".join(f"avg(x{i}) AS x{i}" for i in range(DIM))
    return (
        f"SELECT assigned, count(*) AS cnt, {avgs} FROM "
        f"(SELECT *, {expr} AS assigned FROM points) GROUP BY assigned"
    )


def measure(spark: SparkSession, *, sf: float = 0.001) -> MeasuredProfile:
    df = input_df(spark, sf=sf)
    rows = df.count()
    t0 = time.perf_counter()
    run(spark, sf=sf, iterations=2).count()
    wall = time.perf_counter() - t0
    input_mb = rows * (8 * DIM + 8) / 2**20
    return MeasuredProfile(
        name="K-means",
        sf=sf,
        rows=rows,
        input_mb=input_mb,
        wall_sec=wall,
        mem_expansion=1.5,  # boxed Double[] vectors vs packed doubles
        shuffle_frac=0.01,  # only per-partition partial sums shuffle
    )
