"""The ``spark-jobs`` workload: the real PySpark jobs at one scale factor.

WordCount, SortByKey, K-means, SVM and PageRank (3 iterations each where
iterative) and the six TPC-H-lite queries. Each job runs as a caller
would run it: call the workload's public function, then ``toPandas()``
the frame it returns, inside the timed span. Every result is checked
afterwards, outside the timed span: through ``repro.oracle.assert_equivalent``
against DuckDB, or against the same pandas PageRank reference and SVM
gradient oracle the tests use.

The session mirrors the test fixture, but on two cores (``local[2]``):
64 shuffle partitions, broadcast joins off, UI off. All scratch files go
under ``.bench_build/`` of the checkout.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
from repro import oracle, synth_data
from repro.workloads import kmeans, pagerank, sortbykey, svm, tpch, wordcount

from harness import Meter, Op, PassResult, clock, digest

#: One scale factor for every job (thousands of rows: overhead-bound,
#: like the tests, so a pass stays well under the run length).
SF = 0.001
#: Warm-up passes run during set-up, so the JVM has compiled the
#: execution paths before the first timed pass: a cheap one at a smaller
#: scale factor takes most of the compilation, one at SF the rest.
WARMUP_SFS = (0.0002, SF)
ITERATIONS = 3
#: Task threads. With four on a 4-core shared host, job times spread
#: more from run to run; two leave the Python driver and the JVM's own
#: threads a core.
MAX_CORES = 2
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 64
#: Seconds the gateway JVM gets to exit once its stdin is closed.
GATEWAY_EXIT_S = 30.0

JOBS = ("wordcount", "sortbykey", "kmeans", "svm", "pagerank", "tpch")
TPCH_TABLE_SEEDS = {"lineitem": 0, "orders": 1, "customer": 2, "part": 5}


class _Collected:
    """A result the timed pass already collected, handed to the oracle
    (which only calls ``toPandas()`` on it)."""

    def __init__(self, pdf):
        self._pdf = pdf

    def toPandas(self):
        return self._pdf


def _pagerank_reference(edges_pdf, iterations: int, damping: float):
    """The pandas PageRank the tests use as the reference."""
    nodes = pd.unique(pd.concat([edges_pdf.src, edges_pdf.dst]))
    ranks = pd.Series(1.0, index=nodes)
    deg = edges_pdf.groupby("src").size()
    for _ in range(iterations):
        contrib = edges_pdf.assign(c=ranks[edges_pdf.src].values / deg[edges_pdf.src].values)
        s = contrib.groupby("dst").c.sum()
        new = pd.Series(1.0 - damping, index=nodes)
        new = new.add(damping * s, fill_value=0.0)
        ranks = new[nodes]
    return pd.DataFrame({"node": nodes, "rank": ranks.values})


class SparkJobs:
    name = "spark-jobs"
    op_kind = "job"
    #: One set-up per run: Spark's start and warm-up take about 30 s, and
    #: their times spread little.
    setup_runs = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.data_seeds = {job: int(rng.integers(2**31)) for job in JOBS[:-1]}
        self.tpch_seeds = {t: int(rng.integers(2**31)) for t in TPCH_TABLE_SEEDS}
        self.workdir = workdir
        self.master = f"local[{min(MAX_CORES, os.cpu_count() or 1)}]"
        self.spark = None
        self._inputs = None
        self._passes = 0

    # -- set-up ----------------------------------------------------------------
    def facts(self) -> dict:
        return {"spark_master": self.master, "spark_driver_memory": DRIVER_MEMORY, "sf": SF}

    def setup(self) -> dict[str, float]:
        tmp = self.workdir / "tmp"
        local = self.workdir / "spark-local"
        for d in (tmp, local):
            d.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)  # pyspark's gateway files; the default may be cached already
        os.environ["SPARK_LOCAL_DIRS"] = str(local)
        # Every JVM the launcher starts keeps its temporary files here too.
        os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {self.master} --driver-memory {DRIVER_MEMORY} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            "pyspark-shell"
        )
        t0 = clock()
        from pyspark.sql import SparkSession

        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.sql.warehouse.dir", str(self.workdir / "warehouse"))
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        started = clock() - t0
        t0 = clock()
        for sf in WARMUP_SFS:
            self._run(sf, Meter())
        return {"spark.session_start_s": started, "warmup_s": clock() - t0}

    # -- one pass ----------------------------------------------------------------
    def _tables(self, sf: float):
        return {t: getattr(synth_data, t)(self.spark, sf=sf, seed=self.tpch_seeds[t])
                for t in TPCH_TABLE_SEEDS}

    def _run(self, sf: float, meter: Meter, traced: bool = False) -> PassResult:
        spark, ds = self.spark, self.data_seeds
        self._passes += 1
        result = PassResult()
        apps = {
            "wordcount": lambda: wordcount.run(spark, sf=sf, seed=ds["wordcount"]).toPandas(),
            "sortbykey": lambda: sortbykey.run(spark, sf=sf, seed=ds["sortbykey"]).toPandas(),
            "kmeans": lambda: kmeans.run(spark, sf=sf, iterations=ITERATIONS,
                                         seed=ds["kmeans"]).toPandas(),
            "svm": lambda: self._svm(sf),
            "pagerank": lambda: pagerank.run(spark, sf=sf, iterations=ITERATIONS,
                                             seed=ds["pagerank"]).toPandas(),
        }
        for job, fn in apps.items():
            with self._group(job, result, meter, traced):
                result.ops.append(meter.op(job, fn))
        with self._group("tpch", result, meter, traced):
            tables = self._tables(sf)
            for q in sorted(tpch.QUERIES):
                result.ops.append(meter.op(
                    f"tpch.{q}", lambda q=q: tpch.run_query(spark, q, tables).toPandas()))
        return result

    def _svm(self, sf: float):
        w, acc = svm.run(self.spark, sf=sf, iterations=ITERATIONS, seed=self.data_seeds["svm"])
        return w, acc.toPandas()

    @contextmanager
    def _group(self, job: str, result: PassResult, meter: Meter, traced: bool):
        """One Spark job group per workload; the traced run also counts the
        Spark jobs and stages the group ran."""
        sc = self.spark.sparkContext
        group = f"pass{self._passes}.{job}"
        sc.setJobGroup(group, job)
        t0, spent0 = clock(), meter.spent_s
        try:
            yield
        finally:
            result.layers[f"workloads.{job}.ms"] = 1e3 * (clock() - t0 - (meter.spent_s - spent0))
            if traced:
                tracker = sc.statusTracker()
                infos = [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(group)]
                result.layers[f"workloads.{job}.spark_jobs"] = float(len(infos))
                result.layers[f"workloads.{job}.spark_stages"] = float(
                    sum(len(i.stageIds) for i in infos if i is not None))

    def run_pass(self, traced: bool, meter: Meter) -> PassResult:
        return self._run(SF, meter, traced)

    # -- outside the timed span -----------------------------------------------------
    def _oracle_inputs(self) -> dict:
        if self._inputs is None:
            spark, ds = self.spark, self.data_seeds
            self._inputs = {
                "lines": wordcount.input_df(spark, sf=SF, seed=ds["wordcount"]).toPandas(),
                "pairs": sortbykey.input_df(spark, sf=SF, seed=ds["sortbykey"]).toPandas(),
                "points": kmeans.input_df(spark, sf=SF, seed=ds["kmeans"]).toPandas().drop(columns="c"),
                "examples": svm.input_df(spark, sf=SF, seed=ds["svm"]).toPandas(),
                "edges": pagerank.input_df(spark, sf=SF, seed=ds["pagerank"]).toPandas(),
                "tpch": {t: df.toPandas() for t, df in self._tables(SF).items()},
            }
        return self._inputs

    def finish(self, result: PassResult) -> None:
        inputs = self._oracle_inputs()
        rows = []
        for op in result.ops:
            if op.error:
                rows.append((op.label, op.error))
                continue
            pdf = op.outcome[1] if op.label == "svm" else op.outcome
            rows.append((op.label, len(pdf), tuple(sorted(pdf.columns))))
            try:
                self._check(op, inputs)
            except Exception as exc:  # any oracle failure fails this job only
                op.failed, op.error = True, f"oracle: {type(exc).__name__}: {exc}"[:500]
        result.digest = digest(rows)

    def _check(self, op: Op, inputs: dict) -> None:
        if op.label == "wordcount":
            oracle.assert_equivalent(_Collected(op.outcome), wordcount.ORACLE_SQL, lines=inputs["lines"])
        elif op.label == "sortbykey":
            got = op.outcome
            oracle.assert_equivalent(_Collected(got), sortbykey.ORACLE_SQL, pairs=inputs["pairs"])
            keys = list(zip(got.k, got.v))
            if keys != sorted(keys):
                raise AssertionError("SortByKey output is not ordered by (k, v)")
        elif op.label == "kmeans":
            con = duckdb.connect()
            try:
                con.register("points", inputs["points"])
                centers = kmeans.initial_centers()
                for _ in range(ITERATIONS):
                    rows = con.execute(kmeans.oracle_sql(centers)).fetchdf()
                    centers = centers.copy()
                    for r in rows.itertuples():
                        centers[int(r.assigned)] = [getattr(r, f"x{i}") for i in range(kmeans.DIM)]
            finally:
                con.close()
            oracle.assert_equivalent(_Collected(op.outcome), kmeans.oracle_sql(centers),
                                     points=inputs["points"])
        elif op.label == "svm":
            w_spark, acc = op.outcome
            con = duckdb.connect()
            try:
                con.register("examples", inputs["examples"])
                w = np.zeros(svm.DIM)
                for _ in range(ITERATIONS):
                    g = con.execute(svm.gradient_oracle_sql(w)).fetchdf().iloc[0].to_numpy()
                    w = w - svm.LR * (g + svm.REG * w)
            finally:
                con.close()
            if not np.allclose(w_spark, w, atol=1e-9):
                raise AssertionError(f"SVM weights {w_spark} differ from the oracle's {w}")
            dot = "+".join(f"x{i}*({w[i]})" for i in range(svm.DIM))
            oracle.assert_equivalent(
                _Collected(acc),
                "SELECT y, count(*) AS n, sum(CASE WHEN (CASE WHEN " + dot
                + " >= 0 THEN 1.0 ELSE -1.0 END) = y THEN 1 ELSE 0 END) AS n_correct"
                " FROM examples GROUP BY y",
                examples=inputs["examples"],
            )
        elif op.label == "pagerank":
            ref = _pagerank_reference(inputs["edges"], ITERATIONS, pagerank.DAMPING)
            oracle.assert_equivalent(_Collected(op.outcome), "SELECT node, rank FROM expected", expected=ref)
        else:
            q = op.label.split(".", 1)[1]
            oracle.assert_equivalent(_Collected(op.outcome), tpch.QUERIES[q], **inputs["tpch"])

    def sim_metrics(self, result: PassResult) -> dict[str, float]:
        return {}

    def expected_probes(self, result: PassResult) -> None:
        return None

    def steps(self, result: PassResult) -> list[tuple[Op, int]]:
        """A step is one job, materialisation included."""
        return [(op, 1) for op in result.ops]

    def close(self) -> None:
        """Stop Spark and wait for its JVM to end before removing its files.

        ``SparkSession.stop()`` leaves the gateway JVM running until the
        interpreter exits. Closing the JVM's stdin makes it exit; it is
        killed if it has not ended within GATEWAY_EXIT_S.
        """
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        try:
            if self.spark is not None:
                self.spark.stop()
        finally:
            self.spark = None
            if gateway is not None:
                SparkContext._gateway = SparkContext._jvm = None
                gateway.shutdown()
                proc = getattr(gateway, "proc", None)
                if proc is not None:
                    proc.stdin.close()
                    try:
                        proc.wait(GATEWAY_EXIT_S)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
            shutil.rmtree(self.workdir, ignore_errors=True)
