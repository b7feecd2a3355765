"""Real PySpark workload jobs, oracle-checked against DuckDB.

Each Table 2 application's DataFrame implementation is verified for
result correctness — a wrong join, aggregation, or iteration shows up
as a row diff, not just "it ran".
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.workloads import SUITE, dominant_pool, workload_model
from repro.workloads import kmeans, pagerank, sortbykey, svm, wordcount

SF = 0.0008  # tiny but non-trivial (thousands of rows)


class TestRegistry:
    def test_suite_is_table2(self):
        assert SUITE == ("WordCount", "SortByKey", "K-means", "SVM", "PageRank")

    @pytest.mark.parametrize("name", SUITE + ("TPC-H",))
    def test_models_resolve(self, name):
        m = workload_model(name)
        assert m.name == name
        assert m.n_partitions > 0

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload 'Sorting'; known:"):
            workload_model("Sorting")

    @pytest.mark.parametrize(
        "name,pool",
        [("WordCount", "shuffle"), ("SortByKey", "shuffle"), ("K-means", "cache"),
         ("SVM", "cache"), ("PageRank", "cache")],
    )
    def test_dominant_pools(self, name, pool):
        # §6.1: cache-heavy vs shuffle-only split of the suite.
        assert dominant_pool(name) == pool

    @pytest.mark.parametrize("name", SUITE)
    def test_paper_scale_dimensions(self, name):
        m = workload_model(name)
        expectations = {
            "WordCount": (50 * 1024, 128), "SortByKey": (30 * 1024, 512),
            "K-means": (19.2 * 1024, 128), "SVM": (9.4 * 1024, 32),
            "PageRank": (4096, 128),
        }
        inp, part = expectations[name]
        assert m.input_mb == inp and m.partition_mb == part


class TestWordCount:
    def test_counts_match_duckdb(self, spark):
        lines = wordcount.input_df(spark, sf=SF)
        result = wordcount.run(spark, sf=SF)
        assert_equivalent(result, wordcount.ORACLE_SQL, lines=lines)

    def test_total_words(self, spark):
        lines = wordcount.input_df(spark, sf=SF)
        n_lines = lines.count()
        total = wordcount.run(spark, sf=SF).agg({"cnt": "sum"}).collect()[0][0]
        assert total == n_lines * 10  # 10 words per line


class TestSortByKey:
    def test_content_matches_duckdb(self, spark):
        pairs = sortbykey.input_df(spark, sf=SF)
        result = sortbykey.run(spark, sf=SF)
        assert_equivalent(result, sortbykey.ORACLE_SQL, pairs=pairs)

    def test_output_is_sorted(self, spark):
        rows = sortbykey.run(spark, sf=SF).collect()
        keys = [(r.k, r.v) for r in rows]
        assert keys == sorted(keys)

    def test_preserves_cardinality(self, spark):
        assert sortbykey.run(spark, sf=SF).count() == sortbykey.input_df(spark, sf=SF).count()


class TestKMeans:
    def test_assignment_step_matches_duckdb(self, spark):
        points = kmeans.input_df(spark, sf=SF)
        centers = kmeans.initial_centers()
        result = (
            kmeans.assign(points, centers)
            .groupBy("assigned")
            .agg(
                *[F.avg(f"x{i}").alias(f"x{i}") for i in range(kmeans.DIM)],
                F.count("*").alias("cnt"),
            )
        )
        assert_equivalent(result, kmeans.oracle_sql(centers), points=points.drop("c"))

    def test_step_moves_centers_toward_truth(self, spark):
        points = kmeans.input_df(spark, sf=SF)
        centers = kmeans.initial_centers()
        moved = kmeans.step(points, centers)
        assert not np.allclose(moved, centers)

    def test_full_run_covers_all_points(self, spark):
        result = kmeans.run(spark, sf=SF, iterations=2)
        total = result.agg({"cnt": "sum"}).collect()[0][0]
        assert total == kmeans.input_df(spark, sf=SF).count()


class TestSVM:
    def test_gradient_matches_duckdb(self, spark):
        import duckdb

        examples = kmeans_free = svm.input_df(spark, sf=SF)
        w = np.array([0.3, -0.2, 0.1, 0.5])
        got = svm.gradient(examples, w) - svm.REG * w  # data term only
        con = duckdb.connect()
        try:
            con.register("examples", examples.toPandas())
            expected = con.execute(svm.gradient_oracle_sql(w)).fetchdf().iloc[0].to_numpy()
        finally:
            con.close()
        assert np.allclose(got, expected, atol=1e-9)

    def test_training_improves_accuracy(self, spark):
        w, acc_df = svm.run(spark, sf=SF, iterations=4)
        accs = acc_df.collect()
        correct = sum(r.n_correct for r in accs)
        total = sum(r.n for r in accs)
        assert correct / total > 0.8  # separable data with noise 0.3

    def test_zero_weights_give_full_violation_gradient(self, spark):
        examples = svm.input_df(spark, sf=SF)
        g = svm.gradient(examples, np.zeros(svm.DIM))
        assert np.linalg.norm(g) > 0


class TestPageRank:
    def _expected(self, edges_pdf: pd.DataFrame, iterations: int) -> pd.DataFrame:
        """Reference PageRank via the same update rule in pandas."""
        nodes = pd.unique(pd.concat([edges_pdf.src, edges_pdf.dst]))
        ranks = pd.Series(1.0, index=nodes)
        deg = edges_pdf.groupby("src").size()
        for _ in range(iterations):
            contrib = edges_pdf.assign(c=ranks[edges_pdf.src].values / deg[edges_pdf.src].values)
            s = contrib.groupby("dst").c.sum()
            new = pd.Series(1.0 - pagerank.DAMPING, index=nodes)
            new = new.add(pagerank.DAMPING * s, fill_value=0.0)
            ranks = new[nodes]
        return pd.DataFrame({"node": nodes, "rank": ranks.values})

    def test_ranks_match_reference(self, spark):
        edges = pagerank.input_df(spark, sf=SF)
        expected = self._expected(edges.toPandas(), iterations=2)
        result = pagerank.run(spark, sf=SF, iterations=2)
        assert_equivalent(result, "SELECT node, rank FROM expected", expected=expected)

    def test_rank_mass_reasonable(self, spark):
        ranks = pagerank.run(spark, sf=SF, iterations=2).toPandas()
        assert (ranks["rank"] >= 1.0 - pagerank.DAMPING - 1e-9).all()

    def test_skewed_nodes_rank_higher(self, spark):
        # Power-law in-degrees → popular nodes collect more rank mass.
        ranks = pagerank.run(spark, sf=SF, iterations=3).toPandas()
        assert ranks["rank"].max() > 3 * ranks["rank"].median()
