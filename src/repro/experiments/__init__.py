"""Experiment harnesses — one module per evaluation table/figure.

Each module exposes ``run(...)`` returning a :class:`~repro.experiments.tables.Table`
whose rows reproduce the corresponding paper artifact, with the paper's
published values carried alongside ours where the paper prints concrete
numbers. ``jobs/run_table*.py`` are the plain-Python entrypoints: the
experiments run on the analytic simulator and import no Spark.
"""
from .tables import Table

__all__ = ["Table"]
