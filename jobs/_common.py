"""Shared plumbing for the spark-submit job entrypoints.

Each ``run_table*.py`` prints one evaluation table to stdout. The
experiments run on the analytic simulator, so no job needs a
SparkSession; importing this module puts ``src/`` on the path.
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
