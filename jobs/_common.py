"""Shared plumbing for the plain-Python experiment entrypoints.

Each ``run_table*.py`` prints one evaluation table to stdout. The
experiments run on the analytic simulator and import no Spark, so every
job runs with ``python``; importing this module puts ``src/`` on the path.
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
