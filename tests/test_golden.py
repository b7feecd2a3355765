"""Golden output: ``jobs/run_all.py`` regenerates EXPERIMENTS.md exactly.

Every table and figure number is compared as printed, so a refactor that
moves any headline result fails here. Two runs under different
``PYTHONHASHSEED`` values check that no output depends on ``hash()``
(simulator seeds come from CRC32). The only masked cells are Table 10's
host-measured times: the part after `` / `` in the Statistics
Collection, Model Fitting and Model Probing rows.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "12345")
TIMED_ROWS = ("| Statistics Collection |", "| Model Fitting |", "| Model Probing |")
# The two runs share the host; one BLAS thread each keeps them from
# oversubscribing it (the outputs do not depend on the thread count).
ONE_BLAS_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
HOST_MS = re.compile(r" / \d+(?:\.\d+)?ms\b")


def _normalise(text: str) -> list[str]:
    lines = [line.rstrip() for line in text.strip().splitlines()]
    return [HOST_MS.sub(" / <host>ms", line) if line.startswith(TIMED_ROWS) else line
            for line in lines]


def _expected() -> list[str]:
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    _, sep, tables = doc.partition("## Generated tables")
    assert sep, "EXPERIMENTS.md has no '## Generated tables' section"
    return _normalise(tables.split("\n", 1)[1])


@pytest.fixture(scope="module")
def outputs() -> dict[str, str]:
    procs = {
        h: subprocess.Popen(
            [sys.executable, str(ROOT / "jobs" / "run_all.py")],
            cwd=ROOT, env={**os.environ, **ONE_BLAS_THREAD, "PYTHONHASHSEED": h},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for h in HASH_SEEDS
    }
    out = {}
    try:
        for h, p in procs.items():
            stdout, stderr = p.communicate(timeout=900)
            assert p.returncode == 0, stderr
            out[h] = stdout
    finally:
        for p in procs.values():
            p.kill()
            p.wait()
    return out


def test_mask_covers_only_host_times():
    timed = "| Model Probing | 2ms / 0.018ms | 0.02ms / 0.050ms |"
    assert _normalise(timed) == ["| Model Probing | 2ms / <host>ms | 0.02ms / <host>ms |"]
    for kept in ("| Model Size | 3Kb / 24Kb |", "| Statistics Collection | 1ms / n/a |"):
        assert _normalise(kept) == [kept]


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_run_all_matches_experiments_md(outputs, hash_seed):
    assert _normalise(outputs[hash_seed]) == _expected()
