"""Types and helpers shared by the workloads and the runner."""
from __future__ import annotations

import gc
import hashlib
import importlib.metadata
import os
import platform
import signal
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

clock = time.perf_counter


@dataclass
class Op:
    """One operation of a pass: a tuning session or a Spark job."""

    label: str
    ms: float = 0.0
    ref_ms: float = 0.0  # the reference kernel's time right after this operation's chunk
    outcome: object = None  # what the digest and the checks read
    error: str | None = None  # set when the operation raised
    failed: bool = False  # set by the checks


@dataclass
class PassResult:
    ops: list[Op] = field(default_factory=list)
    wall_s: float = 0.0
    digest: str = ""
    traced: bool = False
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)


def reference_kernel() -> float:
    """Seconds one fixed CPU task takes: interpreted Python arithmetic,
    small numpy operations and an RBF-style kernel matrix, the mix the
    tuners spend their host time on. It calls nothing in the program, so
    no change to the program can change it; it only tracks how fast the
    host runs. The collector is off so that garbage the operations left
    behind is not collected on the kernel's clock."""
    gc.disable()
    try:
        t0 = clock()
        rng = np.random.default_rng(0)
        acc = 0.0
        for i in range(1500):
            x = rng.random(8)
            acc += float(np.exp(-0.5 * x * x).sum()) + sum((i * j) % 1009 for j in range(20))
        a, b = rng.random((64, 7)), rng.random((400, 7))
        for _ in range(10):
            acc += float(np.exp(-0.5 * ((b[:, None, :] - a[None, :, :]) ** 2).sum(-1)).sum())
        return clock() - t0
    finally:
        gc.enable()


#: Seconds of operations between two reference-kernel runs.
CALIBRATE_EVERY_S = 0.4


class Meter:
    """Times operations and, between them, the reference kernel.

    Host speed on a shared machine swings by tens of percent within
    seconds. The kernel runs after every chunk of operations that took
    CALIBRATE_EVERY_S, outside their timings, and each operation of the
    chunk keeps that kernel time as ``ref_ms``: an operation's time is
    compared with the host's speed at the same moment, not over the run.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        self.spent_s = 0.0  # kernel time, left out of pass times
        self._chunk: list[Op] = []
        self._chunk_s = 0.0

    def calibrate(self) -> None:
        t = reference_kernel()
        self.kernel_s.append(t)
        self.spent_s += t
        for op in self._chunk:
            op.ref_ms = 1e3 * t
        self._chunk, self._chunk_s = [], 0.0

    def op(self, label: str, fn: Callable[[], object]) -> Op:
        """Run ``fn`` as one operation; an exception marks it failed."""
        op = Op(label)
        t0 = clock()
        try:
            op.outcome = fn()
        except Exception as exc:  # one failed operation must not stop the pass
            op.error = f"{type(exc).__name__}: {exc}"
            op.failed = True
        op.ms = 1e3 * (clock() - t0)
        self._chunk.append(op)
        self._chunk_s += op.ms / 1e3
        if self._chunk_s >= CALIBRATE_EVERY_S:
            self.calibrate()
        return op

    def flush(self) -> None:
        """Give the operations of an unfinished chunk their kernel time."""
        if self._chunk:
            self.calibrate()


def digest(rows) -> str:
    """sha256 over the exact ``repr`` of every row (floats keep all digits)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def pct(values, q: float) -> float:
    """Percentile ``q`` in [0, 100] with linear interpolation (0 if empty)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def host_facts(extra: dict | None = None) -> dict:
    """Facts that decide whether two measurements may be compared."""
    facts = {
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    for dist in ("pyspark", "duckdb"):
        try:
            facts[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            facts[dist] = None
    facts.update(extra or {})
    return facts


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so that ``reap_children`` can
    wait for processes whose parent ended first, such as the Python workers
    a Spark JVM starts."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Pids whose parent is this process, from ``/proc``."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry))
    return kids


def reap_children(grace_s: float = 20.0) -> None:
    """Return once every child process has ended and been waited for.

    Children get ``grace_s`` to end on their own, then SIGTERM and five
    more seconds, then SIGKILL. With ``become_subreaper`` in effect this
    covers every descendant: one orphaned on the way becomes a child.
    """
    deadline, sig = clock() + grace_s, None
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        if clock() >= deadline and sig is not signal.SIGKILL:
            sig = signal.SIGKILL if sig is signal.SIGTERM else signal.SIGTERM
            deadline = clock() + 5.0
        if sig is not None:
            for pid in _children():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)
