"""In-memory span tracer that instruments the program from the outside.

Nothing under ``src/`` knows about tracing. :class:`Instrumentation`
wraps a function by rebinding every name that refers to it: the
attribute of each ``repro`` module that imported it by name (for
example ``repro.tuners.base.simulate`` and
``repro.simcluster.profile_gen.simulate``), or the class attribute for a
method. Removing the instrumentation restores the original objects, so
untraced passes run the program exactly as shipped.

Each span is one row of five parallel arrays: name id, parent row,
start, end (``time.perf_counter`` seconds) and an optional value the
wrapper measured at the boundary (rows scored, attempts, ...). Spans
stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Records spans; the caller opens a root span per pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        row = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(row)
        self.start.append(_clock())
        return row

    def close(self, row: int) -> None:
        self.end[row] = _clock()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, measure: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``measure(args, kwargs,
        result)`` sets the span's value."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(row)
            if measure is not None:
                self.value[row] = measure(args, kwargs, result)
            return result

        return traced

    def frame(self, root: int) -> "SpanFrame":
        """All spans below (and including) the root span ``root``."""
        return SpanFrame(self, root)


class SpanFrame:
    """Numpy view of one root span's subtree, with aggregation helpers."""

    def __init__(self, tracer: Tracer, root: int):
        end_row = len(tracer.name)
        # Rows are appended in open order, so the subtree of a root span is
        # the contiguous range of rows that opened before the root closed.
        parent = np.frombuffer(tracer.parent, dtype=np.int32)[root:end_row]
        start = np.frombuffer(tracer.start, dtype=np.float64)[root:end_row]
        root_end = tracer.end[root]
        stop = int(np.searchsorted(start, root_end, side="right"))
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32)[root:root + stop].copy()
        self.parent = parent[:stop] - root
        self.start = start[:stop].copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64)[root:root + stop].copy()
        self.value = np.frombuffer(tracer.value, dtype=np.float64)[root:root + stop].copy()
        self.dur = self.end - self.start
        inside = self.parent >= 0
        self.child_time = np.bincount(
            self.parent[inside], weights=self.dur[inside], minlength=len(self.dur)
        )

    def __len__(self) -> int:
        return len(self.name)

    def mask(self, name: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n == name]
        if not ids:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == ids[0]

    def under(self, name: str, parent_name: str) -> np.ndarray:
        """Spans called ``name`` whose direct parent is a ``parent_name`` span."""
        m = self.mask(name)
        par = self.parent.clip(min=0)
        return m & (self.parent >= 0) & self.mask(parent_name)[par]

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total_ms(self, name: str) -> float:
        return float(1e3 * self.dur[self.mask(name)].sum())

    def mean_us(self, name: str, *, self_time: bool = False) -> float:
        m = self.mask(name)
        if not m.any():
            return 0.0
        d = self.dur[m] - (self.child_time[m] if self_time else 0.0)
        return float(1e6 * d.mean())


class Instrumentation:
    """A set of wrappers to install around the program's public functions.

    ``function(module, attr, name)`` wraps a module-level function under
    every ``repro`` module attribute bound to it; ``method(cls, attr,
    name)`` wraps a method (plain, or classmethod) on its class.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._targets: list[tuple] = []
        self._saved: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, name: str, measure=None) -> None:
        self._targets.append(("function", module, attr, name, measure))

    def method(self, cls, attr: str, name: str, measure=None) -> None:
        self._targets.append(("method", cls, attr, name, measure))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for kind, owner, attr, name, measure in self._targets:
            if kind == "method":
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.tracer.wrap(raw.__func__, name, measure))
                else:
                    new = self.tracer.wrap(raw, name, measure)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            wrapped = self.tracer.wrap(original, name, measure)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.remove()
