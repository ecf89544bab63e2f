"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's side only: ``install`` replaces
every public ``delchan`` function that a ``delchan`` module holds in its
namespace (its own functions and the ones it imports from the layers
below) with a wrapper that opens a span around the call.  Because module
code looks its globals up at call time, calls between modules and within
a module both pass through the wrappers; nothing in ``src/`` changes.

Each span is (name, start, end, parent, op id).  Spans stay in memory
until the run ends and are written once by ``Tracer.save``.  The
tracer keeps one stack of open spans, so it is only valid for calls made
from a single thread; the benchmark runs every traced op at threads = 1.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from time import perf_counter
from typing import Callable

import numpy as np

# work units counted at a span boundary, computed from the call's inputs
WorkFn = Callable[..., int]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _band_cells(x, y, *_a, **_k) -> int:
    # cells of the band 0 <= i - j <= n - m that can reach N(x, y)
    n, m = len(x), len(y)
    return n * (n - m + 1)


WORK: dict[str, WorkFn] = {
    "likelihood.embedding_count": _band_cells,
    "sources.sample_sequence": lambda *a, **k: int(_arg(a, k, 1, "n")),
    "channel.transmit": lambda *a, **k: len(_arg(a, k, 0, "x")),
    "estimation.estimate_h_cond": lambda *a, **k: int(_arg(a, k, 3, "samples")),
}


class Tracer:
    """Records nested spans and per-span work counts for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one (id, name, parent, op, work, start, end) tuple per span, in
        # the order the spans end; ids number them in the order they start
        self._records: list[tuple] = []
        self._stack: list[int] = [-1]
        self._next_id = itertools.count().__next__
        self.op_id = -1
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, work: "WorkFn | None" = None) -> Callable:
        """``fn`` with a span named ``name`` around each call while active."""
        nid = self._name_id(name)
        # bound methods held in the closure keep the per-call cost near 1 us
        stack, push, pop = self._stack, self._stack.append, self._stack.pop
        record, next_id = self._records.append, self._next_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = next_id()
            parent = stack[-1]
            push(i)
            units = work(*args, **kwargs) if work else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                pop()
                record((i, nid, parent, self.op_id, units, start, end))

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self, package: str = "delchan") -> None:
        """Wrap every public function of ``package`` in every module namespace."""
        wrappers: dict[int, Callable] = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and n.startswith(package + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(package + "."):
                    continue
                if getattr(value, "__wrapped_by_tracer__", False):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    name = f"{home[len(package) + 1:]}.{value.__name__}"
                    wrapper = self.wrap(name, value, WORK.get(name))
                    wrappers[id(value)] = wrapper
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns indexed by span id; ``parent`` is -1 at a root."""
        rec = sorted(self._records)
        cols = list(zip(*rec)) if rec else [()] * 7
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.array(cols[1], dtype=np.int32),
            "parent": np.array(cols[2], dtype=np.int64),
            "op": np.array(cols[3], dtype=np.int32),
            "work": np.array(cols[4], dtype=np.int64),
            "start": np.array(cols[5], dtype=np.float64),
            "end": np.array(cols[6], dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it covered by its children.

    The tracer keeps one stack, so a span's children run one after another
    inside it: the part they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    out = dur.copy()
    child = parent >= 0
    np.subtract.at(out, parent[child], dur[child])
    return out


def summarize(arrays: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and work units."""
    names = arrays["names"].tolist()
    selfs = self_times(arrays["start"], arrays["end"], arrays["parent"])
    dur = arrays["end"] - arrays["start"]
    table: dict[str, dict] = {}
    for nid, name in enumerate(names):
        sel = arrays["name"] == nid
        if not sel.any():
            continue
        table[name] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(selfs[sel].sum()),
            "work": int(arrays["work"][sel].sum()),
        }
    return table
