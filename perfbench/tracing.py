"""In-memory span tracer for the benchmark's traced runs.

A `Tracer` replaces functions at the attribute they are looked up under
(a module global, or a method on a class) with a wrapper that records
one span per call: name, start, end and the span that was open when
the call began. Spans live in flat arrays until the run ends; nothing
is written while the study runs, so its output directory only ever
holds the study's own files. `restore` puts every original back.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _replace(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None):
        """Trace calls to `owner.attr` as spans called `name`.

        `on_result(tracer, args, kwargs, result)` and
        `on_error(tracer, exc)` let a layer keep counts at the same
        boundary; exceptions still propagate unchanged.
        """
        original = getattr(owner, attr)
        nid = self._id(name)
        clock, stack = time.perf_counter, self._stack
        starts, ends = self.start, self.end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            starts[idx] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(self, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        self._replace(owner, attr, traced)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls to `owner.attr` without recording spans."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def restore(self) -> None:
        """Put back every wrapped attribute, most recent first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.asarray(self.name_id, dtype=np.int32),
                "start": np.asarray(self.start, dtype=float),
                "end": np.asarray(self.end, dtype=float),
                "parent": np.asarray(self.parent, dtype=np.int32)}

    def save(self, path) -> None:
        """Write the spans and counts as one .npz file."""
        np.savez(path, names=np.asarray(self.names), **self.arrays(),
                 count_names=np.asarray(sorted(self.counts)),
                 count_values=np.asarray([self.counts[k]
                                          for k in sorted(self.counts)]))


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are merged as intervals and clipped to their parent, so
    overlapping or overhanging children are not counted twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros(start.size)
    order = np.lexsort((start, parent))
    s, e, par = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = par[i]
        if p < 0:
            continue
        if p != current:
            current, reach = p, s[p]
        lo = max(s[i], reach)
        hi = min(e[i], e[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered

