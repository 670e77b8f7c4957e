"""In-memory spans around calls into avgmix, recorded from outside the package.

A `Tracer` replaces a name where its caller looks it up -- a module
attribute such as ``avgmix.census.average_mixing_exact``, or a method on a
class such as ``avgmix.graphs.Graph.delete_vertex`` -- with a wrapper that
records one span per call: its name, start, end and the span that was open
when it began.  Nothing under ``src/`` changes, and `restore` puts every
original back.  A span's self time is its duration minus the time its
child spans cover.

Modules are taken from `importlib.import_module`: ``import avgmix.census as m``
binds the package attribute ``avgmix.census``, which the package's
``__init__`` rebinds to the re-exported *function* ``census``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    tally: int = 0


class Tracer:
    """Span recorder; spans live in flat arrays until `summary` reads them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._tally = array("q")
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._tally.append(0)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, target: str, name: str, tally=None) -> None:
        """Wrap ``"module:attr"`` or ``"module:Class.method"`` under a span name.

        `tally(result)` adds an integer to the span's tally; a generator
        function gets one span per item drawn and tallies the items.
        """
        modname, attr = target.split(":")
        owner = importlib.import_module(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = getattr(owner, leaf)
        nid = self._id(name)
        begin, finish, tallies = self.begin, self.finish, self._tally

        if inspect.isgeneratorfunction(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                it = orig(*args, **kwargs)
                while True:
                    idx = begin(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        finish(idx)
                    tallies[nid] += 1
                    yield item
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                idx = begin(nid)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    finish(idx)
                if tally is not None:
                    tallies[nid] += tally(result)
                return result

        setattr(owner, leaf, wrapper)
        self._patches.append((owner, leaf, orig))

    def restore(self) -> None:
        while self._patches:
            owner, leaf, orig = self._patches.pop()
            setattr(owner, leaf, orig)

    def summary(self) -> dict[str, SpanStats]:
        """Per-name calls, self seconds and tally; then forget all spans."""
        if self._stack:
            raise RuntimeError("summary taken while a span is open")
        stats = [SpanStats(tally=self._tally[i]) for i in range(len(self.names))]
        name, parent, start, end = self._name, self._parent, self._start, self._end
        for i in range(len(start)):
            dur = end[i] - start[i]
            s = stats[name[i]]
            s.calls += 1
            s.self_s += dur
            if parent[i] >= 0:
                stats[name[parent[i]]].self_s -= dur
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        for i in range(len(self._tally)):
            self._tally[i] = 0
        return dict(zip(self.names, stats))
