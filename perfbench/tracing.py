"""In-memory spans recorded around calls into the library's modules.

A :class:`Tracer` keeps every span as four parallel arrays (name id,
start, end, parent index), so a traced phase of a few hundred thousand
spans stays a few megabytes; nothing is written until the benchmark ends.

Spans are added by replacing a function in the namespace where its caller
looks it up (``mtabl.layers.matmul`` is the ``matmul`` that the layer code
calls). :func:`patched` does the replacement and always restores the
originals. A target whose attribute no longer exists is reported as
absent, so a refactor that removes a function shows up as a missing
measurement instead of a zero.

All spans come from one thread, so the children of a span never overlap
each other and lie inside it; a span's self time is its duration minus
the summed durations of its children.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @property
    def current(self) -> int:
        """Index of the innermost open span, -1 at top level."""
        return self._stack[-1]

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }


@dataclass(frozen=True)
class SpanStats:
    calls: int
    total_s: float
    self_s: float


def aggregate(names: list[str], name_id, start, end, parent) -> dict[str, SpanStats]:
    """Calls, total time and self time per span name."""
    name_id = np.asarray(name_id, dtype=np.int64)
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(duration)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    self_time = duration - covered
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=duration, minlength=k)
    own = np.bincount(name_id, weights=self_time, minlength=k)
    return {
        name: SpanStats(int(calls[i]), float(total[i]), float(own[i]))
        for i, name in enumerate(names)
    }


def summarize(tracer: Tracer) -> dict[str, SpanStats]:
    a = tracer.arrays()
    return aggregate(tracer.names, a["name_id"], a["start"], a["end"], a["parent"])


def _resolve(module: str, attr: str):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None, None
    return mod, getattr(mod, attr, None)


@contextmanager
def patched(targets):
    """Install wrappers for ``targets`` for the duration of the block.

    ``targets`` is a list of ``(module, attr, make_wrapper)`` where
    ``make_wrapper(original)`` returns the replacement. Yields the list of
    ``"module.attr"`` names that could not be found.
    """
    installed = []
    absent = []
    try:
        for module, attr, make_wrapper in targets:
            mod, original = _resolve(module, attr)
            if original is None:
                absent.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, make_wrapper(original))
            installed.append((mod, attr, original))
        yield absent
    finally:
        for mod, attr, original in reversed(installed):
            setattr(mod, attr, original)


def scope_wrapper(tracer: Tracer):
    """Wrap ``linalg.scope`` so each scoped block becomes a span."""

    def make(real_scope):
        @contextmanager
        def scope(label):
            idx = tracer.open(f"linalg.scope.{label}")
            try:
                with real_scope(label):
                    yield
            finally:
                tracer.close(idx)

        return scope

    return make


def positional_wrapper(tracer: Tracer, prefix: str, kinds: list[str]):
    """Name each call after the kind of layer it serves.

    The n-th call made inside one parent span handles layer ``kinds[n]``:
    network code calls the per-layer function once per layer, in order
    (pass the kinds reversed for a backward sweep).
    """

    def make(fn):
        state = {"parent": None, "pos": 0}

        def traced(*args, **kwargs):
            parent = tracer.current
            if parent != state["parent"]:
                state["parent"], state["pos"] = parent, 0
            pos = state["pos"]
            state["pos"] = pos + 1
            kind = kinds[pos % len(kinds)]
            idx = tracer.open(f"{prefix}.{kind}")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    return make
