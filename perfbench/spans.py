"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules and the
``__post_init__`` of every container class they define, then rebinds each
wrapper in every ``norbrack.*`` namespace that imported the original by name,
so calls between modules are traced too.  A span is (name, start, end,
parent); spans are kept in flat arrays in memory and written out once, at the
end of the run.  ``uninstall`` puts the originals back, so untraced passes in
the same process run the unmodified code.

Nothing here runs at import time; the worker creates one Tracer per run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

from layers import LAYERS

ROOT_SPAN = "bench.pass"


def _diff4_bytes(counters, args, kwargs, result):
    # bytes the stencil reads, computed as float64 elements times 8
    values = args[0] if args else kwargs["values"]
    counters["fields.diff4.bytes_in"] += int(np.size(values)) * 8


def _spanning_matrix(counters, args, kwargs, result):
    columns = result.num_generators
    counters["spanning.columns"] += columns
    nbytes = 2 * result.grid_n * columns * 8
    counters["spanning.matrix_bytes"] = max(counters["spanning.matrix_bytes"], nbytes)


def _oneform_terms(counters, args, kwargs, result):
    counters["oneforms.terms"] += len(result)


# Counters read off arguments or results, by span name.
_HOOKS = {
    "fields.diff4": _diff4_bytes,
    "spanning.verify_spanning": _spanning_matrix,
    "oneforms.decompose_oneform": _oneform_terms,
}


class Tracer:
    """Records spans and counts for the traced passes of one run."""

    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.raised: Counter = Counter()
        self.counters: Counter = Counter()
        self._restore: list = []
        self.passes: list[dict] = []

    def _id(self, label: str, layer: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.span_names)
            self.span_names.append(label)
            self.layer_of.append(layer)
        return self._ids[label]

    def _wrap(self, fn, label: str, layer: str):
        name_id = self._id(label, layer)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        raised, counters, hook = self.raised, self.counters, _HOOKS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[layer] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions and containers and rebind the wrappers."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"norbrack.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    label = f"{layer}.{attr}.__post_init__"
                    obj.__post_init__ = self._wrap(original, label, layer)
                    self._restore.append((obj, "__post_init__", original))
        for modname, mod in list(sys.modules.items()):
            if modname != "norbrack" and not modname.startswith("norbrack."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run_pass(self, body) -> float:
        """Run body() traced under one root span; returns the pass wall time."""
        self.raised.clear()
        self.counters.clear()
        root = self._id(ROOT_SPAN, "bench")
        self.install()
        try:
            first = len(self.start)
            self.name.append(root)
            self.parent.append(-1)
            self.end.append(0.0)
            self._stack.append(first)
            t0 = time.perf_counter()
            self.start.append(t0)
            try:
                body()
            finally:
                t1 = time.perf_counter()
                self.end[first] = t1
                self._stack.pop()
        finally:
            self.uninstall()
        self.passes.append(
            {
                "first": first,
                "stop": len(self.start),
                "raised": dict(self.raised),
                "counters": dict(self.counters),
            }
        )
        return t1 - t0

    def pass_stats(self, k: int) -> dict:
        """Calls and self time per span name for traced pass k."""
        p = self.passes[k]
        lo, hi = p["first"], p["stop"]
        names = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi]
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=hi - lo)
        self_t = dur - child
        size = len(self.span_names)
        calls = np.bincount(names, minlength=size)
        self_s = np.bincount(names, weights=self_t, minlength=size)
        return {
            "calls": {label: int(calls[i]) for i, label in enumerate(self.span_names)},
            "self_s": {label: float(self_s[i]) for i, label in enumerate(self.span_names)},
            "layer_self_s": {
                layer: float(sum(self_s[i] for i, lay in enumerate(self.layer_of) if lay == layer))
                for layer in LAYERS
            },
            "spans": hi - lo,
            "raised": p["raised"],
            "counters": p["counters"],
        }

    def save(self, path) -> None:
        """Write every span of the run as arrays in one .npz file."""
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            pass_first=np.array([p["first"] for p in self.passes]),
        )
