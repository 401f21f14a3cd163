"""Span tracer that wraps the public functions of each sivreg layer from outside.

Nothing under ``src/`` is edited.  ``install`` discovers every function listed
in a layer module's ``__all__`` and rebinds a timing wrapper at every module
attribute that refers to it, because the modules import each other's names
(``from .blockops import apply_A``) and look them up in their own globals.
A function that a later version deletes or adds is picked up from ``__all__``
without any change here.

Spans (name, start, end, parent) are appended to flat arrays in memory and
only aggregated or written out after the run.  Self time is a span's duration
minus the time its direct children cover; the program is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "design", "blockops", "estimators", "inference", "simulation")
OP_SPAN = "bench.op"
# Recorded with its arguments so that repeated (cell, replication) draws show.
DRAW_FN = "simulation.generate_sample"


def _draw_key(args, kwargs):
    config = args[0] if args else kwargs.get("config")
    seed = args[1] if len(args) > 1 else kwargs.get("seed")
    if isinstance(seed, np.random.SeedSequence):
        seed = (seed.entropy, tuple(seed.spawn_key))
    return (config, seed)


class Tracer:
    """Records one span per call into a traced function, grouped by op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.draw_keys: list = []  # (span index, key) per generate_sample call
        self.functions: list[str] = []  # layer.function names found at install
        self._stack = [-1]
        self._restore: list = []

    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, qualname: str):
        nid = self._intern(qualname)
        opn, close = self._open, self._close
        if qualname == DRAW_FN:
            keys = self.draw_keys

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = opn(nid)
                keys.append((idx, _draw_key(args, kwargs)))
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = opn(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer that exists."""
        wrappers, names = {}, []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"sivreg.{layer}")
            except ModuleNotFoundError:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    names.append(f"{layer}.{attr}")
                    wrappers[id(fn)] = (fn, self._wrap(fn, names[-1]))
        for modname, module in list(sys.modules.items()):
            if modname != "sivreg" and not modname.startswith("sivreg."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self.functions = sorted(names)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def begin_op(self) -> int:
        return self._open(self._intern(OP_SPAN))

    def end_op(self, idx: int) -> None:
        self._close(idx)

    def arrays(self):
        """(name id, parent, start, end) as numpy arrays."""
        return (
            np.frombuffer(self.name, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def per_op(self):
        """Per traced op: wall time, and {function: (calls, self seconds)}.

        Also returns, per op, the number of distinct (cell, replication)
        draws and of draw calls.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        op_id = self._name_id[OP_SPAN]
        roots = np.flatnonzero(name == op_id)
        bounds = list(roots) + [dur.size]
        draw_idx = np.array([i for i, _ in self.draw_keys], dtype=np.int64)
        ops = []
        for k, root in enumerate(roots):
            lo, hi = bounds[k], bounds[k + 1]
            ids = name[lo:hi]
            calls = np.bincount(ids, minlength=len(self.names))
            selfs = np.bincount(ids, weights=self_time[lo:hi], minlength=len(self.names))
            stats = {
                self.names[i]: (int(calls[i]), float(selfs[i]))
                for i in np.flatnonzero(calls)
            }
            in_op = (draw_idx >= lo) & (draw_idx < hi)
            keys = [self.draw_keys[j][1] for j in np.flatnonzero(in_op)]
            ops.append(
                {
                    "wall_s": float(dur[root]),
                    "functions": stats,
                    "draw_calls": len(keys),
                    "distinct_draws": len(set(keys)),
                }
            )
        return ops

    def save(self, path) -> None:
        """Write every span as a compressed numpy archive."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start,
            end=end,
        )
