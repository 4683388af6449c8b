"""Span tracer installed around the public functions of the richop modules.

``Tracer.install`` replaces every public function and public method of the
layer modules with a wrapper that records a span (name, start, end, parent,
root) and adds to per-phase totals the call's self time (span minus child
spans) and its busy time (span, counted once when the name recurses). The
library's source is not touched: the wrappers are patched into every
``richop`` module namespace that holds the original function, so calls made
through ``from .x import f`` bindings are traced too.
``uninstall`` restores the originals.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("mesh", "coeff", "fem", "encoder", "reduced_basis", "richardson", "relu_net",
          "pipeline")  # the modules of src/richop that are traced

# Public names that modules import from each other but leave out of __all__.
_EXTRA = {"richardson": ("direct_solve",)}


# Work counts: rows of the named argument of a call, keyed by traced name.
_ITEMS = {
    "mesh.locate_points": "pts",
    "encoder.Encoder.channel_matrix": "pts",
    "relu_net.realize": "x",
}


class Tracer:
    """In-memory spans plus (phase, name) -> [calls, self s, items, busy s]."""

    def __init__(self):
        self.spans = []
        self.names = []
        self._name_ids = {}
        self.stats = defaultdict(lambda: [0, 0.0, 0, 0.0])
        self._stack = []  # frames: [span id, root id, child seconds]
        self._active = defaultdict(int)  # open spans per name
        self._phase = None
        self._patched = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name: str):
        self._active[name] += 1
        sid = len(self.spans)
        root = self._stack[-1][1] if self._stack else sid
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [sid, root, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, name: str, t0: float, t1: float, items: int):
        self._stack.pop()
        self._active[name] -= 1
        dur = t1 - t0
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[frame[0]] = (frame[0], parent, frame[1], self._name_id(name), t0, t1)
        entry = self.stats[(self._phase, name)]
        entry[0] += 1
        entry[1] += dur - frame[2]
        entry[2] += items
        if not self._active[name]:
            entry[3] += dur

    @contextmanager
    def root(self, phase: str):
        """Span for one benchmark operation; its children are attributed to `phase`."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._phase = phase
        frame, parent = self._enter("bench." + phase)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, parent, "bench." + phase, t0, time.perf_counter(), 0)
            self._phase = None

    def _wrap(self, name: str, fn):
        counted = _ITEMS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self._phase is None:
                return fn(*args, **kwargs)
            items = 0
            if counted:
                rows = signature.bind(*args, **kwargs).arguments[counted]
                items = int(np.atleast_2d(np.asarray(rows)).shape[0])
            frame, parent = self._enter(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, parent, name, t0, time.perf_counter(), items)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        package = [m for n, m in sys.modules.items() if n == "richop" or n.startswith("richop.")]
        for layer in LAYERS:
            module = sys.modules["richop." + layer]
            for attr in list(module.__all__) + list(_EXTRA.get(layer, ())):
                obj = getattr(module, attr)
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)
                elif isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for mod in package:
                        for key, val in list(vars(mod).items()):
                            if val is obj:
                                self._patch(mod, key, wrapper)

    def _wrap_methods(self, layer: str, cls) -> None:
        for key, val in list(vars(cls).items()):
            public = key == "__call__" or not key.startswith("_")
            if public and isinstance(val, types.FunctionType):
                self._patch(cls, key, self._wrap(f"{layer}.{cls.__name__}.{key}", val))

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def self_seconds(self, phase: str | None = None, layer: str | None = None) -> float:
        """Summed self time, optionally restricted to one phase and/or layer."""
        return sum(v[1] for (ph, name), v in self.stats.items()
                   if (phase is None or ph == phase)
                   and (layer is None or name.split(".")[0] == layer))

    def total(self, name: str, field: int) -> float:
        """Sum over phases of calls (0), self s (1), items (2) or busy s (3) of one name."""
        return sum(v[field] for (_ph, n), v in self.stats.items() if n == name)

    def write(self, path: str) -> None:
        """Spans as rows [id, parent, root, name id, start, end] plus the name table."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "columns": ["id", "parent", "root", "name",
                                                        "start_s", "end_s"],
                       "spans": [s for s in self.spans if s is not None]}, fh)
