"""Spans around fcsim's public functions, installed from outside the package.

`Tracer.install()` replaces every public function of the layer modules, and
every public method of their classes, with a wrapper that records a span.
Names that other fcsim modules bound with `from .x import y` (for example
`trialsim.signal_branch_probs`, or the `readout` imports of `fockstats` and
`estimators`) are rebound to the same wrappers. `uninstall()` restores them.

A span is `[name, start, end, parent, pass_id]`, with times in seconds since
the tracer was made and `parent` the index of the enclosing span (-1 at top
level). Spans stay in memory until `write()`. Spans recorded inside process
pool workers stay in those workers and are lost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "config", "readout", "fockstats", "trialsim", "estimators",
          "multiplex")


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = ""
        self._stack = []
        self._restore = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, time.perf_counter() - self._origin, 0.0,
               self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter() - self._origin
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("fcsim." + layer)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(value, meth,
                                      self._wrap(f"{layer}.{attr}.{meth}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "fcsim" and not modname.startswith("fcsim."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "pass": pass_id}) + "\n")


class SpanQuery:
    """Totals, counts and self times over the spans of one pass."""

    def __init__(self, spans, pass_id):
        self.spans = spans
        self.ids = [i for i, s in enumerate(spans) if s[4] == pass_id]
        child = {}
        for i in self.ids:
            parent = spans[i][3]
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + spans[i][2] - spans[i][1]
        self.self_s = {i: spans[i][2] - spans[i][1] - child.get(i, 0.0) for i in self.ids}
        self.ancestors = {}
        for i in self.ids:  # parents precede their children in `spans`
            parent = spans[i][3]
            self.ancestors[i] = (() if parent < 0
                                 else (parent,) + self.ancestors[parent])

    def _matching(self, name, under):
        for i in self.ids:
            if self.spans[i][0] != name:
                continue
            ancestors = self.ancestors[i]
            if any(self.spans[a][0] == name for a in ancestors):
                continue  # counted with its outermost call
            if under is None or under in ancestors:
                yield i

    def first(self, name):
        """Index of the first span with this name, or None."""
        return next((i for i in self.ids if self.spans[i][0] == name), None)

    def count(self, name, under=None):
        """Outermost calls of `name`, optionally only inside span `under`."""
        return sum(1 for _ in self._matching(name, under))

    def total(self, name, under=None):
        """Inclusive seconds of the outermost calls of `name`."""
        return sum((self.spans[i][2] - self.spans[i][1]
                    for i in self._matching(name, under)), 0.0)

    def elapsed(self):
        """Seconds covered by the pass's top-level spans."""
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self.ids if self.spans[i][3] < 0)

    def layer_self(self):
        """Layer -> (spans, self seconds); the layer is the first name part."""
        out = {}
        for i in self.ids:
            layer = self.spans[i][0].split(".", 1)[0]
            n, s = out.get(layer, (0, 0.0))
            out[layer] = (n + 1, s + self.self_s[i])
        return out
