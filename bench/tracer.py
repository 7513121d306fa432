"""Spans and call counts recorded around misti's public functions.

The wrappers live here, outside the program: ``Tracer.install`` rebinds each
traced function in every ``misti.*`` namespace that holds it (a function
imported with ``from .x import f`` is a separate name in the importing
module), so cross-module calls are timed too.  Three kinds of wrapper:

* ``span``: one record (name, start, end, parent) per call, kept in memory;
* ``timed``: hot leaves; call count and summed time only, and that time is
  charged to the enclosing span as covered by a child;
* ``count``: the hottest leaves; call count only.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, leaf seconds]
        self.calls = {}  # name -> calls of timed and count wrappers
        self.leaf_s = {}  # name -> summed seconds of timed wrappers
        self._stack = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None, 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return wrapper

    def _timed(self, name, fn):
        spans, stack, calls, leaf_s, clock = (
            self.spans, self._stack, self.calls, self.leaf_s, time.perf_counter,
        )
        calls.setdefault(name, 0)
        leaf_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                leaf_s[name] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def _count(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets):
        """Wrap ``(module, attribute, kind)`` targets; an attribute may be
        ``Class.method``.  Module-level functions are rebound in every loaded
        ``misti`` namespace that refers to the same object."""
        make = {"span": self._span, "timed": self._timed, "count": self._count}
        for module, attr, kind in targets:
            name = f"{module}.{attr.split('.')[0]}"
            owner = sys.modules[f"misti.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, make[kind](name, original))
                continue
            original = getattr(owner, attr)
            wrapped = make[kind](name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "misti" and not mod_name.startswith("misti."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, holder, key, value):
        self._undo.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, value)

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.spans.clear()
        for name in self.calls:
            self.calls[name] = 0
        for name in self.leaf_s:
            self.leaf_s[name] = 0.0


def layer_metrics(spans, calls, leaf_s):
    """Per-name totals: ``s`` (inclusive, outermost calls only), ``self_s``
    and ``calls``.

    ``spans`` holds ``(name, start, end, parent, leaf_seconds)`` records with
    parents listed before their children.  Self time is a span's duration
    minus the part of it covered by its child spans and minus the time of
    the timed leaves called directly under it.
    """
    children = [[] for _ in spans]
    for record in spans:
        if record[3] is not None:
            children[record[3]].append(record)
    out = {}
    for i, (name, start, end, parent, leaf) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        covered = _covered(start, end, [(c[1], c[2]) for c in children[i]])
        entry["self_s"] += max(0.0, (end - start) - covered - leaf)
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["s"] += end - start
    for name, n in calls.items():
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += n
        seconds = leaf_s.get(name, 0.0)
        entry["s"] += seconds
        entry["self_s"] += seconds
    return out


def _covered(start, end, intervals):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
