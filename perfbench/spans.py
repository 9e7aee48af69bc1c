"""Span tracing of the secantgeo package from outside, without editing it.

`Tracer.install()` wraps every public module-level function of each layer
module (plus `PolyMap.jacobian_at`) and rebinds the wrapper under every name
the package binds the original to.  The modules import each other with
`from .x import y`, so rebinding only the defining module would miss most
calls; function-local imports read the defining module at call time and so
pick the wrapper up as well.

Each call records a span: name, layer, start, end, and the span that caused
it.  A span's self time is its duration minus that of its child spans.
`scalars` gets no spans (its public surface is one call per arithmetic
operation, so its cost shows up in the callers' self time); `zoo` and
`algebras` run only while the inputs are generated.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("linalg", "quadrics", "genericity", "oracles", "polymaps", "jets", "series",
          "defects", "report", "cli")
# methods traced like functions: the one the oracles call per sample
METHODS = (("polymaps", "PolyMap", "jacobian_at"),)
# rank/rref inputs are counted in entries (rows x cols)
SIZED = ("linalg.rank", "linalg.rref")
PACKAGE = "secantgeo"
# The only genericity spans whose time is genericity's own.  Its other
# functions draw random points and streams for whoever calls them (inside a
# certified value's samples or not), so their spans are charged to the layer
# of the enclosing span.
BOOKKEEPING = ("genericity.certified_value",)


class Tracer:
    """Records spans and exact work counts for the calls made while installed.

    `records` keeps (span id, parent id, name, start, end) of the current
    recording; `stats` maps span name to [calls, inclusive s, self s];
    `counts` holds the exact counters (entries, samples, escalations ...)."""

    def __init__(self):
        self._patches = []
        self._stack = []  # [span id, name, layer, start, child seconds]
        self._open = {}  # name -> nesting depth, so inclusive time counts once
        self.keep_records = False
        self.records = []
        self.reset()

    def reset(self):
        """Clear the stats and counts (not the kept records) for a new pass."""
        self.stats = {}
        self.layer_self = {}
        self.layer_calls = {}
        self.counts = {"entries": {}, "samples": 0, "batches": 0, "certified": 0,
                       "oracle_spans_qs": 0}
        self.largest = (0, 0)
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def _enter(self, name, layer):
        """Opens a span; a layer of None is taken from the enclosing span."""
        if layer is None:
            layer = self._stack[-1][2] if self._stack else "genericity"
        self._next_id += 1
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([self._next_id, name, layer, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        sid, name, layer, start, child = self._stack.pop()
        dur = end - start
        depth = self._open[name] - 1
        self._open[name] = depth
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        if depth == 0:
            st[1] += dur
        st[2] += dur - child
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + dur - child
        self.layer_calls[layer] = self.layer_calls.get(layer, 0) + 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        if self.keep_records:
            self.records.append((sid, parent[0] if parent else 0, name, start, end))

    def current(self):
        """(name, layer) of the innermost open span, or None."""
        return (self._stack[-1][1], self._stack[-1][2]) if self._stack else None

    def _wrap(self, fn, name, layer):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        if name in SIZED:
            @functools.wraps(fn)
            def sized(m, *args, **kwargs):
                entries = self.counts["entries"]
                entries[name] = entries.get(name, 0) + m.rows * m.cols
                if m.rows * m.cols > self.largest[0] * self.largest[1]:
                    self.largest = (m.rows, m.cols)
                return traced(m, *args, **kwargs)

            return sized
        if name == "genericity.certified_value":
            return self._wrap_certified(fn, traced)
        return traced

    def _wrap_certified(self, fn, traced):
        """Counts the draws of each certified value.  Each draw runs in a span
        of the layer that asked for the value, so genericity's self time is
        only its bookkeeping."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def certified(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            sample, trials = bound.arguments["sample"], bound.arguments["trials"]
            caller = self.current() or ("<top>", "<top>")
            drawn = [0]

            def counted_sample(*a, **kw):
                drawn[0] += 1
                self._enter(caller[0] + ".sample", caller[1])
                try:
                    return sample(*a, **kw)
                finally:
                    self._exit()

            bound.arguments["sample"] = counted_sample
            try:
                value = traced(*bound.args, **bound.kwargs)
            finally:
                self.counts["samples"] += drawn[0]
                self.counts["batches"] += -(-drawn[0] // trials)
            self.counts["certified"] += 1
            return value

        return certified

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the layer functions of the already imported package."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[PACKAGE + "." + layer]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    span = layer + "." + name
                    owner = layer if layer != "genericity" or span in BOOKKEEPING else None
                    wrappers[obj] = self._wrap(obj, span, owner)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[PACKAGE + "." + layer], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(orig, layer + "." + meth, layer))
            self._patches.append((cls, meth, orig))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patches.append((mod, name, obj))

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()
