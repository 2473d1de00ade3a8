"""Per-layer tracing of rcg from outside the program.

``Tracer.install`` replaces every public function of every rcg module, and
every public method and arithmetic dunder of the classes those modules
define, by a wrapper that counts the call and times it as a span of the
module's layer.  A function is replaced under every name that refers to it
in any rcg module, so calls through names other modules bound on import
(``rcg.slgroup.det``, ``rcg.decomp.det``, ``rcg.puiseux.tower_sqrt`` ...)
are traced too.  ``uninstall`` puts the originals back.

The scalar layers are called millions of times, so spans are not stored:
each wrapper adds to per-layer counters and times in memory.  A layer's
self time is the duration of its spans minus the time covered by the spans
they enclose, whatever layer those belong to.  Times are CPU time of the
process, as in run.py.
"""

from __future__ import annotations

import sys
import types
from collections import Counter
from time import process_time

#: rcg modules traced, by layer name
LAYERS = ("tower", "puiseux", "linalg", "slgroup", "decomp", "nilpotent",
          "kostant", "rootsys", "parsing", "cli")

#: dunders that do a layer's work; other dunders are left alone
DUNDERS = frozenset({
    "__init__", "__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
    "__eq__", "__lt__", "__getitem__", "__str__", "__float__",
})

ADD = ("__add__", "__radd__", "__sub__", "__rsub__")
MUL = ("__mul__", "__rmul__")
#: binary TowerScalar ops that bring both operands to a common tower
TOWER_BINARY = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__eq__")

#: named counters: (layer, qualified name) -> counter
COUNTERS = {
    **{("tower", "TowerScalar." + m): "tower.add_calls" for m in ADD},
    **{("tower", "TowerScalar." + m): "tower.mul_calls" for m in MUL},
    ("tower", "TowerScalar.inv"): "tower.inv_calls",
    ("tower", "TowerScalar.sign"): "tower.sign_calls",
    ("tower", "sqrt_positive"): "tower.sqrt_calls",
    **{("puiseux", "PuiseuxScalar." + m): "puiseux.add_calls" for m in ADD},
    **{("puiseux", "PuiseuxScalar." + m): "puiseux.mul_calls" for m in MUL},
    ("puiseux", "PuiseuxScalar.invert"): "puiseux.invert_calls",
    ("puiseux", "PuiseuxScalar.sqrt_positive"): "puiseux.sqrt_calls",
    ("linalg", "det"): "linalg.det_calls",
    **{("linalg", f): "linalg.solve_calls" for f in ("solve", "inverse", "kernel", "rank")},
    **{("linalg", f): "linalg.eigen_calls"
       for f in ("char_poly", "sym_eigen_tower", "sym_eigen_lift")},
    ("slgroup", "GroupElement.__init__"): "slgroup.element_inits",
    ("cli", "run"): "cli.runs",
    ("parsing", "parse_matrix"): "parsing.calls",
    ("parsing", "parse_scalar"): "parsing.calls",
    ("parsing", "print_matrix"): "parsing.calls",
}

#: inclusive timers (outermost span only): (layer, qualified name) -> timer
TIMERS = {
    ("linalg", "det"): "linalg.det_s",
    ("linalg", "char_poly"): "linalg.eigen_s",
    ("linalg", "sym_eigen_tower"): "linalg.eigen_s",
    ("linalg", "sym_eigen_lift"): "linalg.eigen_s",
    ("slgroup", "GroupElement.__init__"): "slgroup.element_init_s",
    ("nilpotent", "bch_series_terms"): "nilpotent.bch_series_s",
}

#: layers whose every traced call is also counted as "<layer>.calls"
COUNT_ALL = ("decomp", "nilpotent", "kostant", "rootsys")


class Tracer:
    def __init__(self, rcg):
        self.rcg = rcg
        self.counts = Counter()
        self.self_s = Counter()
        self.timers = Counter()
        self.stack = []
        self.open_timers = Counter()
        self.max_depth = 0
        self.mul_terms = 0
        self.spans = 0
        self._patches = []

    # -- installing ------------------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "rcg" or name.startswith("rcg."))]

    def install(self):
        modules = self._modules()
        for layer in LAYERS:
            module = getattr(self.rcg, layer)
            classes = set()
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                    wrapper = self._wrap(value, layer, name)
                    for m in modules:
                        for attr, v in list(vars(m).items()):
                            if v is value:
                                self._patch(m, attr, wrapper)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    classes.add(value)
                elif type(value).__module__ == module.__name__:
                    classes.add(type(value))  # e.g. linalg.TOWER, an instance
            for cls in classes:
                self._wrap_class(cls, layer)

    def _wrap_class(self, cls, layer):
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(value, types.FunctionType):
                self._patch(cls, name, self._wrap(value, layer, qual))
            elif isinstance(value, (staticmethod, classmethod)):
                wrapped = self._wrap(value.__func__, layer, qual)
                self._patch(cls, name, type(value)(wrapped))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, fn, layer, qual):
        counter = COUNTERS.get((layer, qual))
        if counter is None and layer in COUNT_ALL:
            counter = layer + ".calls"
        timer = TIMERS.get((layer, qual))
        before, after = self._hooks(layer, qual)
        counts, self_s, timers = self.counts, self.self_s, self.timers
        stack, open_timers = self.stack, self.open_timers
        tracer = self

        def traced(*args, **kwargs):
            tracer.spans += 1
            if counter is not None:
                counts[counter] += 1
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            if timer is not None:
                open_timers[timer] += 1
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = process_time() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if timer is not None:
                    open_timers[timer] -= 1
                    if not open_timers[timer]:
                        timers[timer] += dur
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, layer, qual):
        """Extra bookkeeping before a call (on its arguments) and after it
        (on its result), for the counters that look at operands."""
        cls, _, method = qual.rpartition(".")
        before = after = None
        if layer == "tower" and cls == "TowerScalar" and method in TOWER_BINARY:
            before = self._mixed
        if (layer == "tower" and cls == "TowerScalar" and method in ADD + MUL) or (
                layer == "tower" and qual == "sqrt_positive"):
            after = self._depth
        if layer == "puiseux" and cls == "PuiseuxScalar" and method in MUL:
            before = self._terms
        if layer == "linalg" and cls == "Matrix" and method == "__mul__":
            before = self._matmul
        if layer == "parsing" and qual in ("parse_matrix", "parse_scalar"):
            before = self._bytes
        return before, after

    def _mixed(self, args):
        """Count the operations that merge two towers: neither operand's
        tower is a prefix of the other's (a prefix is only zero-padded)."""
        a, b = args[0].tower, getattr(args[1], "tower", None)
        if b is not None and not a.is_prefix_of(b) and not b.is_prefix_of(a):
            self.counts["tower.mixed_ops"] += 1

    def _depth(self, result):
        depth = len(result.tower.radicands)
        if depth > self.max_depth:
            self.max_depth = depth

    def _terms(self, args):
        b = args[1]
        self.mul_terms += len(args[0].terms) + (len(b.terms) if hasattr(b, "terms") else 1)

    def _matmul(self, args):
        if hasattr(args[1], "data"):
            self.counts["linalg.matmul_calls"] += 1

    def _bytes(self, args):
        self.counts["parsing.bytes"] += len(args[0].encode())

    # -- results -----------------------------------------------------------------

    def metrics(self):
        out = {}
        for name in PER_LAYER_COUNTS:
            out[name] = (self.counts[name], "bytes" if name == "parsing.bytes" else "count")
        muls = self.counts["puiseux.mul_calls"]
        out["tower.max_depth"] = (self.max_depth, "levels")
        out["puiseux.mean_terms"] = (self.mul_terms / (2 * muls) if muls else 0.0, "terms")
        for name in PER_LAYER_TIMERS:
            out[name] = (self.timers[name], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["trace.spans"] = (self.spans, "count")
        return out


PER_LAYER_COUNTS = (
    "tower.add_calls", "tower.mul_calls", "tower.inv_calls", "tower.sign_calls",
    "tower.sqrt_calls", "tower.mixed_ops",
    "puiseux.add_calls", "puiseux.mul_calls", "puiseux.invert_calls", "puiseux.sqrt_calls",
    "linalg.matmul_calls", "linalg.det_calls", "linalg.solve_calls", "linalg.eigen_calls",
    "slgroup.element_inits", "decomp.calls", "nilpotent.calls", "kostant.calls",
    "rootsys.calls", "parsing.calls", "parsing.bytes", "cli.runs",
)
PER_LAYER_TIMERS = ("linalg.det_s", "linalg.eigen_s", "slgroup.element_init_s",
                    "nilpotent.bch_series_s")
