"""Per-layer spans around fieldstar's public functions, installed from outside.

A layer is a fieldstar module.  ``Tracer.install`` replaces every public
function and method of the traced modules with a wrapper that opens a span
named after the layer.  Modules import each other's names with
``from .x import y``, so every ``fieldstar.*`` module attribute that is the
original function is rebound, not only the defining one.  ``uninstall``
puts every original back; the untraced run never installs a wrapper.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Each op runs inside a root span of its own, so the
self times of all layers plus the root spans' self time (``unattributed``)
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rationals", "jets", "kernels", "tensor", "sigma", "euler_lagrange",
          "poisson", "star", "parser", "render", "session", "cli")
ROOT = "op"

# Dunder methods that do the arithmetic; other dunders (construction,
# hashing, printing) stay unwrapped.
TRACED_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__", "__pow__", "__eq__", "__bool__"})
RATIONAL_OPS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                          "__mul__", "__rmul__", "__truediv__", "__neg__"})
# Multi-index and atom helpers cost less than recording a span; their time
# stays with the caller.
UNTRACED = frozenset({"mi_zero", "mi_unit", "mi_add", "mi_order", "mi_grlex",
                      "jet_atom", "const_atom", "func_atom", "atom_key",
                      "delta_atom"})
SPAN_CAP = 50_000  # spans kept in memory for writing out


def self_times(spans) -> dict:
    """Self time per span name from a complete list of (id, name, start,
    end, parent, op) records: each span's duration, less the durations of
    its children.  The tracer computes the same sums as spans close."""
    name_of = {s[0]: s[1] for s in spans}
    out: dict = defaultdict(float)
    for _sid, name, start, end, parent, _op in spans:
        out[name] += end - start
        if parent is not None:
            out[name_of[parent]] -= end - start
    return dict(out)


class Tracer:
    """Span stack, per-layer self time and counters of one traced run."""

    def __init__(self, clock=time.perf_counter, span_cap: int = SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.active = False
        self.stack = []          # [name, start, child_time, span_id]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []          # (id, name, start, end, parent, op)
        self.spans_dropped = 0
        self.wall_s = 0.0        # total duration of the root spans
        self.next_id = 0
        self.op_id = -1
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._saved = []         # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def push(self, name: str):
        self.stack.append([name, self.clock(), 0.0, self.next_id])
        self.next_id += 1

    def pop(self):
        name, start, child, sid = self.stack.pop()
        end = self.clock()
        duration = end - start
        self.self_s[name] += duration - child
        parent = None
        if self.stack:
            top = self.stack[-1]
            top[2] += duration
            parent = top[3]
        else:
            self.wall_s += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, name, start, end, parent, self.op_id))
        else:
            self.spans_dropped += 1

    def run_op(self, fn):
        """Run one op inside a root span, with recording switched on."""
        self.op_id += 1
        self.active = True
        self.push(ROOT)
        try:
            return fn()
        finally:
            self.pop()
            self.active = False

    # -- garbage collector pauses -------------------------------------------

    def _on_gc(self, phase, _info):
        if not self.active:
            return
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_pause_s += self.clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        counts = self.counts
        is_op = layer == "rationals" and name in RATIONAL_OPS
        add_copy = layer == "tensor" and name == "__add__"
        special = {
            ("tensor", "__mul__"): "tensor.mul_calls",
            ("tensor", "integrate_out"): "tensor.integrate_out_calls",
            ("poisson", "functional_null"): "poisson.null_checks",
        }.get((layer, name))
        chars_in = layer == "parser" and name in (
            "parse_expr", "parse_kernel", "parse_functional")
        chars_out = layer == "render"
        exp_sigma = layer == "star" and name == "exp_sigma"
        calls_key = f"{layer}.calls"
        terms_key = f"{layer}.terms_out"

        if inspect.isgeneratorfunction(fn):
            # a generator does its work in next(): time each step as a span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if tracer.active:
                    counts[calls_key] += 1
                while True:
                    if not tracer.active:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        yield item
                        continue
                    tracer.push(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.pop()
                    counts[f"{layer}.powers"] += 1
                    counts[terms_key] += len(item.terms)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop()
            counts[calls_key] += 1
            if is_op:
                counts["rationals.ops"] += 1
            elif add_copy:
                counts["tensor.add_calls"] += 1
                counts["tensor.add_terms_copied"] += len(args[0].terms)
            elif special:
                counts[special] += 1
            elif chars_in and args and isinstance(args[0], str):
                counts["parser.chars_in"] += len(args[0])
            elif exp_sigma:
                counts["star.exp_sigma_calls"] += 1
                counts["star.exact"] += bool(result.exact)
            if chars_out and isinstance(result, str):
                counts["render.chars_out"] += len(result)
            terms = getattr(result, "terms", None)
            if type(terms) is dict:
                counts[terms_key] += len(terms)
            return result
        return wrapper

    def _set(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced layers of the loaded fieldstar modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "fieldstar"
                                           or name.startswith("fieldstar."))}
        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = modules.get(f"fieldstar.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and attr not in UNTRACED and id(obj) not in replaced:
                    replaced[id(obj)] = self._wrap(layer, attr, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])
        gc.callbacks.append(self._on_gc)

    def _wrap_class(self, layer: str, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(layer, attr, obj.__func__))
            elif inspect.isfunction(obj):
                wrapped = self._wrap(layer, attr, obj)
            else:
                continue
            self._set(cls, attr, wrapped)

    def uninstall(self):
        """Put back every original, in reverse order of replacement."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer figure, keyed ``<layer>.<metric>``."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.counts[f"{layer}.calls"]
        for key in ("rationals.ops", "jets.terms_out", "tensor.add_calls",
                    "tensor.add_terms_copied", "tensor.mul_calls",
                    "tensor.integrate_out_calls", "tensor.terms_out",
                    "sigma.powers", "sigma.terms_out", "poisson.null_checks",
                    "star.exp_sigma_calls", "parser.chars_in",
                    "render.chars_out"):
            out[key] = self.counts[key]
        calls = self.counts["star.exp_sigma_calls"]
        out["star.exact_ratio"] = self.counts["star.exact"] / max(calls, 1)
        out["gc.collections"] = self.gc_collections
        out["gc.pause_s"] = self.gc_pause_s
        out["unattributed_s"] = self.self_s.get(ROOT, 0.0)
        out["traced_wall_s"] = self.wall_s
        return out
