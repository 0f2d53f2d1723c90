"""Span tracing of the kolberg package from outside its source.

The tracer replaces module attributes (public module-level functions of
every kolberg module, plus the arithmetic operators of RatFunc) with
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans live in flat arrays in memory
and are reduced to per-layer totals once the traced pass ends.  Nothing
under src/ is edited; the package sees the wrappers only because its
own modules look these names up at call time.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from collections import Counter

MODULES = ("rational", "parsing", "assoc", "quatuor", "numeric", "cli")

# RatFunc operators that are traced, by the span name they report under.
RATFUNC_OPS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add",
    "__truediv__": "truediv", "__rtruediv__": "truediv",
    "__pow__": "pow",
}


def _ring_tag(field) -> str:
    return "QQ" if getattr(field, "name", "") == "Q" else "QY"


def _observers():
    """Per-function hooks: (span-name suffix, counter update).

    A suffix function picks the span name from the arguments (the ring
    of a transform); an observer adds counts from arguments and result.
    """

    def assoc_suffix(seq, *a, **k):
        return "." + _ring_tag(seq.ring)

    def taylor_suffix(R, *a, **k):
        return "." + _ring_tag(R.num.field)

    def assoc_terms(counts, args, kwargs, result, exc):
        if result is not None:
            n = len(result.values) - 1
            counts["assoc.terms"] += n * (n + 1) // 2

    def parse_chars(counts, args, kwargs, result, exc):
        counts["parsing.parse_to.chars"] += len(args[0])

    def step_up(counts, args, kwargs, result, exc):
        counts["quatuor.step_up.calls"] += 1
        counts["quatuor.step_up.fertile"] += exc is None

    def series_terms(counts, args, kwargs, result, exc):
        if result is not None:
            counts["numeric.eval_theorem_series.terms"] += result.terms_used

    def identity(counts, args, kwargs, result, exc):
        if result is None:
            return
        counts["numeric.check_identity.terms"] += result.terms_used
        if kwargs.get("perturb") or (len(args) > 5 and args[5]):
            counts["numeric.check_identity.injected"] += 1
            counts["numeric.check_identity.detected"] += not result.passed
        else:
            counts["numeric.check_identity.clean"] += 1
            counts["numeric.check_identity.passed"] += result.passed

    return {
        "assoc.from_associated": (assoc_suffix, assoc_terms),
        "assoc.to_associated": (assoc_suffix, assoc_terms),
        "quatuor.taylor_series": (taylor_suffix, None),
        "parsing.parse_to": (None, parse_chars),
        "quatuor.step_up": (None, step_up),
        "numeric.eval_theorem_series": (None, series_terms),
        "numeric.check_identity": (None, identity),
    }


class Tracer:
    """Records nested spans of calls into the package while active."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.recursive = array("b")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, suffix=None, observe=None):
        base_id = self._id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nid = base_id if suffix is None \
                else tracer._id(name + suffix(*args, **kwargs))
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.recursive.append(tracer._depth[nid] > 0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer._depth[nid] += 1
            result = exc = None
            tracer.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                tracer.end[idx] = clock()
                tracer._depth[nid] -= 1
                stack.pop()
                if observe is not None:
                    observe(tracer.counts, args, kwargs, result, exc)

        return traced

    def install(self, lib) -> None:
        """Wrap every public function of the kolberg modules, everywhere
        it is bound, and the RatFunc operators."""
        modules = [getattr(lib, m) for m in MODULES] + [lib.package]
        hooks = _observers()
        wrapped = {}
        for mod_name in MODULES:
            mod = getattr(lib, mod_name)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__ or obj in wrapped):
                    continue
                name = f"{mod_name}.{obj.__name__}"
                suffix, observe = hooks.get(name, (None, None))
                wrapped[obj] = self.wrap(name, obj, suffix, observe)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        ratfunc = lib.rational.RatFunc
        for attr, op in RATFUNC_OPS.items():
            fn = vars(ratfunc)[attr]
            setattr(ratfunc, attr, self.wrap(f"rational.RatFunc.{op}", fn))

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a recursive
        chain, so a function that calls itself is not counted twice.
        Self time is a span's duration less the durations of its direct
        children.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if not self.recursive[i]:
                rec["s"] += dur[i]
        out = {k: v for k, v in out.items() if v["calls"]}
        return {"spans": n, "layers": out, "counts": dict(self.counts)}
