"""In-memory span tracer that wraps qlattice's public functions from outside.

Modules such as ``qlattice.mobius`` do ``from .lattice import join`` and keep
their own reference to the function, so wrapping one module attribute is not
enough: ``install`` rebinds the wrapper in every ``qlattice`` module namespace
(and class) that holds the original, and ``restore`` puts the originals back.

Each wrapped call records one span (name, start, end, parent) in flat arrays.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # seconds spent in hooks, by the span that was open around them; kept
        # out of that span's self time so hooks distort only overhead_frac
        self.hook_s: defaultdict = defaultdict(float)
        self._rebound: list[tuple[object, str, object, bool]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of the current call)."""
        return self.names[self.span_name[self.stack[-1]]] if self.stack else None

    def span_wrapper(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records a span; hooks run outside the span.

        before(args, kwargs) runs before the call starts; after(args, kwargs,
        result) runs after it ends, while the caller's span is innermost.
        Hook time counts as neither the caller's nor the callee's self time.
        """
        nid = self._name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack = self.span_parent, self.stack
        clock = time.perf_counter

        hook_s = self.hook_s

        def traced(*args, **kwargs):
            if before is not None:
                h0 = clock()
                before(args, kwargs)
                hook_s[stack[-1] if stack else -1] += clock() - h0
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                h0 = clock()
                after(args, kwargs, result)
                hook_s[stack[-1] if stack else -1] += clock() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name: str, fn):
        """Wrap fn so each call only bumps a counter (for very hot helpers)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- binding ------------------------------------------------------------

    def rebind(self, original, wrapper, package: str = "qlattice") -> int:
        """Replace original by wrapper in every module of the package that
        holds it; returns how many names were rebound."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._rebound.append((mod, attr, original, False))
                    hits += 1
        return hits

    def rebind_attr(self, owner, attr: str, wrapper) -> None:
        """Replace one attribute (a class method or a dict entry)."""
        if isinstance(owner, dict):
            self._rebound.append((owner, attr, owner[attr], True))
            owner[attr] = wrapper
        else:
            self._rebound.append((owner, attr, vars(owner)[attr], False))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._rebound:
            owner, attr, original, is_dict = self._rebound.pop()
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        for i, seconds in self.hook_s.items():
            if i >= 0:
                child[i] += seconds
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["self_s"] += self.span_end[i] - self.span_start[i] - child[i]
        for name, count in self.counts.items():
            out[name]["calls"] += count
        return dict(out)
