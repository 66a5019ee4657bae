"""Span tracing of hodgediv's public functions, for the traced run.

Every public callable a hodgediv module defines, other than a class, is
wrapped once: a plain function, and equally one that a decorator such as
``functools.cache`` has turned into another kind of callable.  The wrapper
is installed at every module namespace that binds it (``testcurves``
imports ``pair`` and ``class_W`` by name, ``hodgediv`` re-exports
``solve_exact``...), so a call is seen whichever binding it goes through.
``DivisorClass.from_map``, ``CurveRecord.from_map`` and
``ChowElement.__mul__`` are wrapped on their classes.  ``wrapped`` lists
the names of everything wrapped, so that a check can tell a function that
was not called from one the tracer missed.

Each call records a span (function, start, end, parent) in flat arrays that
stay in memory until the run ends; times are process CPU time, like the
end-to-end latencies.  The benchmark's own operation is the root span of
each op.  Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import process_time

LAYERS = ("exactq", "picard", "testcurves", "chow", "chowexpr", "porteous",
          "extremality", "catalog", "cli")
OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.wrapped: set[str] = set()
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.enabled = True
        # Counters measured where the work happens.
        self.term_products = 0
        self.curves_checked = 0
        # Sum of g//2 over the genera g >= 3 passed to derive_theorem_class:
        # the boundary indices the C-curve route derives.
        self.derived_indices = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1])
        self.start.append(process_time())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = process_time()
        self.stack.pop()

    @contextmanager
    def op(self):
        """Root span around one benchmark operation."""
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording their calls."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _wrap(self, name: str, fn, counter=None):
        fid = len(self.names)
        self.names.append(name)
        self.wrapped.add(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(args)
            idx = tracer._open(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- installation ----------------------------------------------------
    def _setattr(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of every loaded hodgediv module."""
        loaded = {m: sys.modules[f"hodgediv.{m}"] for m in LAYERS if f"hodgediv.{m}" in sys.modules}
        wrappers = {}
        for layer, mod in loaded.items():
            for attr, obj in vars(mod).items():
                if (callable(obj) and not inspect.isclass(obj) and not attr.startswith("_")
                        and getattr(inspect.unwrap(obj), "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj, self._counter(layer, attr))
        namespaces = list(loaded.values()) + [sys.modules["hodgediv"]]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._setattr(ns, attr, wrappers[id(obj)])
        if "picard" in loaded:
            for cls in (loaded["picard"].DivisorClass, loaded["picard"].CurveRecord):
                fn = cls.__dict__["from_map"].__func__
                self._setattr(cls, "from_map",
                              classmethod(self._wrap(f"picard.{cls.__name__}.from_map", fn)))
        if "chow" in loaded:
            elem = loaded["chow"].ChowElement
            mul = self._wrap("chow.ChowElement.__mul__", elem.__dict__["__mul__"], self._count_terms)
            self._setattr(elem, "__mul__", mul)
            self._setattr(elem, "__rmul__", mul)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _counter(self, layer, attr):
        if (layer, attr) == ("extremality", "certificate_check"):
            def count(args):
                self.curves_checked += len(args[3])
            return count
        if (layer, attr) == ("testcurves", "derive_theorem_class"):
            def count(args):
                if args[0] >= 3:
                    self.derived_indices += args[0] // 2
            return count
        return None

    def _count_terms(self, args):
        a, b = args
        if not isinstance(b, (int, Fraction)):
            self.term_products += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)

    # -- summary ---------------------------------------------------------
    def summary(self) -> dict:
        """Per function: calls, total and self milliseconds; plus the
        number of rhs_C_dot_D calls made under a derive_theorem_class span."""
        n = len(self.fid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        total_ms = defaultdict(float)
        self_ms = defaultdict(float)
        for i in range(n):
            name = self.names[self.fid[i]]
            calls[name] += 1
            total_ms[name] += dur[i] * 1e3
            self_ms[name] += (dur[i] - child[i]) * 1e3
        fid_of = {name: fid for fid, name in enumerate(self.names)}
        derive = fid_of.get("testcurves.derive_theorem_class")
        rhs = fid_of.get("testcurves.rhs_C_dot_D")
        under_derive = 0
        for i in range(n):
            if self.fid[i] == rhs:
                p = self.parent[i]
                while p >= 0 and self.fid[p] != derive:
                    p = self.parent[p]
                under_derive += p >= 0
        return {
            "functions": {name: {"calls": calls[name], "total_ms": total_ms[name],
                                 "self_ms": self_ms[name]} for name in sorted(calls)},
            "rhs_C_dot_D_under_derive": under_derive,
            "spans": n,
        }

    def dump(self, path):
        """Write the raw spans: one JSON header line (function names, span
        count), then the native-endian arrays fid (int32), parent (int32),
        start and end (float64, ``process_time`` seconds), each in full."""
        header = {"names": self.names, "spans": len(self.fid),
                  "arrays": ["fid:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(fh)
