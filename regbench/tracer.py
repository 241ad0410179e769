"""Outside-in tracing of regdyn's modules for the per-layer breakdown.

`Tracer.install()` replaces the public functions and methods of every
regdyn module with timing wrappers, rebinding each module namespace that
imported the same object (`from .x import y`), and swaps the `sp` of
curves, green and heights for a proxy whose resultant, factor_list and
factorint are wrapped.  Nothing under src/ changes; `uninstall()` puts
every original back.

A span is (name, start, end, parent, query id).  Spans stay in memory and
are written out by `write()` when the run ends.  A layer is a module, and
its self time is the time in its spans minus the time of their child
spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "maps", "polyalg", "padic", "intervals", "green", "heights",
          "infinity", "exactnum", "numberfield", "series", "localdyn", "curves")
# sympy entry points wrapped where each module sees them through its `sp`
SYMPY_CALLS = {"curves": ("resultant", "factor_list"), "green": ("factorint",),
               "heights": ("factorint",)}
# products are the kernels the per-layer counts follow; wrapping every
# arithmetic dunder would multiply the tracing overhead for no metric
DUNDERS = ("__mul__", "__rmul__")
INIT_SPANS = ("GreenContext", "PlaneCurve")  # constructors that do real work
ORIGINAL = "__regbench_original__"


def _value_kind(x) -> str:
    name = type(x).__name__
    return {"Fraction": "fraction", "int": "fraction", "PAdic": "padic",
            "NFElement": "nf"}.get(name, "other")


def _green_place(args) -> str:
    ctx = args[0]
    if not ctx.place.is_finite:
        return "arch"
    return "good" if ctx.good_reduction else "badprime"


# span names that carry a label computed from the call's arguments
LABELS = {
    "polyalg.MultiPoly.eval": lambda args: _value_kind(args[1]),
    "green.green_value": _green_place,
}


class _SympyProxy:
    """Stands in for the sympy module in one regdyn module's namespace."""

    def __init__(self, real, overrides):
        self.__dict__.update(overrides)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.rec_name = array("i")
        self.rec_parent = array("i")
        self.rec_query = array("i")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)  # outermost calls only
        self.pair_calls = Counter()  # (parent name id, name id)
        self._active = Counter()
        self._stack: list = []
        self._undo: list = []
        self.query = -1

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args, kwargs):
        nid = self._id(name)
        idx = len(self.rec_name)
        parent = self._stack[-1] if self._stack else None
        self.rec_name.append(nid)
        self.rec_parent.append(parent[0] if parent else -1)
        self.rec_query.append(self.query)
        self.rec_start.append(0.0)
        self.rec_end.append(0.0)
        if parent:
            self.pair_calls[(self.rec_name[parent[0]], nid)] += 1
        frame = [idx, 0.0]
        self._stack.append(frame)
        self._active[nid] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._active[nid] -= 1
            dur = t1 - t0
            self.rec_start[idx], self.rec_end[idx] = t0, t1
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[1]
            if not self._active[nid]:
                self.incl_s[nid] += dur
            if self._stack:
                self._stack[-1][1] += dur

    def _wrapper(self, fn, name):
        tracer, label = self, LABELS.get(name)
        if label is None:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(f"{name}[{label(args)}]", fn, args, kwargs)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, old))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"regdyn.{name}") for name in LAYERS}
        namespaces = [sys.modules["regdyn"]] + list(mods.values())
        replace = {}  # id(original) -> wrapper, for module-level functions
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrapper(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._set(ns, attr, replace[id(obj)])
        for layer, names in SYMPY_CALLS.items():
            real = mods[layer].sp
            proxy = _SympyProxy(real, {n: self._wrapper(getattr(real, n), f"{layer}.{n}")
                                       for n in names})
            self._set(mods[layer], "sp", proxy)

    def _wrap_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS and not (
                    attr == "__init__" and cls.__name__ in INIT_SPANS):
                continue
            span = f"{layer}.{cls.__name__}.{'__mul__' if attr == '__rmul__' else attr}"
            if isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self._wrapper(member.__func__, span)))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrapper(member.__func__, span)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrapper(member, span))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reading ---------------------------------------------------------------

    def spans_named(self, prefix: str):
        """Ids of the span names equal to `prefix` or labelled `prefix[...]`."""
        return [i for i, n in enumerate(self.names)
                if n == prefix or n.startswith(prefix + "[")]

    def total(self, table, prefix: str) -> float:
        return sum(table[i] for i in self.spans_named(prefix))

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, s in self.self_s.items():
            out[self.names[nid].split(".", 1)[0]] += s
        return out

    def child_calls(self, parent: str, child: str) -> int:
        ps, cs = set(self.spans_named(parent)), set(self.spans_named(child))
        return sum(n for (p, c), n in self.pair_calls.items() if p in ps and c in cs)

    def write(self, path: str):
        """Write every span as a gzipped TSV: query, name, parent, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("query\tname\tparent\tstart\tend\n")
            names = self.names
            for q, n, p, s, e in zip(self.rec_query, self.rec_name, self.rec_parent,
                                     self.rec_start, self.rec_end):
                fh.write(f"{q}\t{names[n]}\t{p}\t{s:.9f}\t{e:.9f}\n")


def wrapped_leftovers() -> list:
    """Every tracing wrapper still bound in a regdyn module or class."""
    found = []
    for name in ["regdyn"] + [f"regdyn.{m}" for m in LAYERS]:
        mod = sys.modules.get(name)
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, ORIGINAL) or isinstance(obj, _SympyProxy):
                found.append(f"{name}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == name:
                for a, m in vars(obj).items():
                    if hasattr(getattr(m, "__func__", m), ORIGINAL):
                        found.append(f"{name}.{attr}.{a}")
    return found
