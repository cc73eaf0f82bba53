"""Span tracer that wraps each confsemi layer from outside the package.

A layer is one `confsemi` module.  `Tracer.install` replaces every public
function of a layer -- and every public method of its public classes -- with a
wrapper that records a span (name, start, end, parent span, request id).
Functions are replaced at every module namespace that binds them, because
`suites` and `dynamics` bind names with from-imports.  `scipy.linalg.expm`, as
bound in `semigroup` and `drift_diffusion`, is wrapped too, and its spans also
carry n**3 for the n x n argument.  `uninstall` restores every original.

Spans are kept in memory; `summarize` turns one pass's spans into per-layer
self time, per-name time and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("clock", "calculus", "spaces", "semigroup", "drift_diffusion",
          "transport", "dynamics", "config", "suites", "reports", "cli")
EXPM_SITES = ("semigroup", "drift_diffusion")


class Span(NamedTuple):
    sid: int
    parent: int      # sid of the enclosing span, -1 at top level
    request: int     # the CLI invocation the span belongs to
    name: str        # "<layer>.<function>" or "<layer>.<Class>.<method>"
    start: float
    end: float
    n3: int          # n**3 of a dense expm argument, else 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans = []
        self.request = 0
        self._stack = []
        self._next_sid = 0
        self._undo = []
        self._names = set()

    def _wrap(self, fn, name: str, dense: bool = False):
        self._names.add(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_sid
            self._next_sid += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                # expm returns a matrix of its argument's shape
                n3 = result.shape[-1] ** 3 if dense and result is not None else 0
                spans.append(Span(sid, parent, self.request, name, start, end, n3))
        return traced

    def _patch(self, target, key: str, new) -> None:
        self._undo.append((target, key, vars(target)[key]))
        setattr(target, key, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        mods = {layer: importlib.import_module(f"confsemi.{layer}")
                for layer in LAYERS}
        sites = [m for key, m in sys.modules.items()
                 if key == "confsemi" or key.startswith("confsemi.")]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    for site in sites:
                        for key, val in list(vars(site).items()):
                            if val is obj:
                                self._patch(site, key, wrapped)
                elif inspect.isclass(obj):
                    self._install_methods(obj, f"{layer}.{attr}")
        for layer in EXPM_SITES:
            mod = mods[layer]
            self._patch(mod, "expm", self._wrap(mod.expm, f"{layer}.expm", dense=True))

    def _install_methods(self, cls, prefix: str) -> None:
        for key, member in list(vars(cls).items()):
            if key.startswith("_"):
                continue
            name = f"{prefix}.{key}"
            if isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(member.__func__, name))
            elif inspect.isfunction(member):
                new = self._wrap(member, name)
            else:
                continue   # properties and plain attributes
            self._patch(cls, key, new)

    def uninstall(self) -> None:
        while self._undo:
            target, key, old = self._undo.pop()
            setattr(target, key, old)

    def names(self) -> set:
        """Names of every span the installed wrappers can record."""
        self.install()
        self.uninstall()
        return set(self._names)

    def drain(self) -> list:
        """Hand over the recorded spans and start a fresh record."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans) -> dict:
    """Self time per span id: its duration minus its direct children's.

    Spans come from one thread, so a span's children are disjoint
    sub-intervals of it and their durations add up to the part they cover.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - covered[s.sid] for s in spans}


class Summary(NamedTuple):
    top_s: float          # total duration of top-level spans
    layer_self: dict      # layer -> self time
    layer_calls: Counter  # layer -> calls, not counting expm
    name_s: dict          # name -> time of spans not nested in a same-name span
    name_calls: Counter   # name -> calls
    name_n3: Counter      # name -> sum of n**3


def summarize(spans) -> Summary:
    selfs = self_times(spans)
    by_sid = {s.sid: s for s in spans}
    layer_self = defaultdict(float)
    layer_calls = Counter()
    name_s = defaultdict(float)
    name_calls = Counter()
    name_n3 = Counter()
    for s in spans:
        layer_self[s.layer] += selfs[s.sid]
        if not s.name.endswith(".expm"):
            layer_calls[s.layer] += 1
        name_calls[s.name] += 1
        name_n3[s.name] += s.n3
        if not _nested_in_same_name(s, by_sid):
            name_s[s.name] += s.end - s.start
    top_s = sum(s.end - s.start for s in spans if s.parent < 0)
    return Summary(top_s, dict(layer_self), layer_calls, dict(name_s),
                   name_calls, name_n3)


def _nested_in_same_name(span: Span, by_sid: dict) -> bool:
    parent = span.parent
    while parent >= 0:
        outer = by_sid[parent]
        if outer.name == span.name:
            return True
        parent = outer.parent
    return False
