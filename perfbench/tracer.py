"""Outside-in tracer for the polylog package.

The tracer changes nothing on disk.  While installed it rebinds, in every
imported ``polylog.*`` module, each name that refers to a public function of
the package to one timing wrapper per function, so calls made through any
copy of the name (``from .x import f`` copies it) are seen.  It also wraps
the arithmetic methods of ``ClosedForm`` and ``BivariateSeries`` on their
classes, the verify suite table and ``CheckEntry`` construction, and counts
``Fraction`` constructions.  ``uninstall`` restores every original binding.

Spans (name, start, end, parent, item) are kept in parallel arrays until
the run ends; ``summary`` then derives per-name call counts, inclusive time
(outermost call of a name only, so recursion is not counted twice) and self
time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import fractions
import functools
import sys
import time
from array import array

# ClosedForm / BivariateSeries methods and the span names they report under.
_CLOSEDFORM_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg",
    "__truediv__": "div", "__pow__": "pow", "__init__": "init",
    "evaluate": "evaluate",
}
_SERIES_METHODS = {
    "__add__": "series_add", "__sub__": "series_sub", "__mul__": "series_mul",
    "scale": "series_scale", "exp": "series_exp",
}


def _is_package_function(obj) -> bool:
    if isinstance(obj, type) or not callable(obj):
        return False
    module = getattr(obj, "__module__", None) or ""
    name = getattr(obj, "__name__", "")
    return module.startswith("polylog") and not name.startswith("_")


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    return key


class Tracer:
    """Install with ``install()``, read with ``summary()``.

    ``distinct_names`` are the spans whose distinct argument sets are
    counted as well; ``current_item`` is stamped on every span.
    """

    def __init__(self, distinct_names=()):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.outer = array("b")
        self.current_item = -1
        self.counters: dict[str, int] = {}
        self._distinct: dict[str, set] = {n: set() for n in distinct_names}
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, before=None, after=None):
        """Return a span-recording wrapper for fn.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(result, args, kwargs)`` sees the result of each call.
        """
        nid = self._name(name)
        stack = self._stack
        active = self._active
        starts, ends, parents = self.start, self.end, self.parent
        items, outers, span_names = self.item, self.outer, self.span_name
        distinct = self._distinct.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct is not None:
                distinct.add(_arg_key(args, kwargs))
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(starts)
            depth = active.get(nid, 0)
            span_names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.current_item)
            outers.append(depth == 0)
            ends.append(0.0)
            active[nid] = depth + 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] = depth
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if (name == "polylog" or name.startswith("polylog."))
                   and name != "polylog.__main__" and mod is not None}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_package_function(obj):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    short = obj.__module__.removeprefix("polylog.")
                    wrapper = self.wrap(f"{short}.{obj.__name__}", obj,
                                        *self._hooks(short, obj.__name__))
                    wrappers[id(obj)] = wrapper
                self._set(mod, attr, wrapper)

        closedform = modules["polylog.closedform"]
        for attr, short in _CLOSEDFORM_METHODS.items():
            fn = vars(closedform.ClosedForm)[attr]
            self._set(closedform.ClosedForm, attr, self.wrap(f"closedform.{short}", fn))
        seriesring = modules["polylog.seriesring"]
        for attr, short in _SERIES_METHODS.items():
            fn = vars(seriesring.BivariateSeries)[attr]
            self._set(seriesring.BivariateSeries, attr, self.wrap(f"seriesring.{short}", fn))

        verify = modules["polylog.verify"]
        for suite, fn in list(verify.SUITES.items()):
            self._restore.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = self.wrap(f"verify.{suite}", fn)
        self._set(verify.CheckEntry, "__init__",
                  self.wrap("verify.entry", vars(verify.CheckEntry)["__init__"]))

        new = vars(fractions.Fraction)["__new__"]
        counters = self.counters

        def counted_new(cls, *args, **kwargs):
            counters["fraction_new"] = counters.get("fraction_new", 0) + 1
            return new(cls, *args, **kwargs)

        self._set(fractions.Fraction, "__new__", counted_new)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _hooks(self, module: str, name: str):
        """Extra counters for the drivers: evaluations, splits and terms."""
        if (module, name) == ("quadrature", "integrate01"):
            def after(result, args, kwargs):
                if kwargs.get("_allow_split", True) is False:
                    self.count("quadrature.integrate01.split_halves")
                elif self._active.get(self._name_id["quadrature.integrate01"], 0) == 0:
                    self.count("quadrature.integrate01.evaluations", result.evaluations)
            return None, after
        if (module, name) in (("summation", "sum_alternating"), ("summation", "sum_tail")):
            counter = f"summation.{name}.terms"

            def before(args, kwargs):
                term = args[0]

                def counted(k):
                    self.count(counter)
                    return term(k)

                return (counted,) + args[1:], kwargs
            return before, None
        return None, None

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, distinct argument sets, inclusive and self time."""
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_t = [0.0] * len(self.names)
        starts, ends, parents = self.start, self.end, self.parent
        child = [0.0] * len(starts)
        for idx in range(len(starts)):
            if parents[idx] >= 0:
                child[parents[idx]] += ends[idx] - starts[idx]
        for idx, nid in enumerate(self.span_name):
            dur = ends[idx] - starts[idx]
            calls[nid] += 1
            self_t[nid] += dur - child[idx]
            if self.outer[idx]:
                incl[nid] += dur
        spans = {}
        for nid, name in enumerate(self.names):
            spans[name] = {"calls": calls[nid], "s": incl[nid], "self_s": self_t[nid]}
            if name in self._distinct:
                spans[name]["distinct"] = len(self._distinct[name])
        return {"spans": spans, "counters": dict(self.counters), "n_spans": len(starts)}
