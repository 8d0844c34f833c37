"""Span recorder that traces a package from outside it.

``Tracer.install`` replaces every public function of the package's
loaded modules with a wrapper, in every module namespace that holds the
function, so calls between modules and within a module both pass
through it. Each call appends one span to an in-memory list:

    {"name", "op", "parent", "start", "end", "maxrss_kb", "counts"}

``start``/``end`` are ``time.perf_counter_ns`` readings, ``parent`` is
the index of the enclosing span (``None`` at the top), ``maxrss_kb`` is
the process's peak RSS when the call returned and ``counts`` holds what
an optional counter hook derived from the call's arguments and result.
The source tree is never edited; a function the caller expects but the
package no longer has is listed in ``Tracer.absent`` instead of failing.

Only the standard library is used, so the module imports nothing from
the traced package and can be tested on its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time


class Tracer:
    """Records spans for the functions it wraps, in call order."""

    def __init__(self, counters: dict | None = None, op: int = 0):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self.op = op
        self._stack: list[int] = []
        self._counters = counters or {}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = {"name": name, "op": self.op, "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
                span["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if counter is not None:
                span["counts"] = self._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, args, kwargs, result) -> dict:
        # A counter reads the program's arguments and results, whose
        # shape later versions may change; a count it cannot take is
        # reported, never raised into the traced program.
        try:
            return counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError) as exc:
            self.counter_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            return {}

    def install(self, package: str, expected=(), skip=()) -> list[str]:
        """Wrap the public functions of ``package``'s modules.

        ``expected`` lists ``module.function`` names the caller will
        read metrics for; their modules are imported first, and the
        names not found are returned and kept in ``self.absent``.
        ``skip`` lists names left unwrapped. Returns the absent names.
        """
        for module in sorted({name.rsplit(".", 1)[0] for name in expected}):
            try:
                importlib.import_module(f"{package}.{module}")
            except ImportError:
                pass
        modules = [
            mod
            for modname, mod in list(sys.modules.items())
            if modname.startswith(package + ".") and mod is not None
        ]
        package_module = sys.modules.get(package)
        wrapped: dict = {}
        found: set[str] = set()
        for mod in modules:
            short = mod.__name__[len(package) + 1 :]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or f"{short}.{attr}" in skip:
                    continue
                found.add(f"{short}.{attr}")
                wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules + ([package_module] if package_module is not None else []):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        self.absent = sorted(set(expected) - found)
        return self.absent


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: inclusive ms, self ms, calls, peak RSS, summed counts.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of a span tree add up to its root.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        entry = out.setdefault(
            span["name"], {"ms": 0.0, "self_ms": 0.0, "calls": 0, "maxrss_kb": 0, "counts": {}}
        )
        entry["ms"] += duration / 1e6
        entry["self_ms"] += (duration - child_ns[index]) / 1e6
        entry["calls"] += 1
        entry["maxrss_kb"] = max(entry["maxrss_kb"], span.get("maxrss_kb", 0))
        for key, value in span.get("counts", {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out
