"""Per-layer tracing from outside the program.

The tracer replaces each function named in layers.json by a timing wrapper
for the duration of a `with` block.  Modules bind functions by name
(`from .signals import synth`) and call siblings through their own globals
(`reference_waveform` calls `transmitted_fraction`), so every rotolock
module global that is the original function object is rebound, and each
binding is restored on exit.  A named function that no longer exists is
not an error: its span reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

LAYERS = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())


def _written_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


def _samples(args, kwargs, result):
    return len(result.values)


def _in_transition(args, kwargs, result):
    return 1 if 0.0 < result < 1.0 else 0


# counter name -> (per-call increment, reported as a share of calls)
COUNTERS = {
    "bytes": (_written_bytes, False),
    "samples": (_samples, False),
    "transition_ratio": (_in_transition, True),
}


class _Span:
    __slots__ = ("calls", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.count = 0


class Tracer:
    """Self time, calls and counters per span, collected per operation."""

    def __init__(self, spans=None):
        self.spans = {name: _Span() for name in (spans or LAYERS["spans"])}
        self.counters = {
            name: spec["counters"][0]
            for name, spec in LAYERS["spans"].items()
            if name in self.spans and spec.get("counters")
        }
        self.absent = []
        self.counter_errors = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        span = self.spans[name]
        counter = COUNTERS[self.counters[name]][0] if name in self.counters else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.calls += 1
                span.self_s += elapsed - children[0]
            if counter is not None:
                try:
                    span.count += counter(args, kwargs, result)
                except Exception as exc:  # a counter must never fail the program
                    self.counter_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def __enter__(self):
        self.absent = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "rotolock" or key.startswith("rotolock."))
        ]
        try:
            for name in self.spans:
                mod_name, _, fn_name = name.rpartition(".")
                try:
                    fn = getattr(importlib.import_module("rotolock." + mod_name), fn_name)
                except (ImportError, AttributeError):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    def take(self) -> dict:
        """Per-span figures since the last take, then reset them."""
        out = {}
        for name, span in self.spans.items():
            rec = {"self_s": span.self_s, "calls": span.calls}
            if name in self.counters:
                c = self.counters[name]
                if COUNTERS[c][1]:
                    rec[c] = span.count / span.calls if span.calls else 0.0
                else:
                    rec[c] = span.count
            out[name] = rec
            span.calls, span.self_s, span.count = 0, 0.0, 0
        return out
