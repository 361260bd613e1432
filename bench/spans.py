"""Span recording around the package's public bindings, from outside it.

`Tracer.wrap` replaces a module attribute with a wrapper that records a
span (name, start, end, parent) in memory; `Tracer.restore` puts the
original back. A binding that no longer exists is recorded as missing
instead of wrapped, so every metric that depends on it is reported as
missing rather than as zero.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing: dict[str, list[str]] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, on_call=None, on_return=None) -> None:
        """Record a span called ``name`` around every call through ``owner.attr``.

        ``on_call(args, kwargs)`` and ``on_return(result)`` return dicts
        of span attributes. If either no longer fits the call, the
        attributes are dropped (metrics needing them report missing) and
        the span is still recorded.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing[name].append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = _attempt(on_call, args, kwargs) if on_call else None
            with tracer.span(name, **(attrs or {})) as rec:
                result = original(*args, **kwargs)
                if on_return:
                    rec["attrs"].update(_attempt(on_return, result) or {})
                return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path, meta: dict) -> None:
        doc = {"meta": meta, "missing": dict(self.missing), "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, default=repr)


def _attempt(fn, *args):
    """Call an attribute extractor; a signature change must not crash the run."""
    try:
        return fn(*args)
    except (TypeError, AttributeError, IndexError, KeyError, ValueError):
        return None


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for i, s in enumerate(spans):
        inside = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                  for c in children[i]]
        out.append(s["end"] - s["start"] - covered(
            [(a, b) for a, b in inside if b > a]))
    return out


def ancestor(spans: list[dict], i: int, prefix: str):
    """Index of the nearest enclosing span whose name starts with ``prefix``."""
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"].startswith(prefix):
            return parent
        parent = spans[parent]["parent"]
    return None
