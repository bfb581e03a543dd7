"""Spans recorded from the benchmark's own code.

A span is (name, start, end, parent, attrs).  Spans stay in memory; the run
writes them out once, when it ends.  The benchmark opens one span per
operation it calls; ``patch`` adds spans around the calls one layer makes
into another (bipartite into polytope, fourqubit into oracle) by replacing
the name at the caller's import site.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def patch(self, module, attr: str, name: str, describe) -> None:
        """Wrap ``module.attr`` in a span; ``describe(args, result)`` gives attrs."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = inner(*args, **kwargs)
                attrs.update(describe(args, result))
                return result

        setattr(module, attr, wrapper)
