"""Outside-in span tracer: wraps functions where callers look them up.

Spans live in memory as ``[name, start, end, parent, op, attrs]`` lists and
are written out once, when the run ends. Wrappers are installed with
:meth:`Tracer.patch` and all of them are removed by :meth:`Tracer.uninstall`,
so an untraced pass runs the program's own functions untouched.
"""
from __future__ import annotations

import functools
import json
import time
from pathlib import Path

NAME, START, END, PARENT, OP, ATTRS = range(6)
_MISSING = object()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, parent, self.op, attrs])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    def current_attr(self, key: str, default=None):
        """Value of ``key`` on the innermost open span that carries it."""
        for index in reversed(self._stack):
            attrs = self.spans[index][ATTRS]
            if attrs and key in attrs:
                return attrs[key]
        return default

    def wrap(self, fn, name, observe=None, attrs=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or ``name(tracer, args) -> str``; ``attrs`` is
        ``attrs(args) -> dict`` evaluated at entry; ``observe(span_attrs,
        args, kwargs, result)`` runs after the span has closed, to record
        counts that the metrics need.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(tracer, args)
            span_attrs = attrs(args) if attrs is not None else None
            index = tracer.open(label, span_attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                if span_attrs is None:
                    span_attrs = tracer.spans[index][ATTRS] = {}
                observe(span_attrs, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``; :meth:`uninstall` restores it."""
        previous = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr, _MISSING)
        if previous is _MISSING and not isinstance(owner, type):
            raise AttributeError(f"{owner!r} has no attribute {attr!r} to wrap")
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- results -----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def root_wall(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] is None)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")
