"""In-memory span tracer that wraps public functions of the program.

A span is recorded around each call of a wrapped function: its name,
start and end (``time.perf_counter`` seconds), the span that was open
when it started (its parent), the training run it belongs to and, for
a function installed with ``count_rows``, the rows of its first argument.

Wrappers replace the module attribute the caller looks up (for example
``noisyvqc.training.cost_gradient``, which ``train`` calls through its
module globals) and :meth:`Tracer.restore` puts every original back.
Spans stay in memory until :meth:`Tracer.write`.  Only calls made in
the tracing process are recorded.
"""

from __future__ import annotations

import functools
import json
import time
from collections import namedtuple

import numpy as np

#: one recorded call; ``parent`` is the ``seq`` of the enclosing span
#: (-1 for none), ``rows`` is -1 when not counted
Span = namedtuple("Span", "seq parent run name start end rows")

#: span name that closes a training run; spans get the run id current
#: when they start, so loading and splitting count toward the run they
#: prepare
RUN_SPAN = "sweep.train"


def _row_count(features) -> int:
    shape = np.shape(features)
    return shape[0] if len(shape) > 1 else 1


class Tracer:
    """Records spans of wrapped calls; install, run, then restore."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._seq = 0
        self._runs = 0
        self._installed: list[tuple[object, str, object]] = []

    def install(self, module, attr: str, span_name: str, count_rows: bool = False) -> None:
        """Replace ``module.attr`` with a wrapper that records ``span_name``."""
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self._wrap(original, span_name, count_rows))

    def restore(self) -> None:
        """Put back every original function, in reverse install order."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, func, span_name: str, count_rows: bool):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rows = _row_count(args[0]) if count_rows else -1
            seq = self._seq
            self._seq += 1
            parent = self._stack[-1] if self._stack else -1
            run = self._runs
            self._stack.append(seq)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(seq, parent, run, span_name, start, end, rows))
                if span_name == RUN_SPAN:
                    self._runs += 1

        return wrapper

    def write(self, path: str) -> None:
        """Write all spans as JSON lines, with field names."""
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(s._asdict()) + "\n" for s in self.spans)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover, by ``seq``."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.seq, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.seq] = (s.end - s.start) - covered
    return out
