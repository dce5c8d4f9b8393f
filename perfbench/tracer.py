"""In-memory spans around the calls the benchmark makes into qsn.

Spans are recorded from the benchmark's side of each layer boundary: the
rules of the functions and ansatz the benchmark passes in, and module-level
names in qsn, replaced where their callers look them up (``qsn.experiment``
binds ``run_two_step_batch`` at import, so the wrapper goes on
``qsn.experiment.run_two_step_batch``). Nothing under ``src/`` changes.

Each span holds its name, start, end, parent span, thread and a row count.
A thread keeps a stack of its open spans; a Monte Carlo chunk that runs in a
pool thread takes its parent from the harness call that submitted it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    rows: int


def _batch_rows(points) -> int:
    shape = getattr(points, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Collects spans in memory; :meth:`write` stores them at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unwrapped: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, func, rows=None, parent=None):
        """``func`` recorded as span ``name``; ``rows(*args)`` counts its rows.
        ``parent`` is used when the calling thread has no open span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            up = stack[-1] if stack else parent
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, up, threading.get_ident(), start, end,
                            rows(*args) if rows else 0)
                with self._lock:
                    self.spans.append(span)

        return traced

    # -- what the benchmark passes in ----------------------------------------

    def traced_function(self, fn, layer: str):
        """An AnalyticFunction whose value and gradient rules are spans
        ``<layer>.values`` and ``<layer>.gradients``."""
        changes = {"value_rule": self.wrap(f"{layer}.values", fn.value_rule,
                                           _batch_rows)}
        for rule in ("grad_rule", "grad_batch_rule"):
            if getattr(fn, rule) is not None:
                changes[rule] = self.wrap(f"{layer}.gradients",
                                          getattr(fn, rule), _batch_rows)
        return dataclasses.replace(fn, **changes)

    def traced_ansatz(self, ansatz):
        """An Ansatz whose field and Jacobian rules are spans."""
        changes = {}
        for rule in ("field_rule", "jacobian_rule", "field_batch_rule",
                     "jacobian_batch_rule"):
            if getattr(ansatz, rule) is not None:
                changes[rule] = self.wrap(f"ansatz.{rule[:-5]}",
                                          getattr(ansatz, rule))
        return dataclasses.replace(ansatz, **changes)

    # -- module-level names inside qsn ----------------------------------------

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace each ``(owner, attribute, replacement_factory)`` for the
        duration of the block. A name the program no longer has is skipped
        and listed in ``unwrapped``, so its metrics read 0."""
        saved = []
        try:
            for owner, attr, factory in targets:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.unwrapped.append(f"{owner.__name__}.{attr}")
                    print(f"trace: {owner.__name__}.{attr} not found; "
                          "its layer metrics read 0", file=sys.stderr)
                    continue
                setattr(owner, attr, factory(original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def span_factory(self, name: str):
        return lambda original: self.wrap(name, original)

    def harness_factory(self, name: str, chunk_name: str):
        """Wrapper for ``collect_error_moments(draw, trials, stream, ...)``
        that also records every chunk's ``draw`` as a child span."""
        def factory(original):
            def collect(draw, *args, **kwargs):
                parent = self.current()
                chunk = self.wrap(chunk_name, draw,
                                  rows=lambda stream, n: n, parent=parent)
                return original(chunk, *args, **kwargs)
            return self.wrap(name, functools.wraps(original)(collect))
        return factory

    def write(self, path, extra: dict) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        threads = {}
        with open(path, "w") as fh:
            json.dump(dict(extra, unwrapped=self.unwrapped,
                           fields=list(Span._fields)), fh)
            fh.write("\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                tid = threads.setdefault(s.thread, len(threads))
                fh.write(json.dumps([s.sid, s.name, s.parent, tid,
                                     round(s.start - t0, 9),
                                     round(s.end - t0, 9), s.rows]))
                fh.write("\n")


# -- reading the spans ---------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


class SpanIndex:
    """Totals over a list of spans: busy time, self time, counts, rows."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def named(self, names):
        names = {names} if isinstance(names, str) else set(names)
        return [s for s in self.spans if s.name in names]

    def count(self, names) -> int:
        return len(self.named(names))

    def rows(self, names) -> int:
        return sum(s.rows for s in self.named(names))

    def _outermost(self, names):
        """Spans of ``names`` that no other span of ``names`` encloses."""
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for s in self.spans:
            if s.name not in names:
                continue
            up = self.by_id.get(s.parent)
            while up is not None and up.name not in names:
                up = self.by_id.get(up.parent)
            if up is None:
                out.append(s)
        return out

    def busy(self, names) -> float:
        """Summed duration of the outermost spans of ``names``; spans in
        different threads overlap in wall time, so this is busy time."""
        return sum(s.end - s.start for s in self._outermost(names))

    def self_time(self, names) -> float:
        """Summed duration minus the part of each span its children cover."""
        total = 0.0
        for s in self.named(names):
            kids = [(max(c.start, s.start), min(c.end, s.end))
                    for c in self.children[s.sid]]
            total += (s.end - s.start) - _covered(kids)
        return total

    def count_children(self, parent_name: str, child_name: str) -> int:
        return sum(1 for s in self.named(child_name)
                   if s.parent is not None
                   and self.by_id[s.parent].name == parent_name)
