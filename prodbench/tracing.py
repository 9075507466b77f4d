"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own wrappers around the public
functions of each layer (no span code lives in the program). A span is
``(name, start, end, parent)``; spans are kept in memory and written out
once when the run ends. A span's self time is its duration minus the
part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Recorder:
    """Spans of the main thread; calls from other threads pass through
    the wrappers unrecorded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._main = threading.main_thread()

    @contextlib.contextmanager
    def span(self, name: str):
        if threading.current_thread() is not self._main:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def wrap(self, name: str, fn, when=None):
        """``fn`` with every call recorded as span ``name``; with
        ``when``, only calls for which ``when()`` is true."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``owner.attr`` by a traced wrapper for each
        ``(owner, attr, span_name[, when])`` while the block runs."""
        saved = []
        try:
            for owner, attr, name, *when in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, *when))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.by_name(name))

    def self_time(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        total = 0.0
        for s in self.by_name(name):
            covered, reach = 0.0, s.start
            for c in sorted(kids.get(s.id, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += s.end - s.start - covered
        return total

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")
