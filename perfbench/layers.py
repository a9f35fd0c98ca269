"""In-memory spans around public layer calls, and call counts.

Nothing here edits the program.  Spans come from wrappers that the
traced run installs over the names a module calls (for instance
``repro.core.framework.make_feasible``) and removes afterwards; counts
come from a profile hook that watches for given code objects.  Spans
are written at the end of the run as Chrome-trace JSON.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    tid: int
    parent: int | None
    args: dict[str, Any] = field(default_factory=dict)
    #: calibration scale of the step the span fell in
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        """Calibrated duration."""
        return (self.end - self.start) * self.scale


class Recorder:
    """Collects spans in memory; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def _parents(self) -> list[int]:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **args: Any):
        parents = self._parents()
        span = Span(name, time.perf_counter(), 0.0, threading.get_ident(),
                    parents[-1] if parents else None, args)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        parents.append(idx)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            parents.pop()

    def add(self, name: str, start: float, end: float, **args: Any) -> Span:
        """Record a span measured by the caller."""
        span = Span(name, start, end, threading.get_ident(), None, args)
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            with self.span(name):
                return fn(*a, **kw)

        return wrapper

    def mark(self) -> int:
        """Index the next recorded span will get."""
        with self._lock:
            return len(self.spans)

    def scale(self, first: int, last: int, scale: float) -> None:
        """Give spans ``first`` to ``last - 1`` this calibration scale."""
        for span in self.spans[first:last]:
            span.scale = scale

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def mean_ms(self, name: str) -> float:
        spans = self.named(name)
        return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0

    # -- output ------------------------------------------------------------
    def chrome_trace(self) -> dict[str, Any]:
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": s.tid,
                "args": {**{k: str(v) for k, v in s.args.items()},
                         "calibrated_ms": s.seconds * 1e3},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def table(self) -> str:
        rows: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            rows[s.name].append(s.seconds * 1e3)
        lines = [f"{'span':34s} {'calls':>7s} {'total_ms':>11s} {'mean_ms':>10s}"]
        for name in sorted(rows):
            v = rows[name]
            lines.append(
                f"{name:34s} {len(v):7d} {sum(v):11.3f} {sum(v) / len(v):10.4f}"
            )
        return "\n".join(lines)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)


@contextlib.contextmanager
def patched(replacements: Iterable[tuple[Any, str, Callable]]):
    """Temporarily set ``setattr(owner, name, value)`` for each triple;
    ``owner`` may also be a dict, whose key is then replaced."""
    saved = []
    try:
        for owner, name, value in replacements:
            if isinstance(owner, dict):
                saved.append((owner, name, owner[name]))
                owner[name] = value
            else:
                saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


class CallCounter:
    """Counts outermost calls of given Python functions in every thread.

    Installed as a profile hook (``sys.setprofile`` and
    ``threading.setprofile``), so it sees calls made inside the program
    without any edit to it.  A recursive function such as
    ``copy.deepcopy`` counts once per outermost call.  The hook slows
    every call, so counts are taken in their own short pass and no
    timing is read while it is installed.
    """

    def __init__(self, functions: dict[str, Callable]) -> None:
        self._codes = {fn.__code__: name for name, fn in functions.items()}
        self.counts = {name: 0 for name in functions}
        self._depth = threading.local()
        self._lock = threading.Lock()

    def _hook(self, frame, event, arg):
        name = self._codes.get(frame.f_code)
        if name is None:
            return
        depth = getattr(self._depth, name, 0)
        if event == "call":
            if depth == 0:
                with self._lock:
                    self.counts[name] += 1
            setattr(self._depth, name, depth + 1)
        elif event == "return":
            setattr(self._depth, name, max(0, depth - 1))

    def __enter__(self) -> "CallCounter":
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
