"""In-memory span recorder for the traced benchmark mode.

Spans are recorded from the benchmark's side only: a traced run swaps a
layer's public callable (a function bound in the module that calls it,
or a method on its class) for a wrapper that times the call, and puts
the original back afterwards.  Nothing under ``src/`` knows about it and
an untraced run never constructs a :class:`Tracer`.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the index of the benchmark
op it belongs to (-1 outside any op, e.g. during set-up).  A span's
*self time* is its duration minus its direct children's durations.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["OP_SPAN", "Tracer", "SpanTotals", "TraceSummary"]

#: Name of the span the benchmark opens around each op.
OP_SPAN = "bench.op"

_clock = time.perf_counter


class SpanTotals:
    """Per-op sums of one span name: self time, inclusive time, calls."""

    __slots__ = ("self_s", "total_s", "calls")

    def __init__(self) -> None:
        self.self_s: Dict[int, float] = defaultdict(float)
        self.total_s: Dict[int, float] = defaultdict(float)
        self.calls = 0


class Tracer:
    """Records spans from wrappers it installs, and removes them again."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._op = -1
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------

    def traced(
        self,
        func: Callable[..., Any],
        name: str,
        namer: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``func`` wrapped to record one span per call."""
        spans, stack = self.spans, self._stack

        def call(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _clock()
            try:
                result = func(*args, **kwargs)
                if after is not None:
                    after(self, result, *args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                label = name if namer is None else namer(*args, **kwargs)
                spans[index] = (label, start, end, parent, self._op)

        call.__wrapped__ = func  # type: ignore[attr-defined]
        return call

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter, but only while a timed op is running."""
        if self._op >= 0:
            self.counters[name] += amount

    def patch(
        self, owner: Any, attr: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until uninstall.

        Works for module functions, plain methods, class/static methods
        and attributes inherited from a base class (removed again rather
        than restored).
        """
        had_own = attr in vars(owner)
        raw = vars(owner)[attr] if had_own else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((owner, attr, raw, had_own))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        namer: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``namer(*args, **kwargs)`` may pick the span name per call;
        ``after(tracer, result, *args, **kwargs)`` runs inside the span
        and may bump :attr:`counters` from the call's result.
        """
        self.patch(
            owner, attr,
            lambda func: self.traced(func, name, namer, after),
        )

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        while self._undo:
            owner, attr, raw, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def run_op(self, op: int, func: Callable[[], None]) -> None:
        """Run ``func`` inside the span of benchmark op ``op``."""
        self._op = op
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = _clock()
        try:
            func()
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[index] = (OP_SPAN, start, end, -1, op)
            self._op = -1

    # -- analysis ----------------------------------------------------------

    def totals(self) -> Dict[str, SpanTotals]:
        """Self and inclusive seconds per span name and op."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: Dict[str, SpanTotals] = defaultdict(SpanTotals)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _parent, op = span
            entry = out[name]
            entry.calls += 1
            entry.total_s[op] += end - start
            entry.self_s[op] += (end - start) - child_time[index]
        return out

    def dump(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write every span (and the counters) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        document = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [s[0], round(s[1] - origin, 7), round(s[2] - origin, 7),
                 s[3], s[4]]
                for s in self.spans if s is not None
            ],
            "counters": dict(self.counters),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        tmp.replace(path)


class TraceSummary:
    """Normalised per-op views of a traced phase, for layer metrics."""

    def __init__(self, tracer: "Tracer", op_factors: List[float],
                 setup_factor: float, elapsed_s: float) -> None:
        self.totals = tracer.totals()
        self.counters = tracer.counters
        self.ops = len(op_factors)
        self.elapsed_s = elapsed_s
        self._op_factors = op_factors
        self._setup_factor = setup_factor

    def _seconds(self, per_op: Dict[int, float], in_ops_only: bool) -> float:
        total = 0.0
        for op, seconds in per_op.items():
            if op >= 0:
                total += seconds * self._op_factors[op]
            elif not in_ops_only:
                total += seconds * self._setup_factor
        return total

    def self_s(self, span: str) -> float:
        """Normalised self seconds of ``span`` summed over the timed ops."""
        entry = self.totals.get(span)
        return self._seconds(entry.self_s, True) if entry else 0.0

    def total_s(self, span: str) -> float:
        """Normalised inclusive seconds of ``span`` over the timed ops."""
        entry = self.totals.get(span)
        return self._seconds(entry.total_s, True) if entry else 0.0

    def percall_s(self, span: str) -> float:
        """Normalised self seconds per call, set-up calls included."""
        entry = self.totals.get(span)
        if not entry or not entry.calls:
            return 0.0
        return self._seconds(entry.self_s, False) / entry.calls

    def op_seconds(self, op: int) -> float:
        """Normalised duration of timed op ``op`` (its ``bench.op`` span)."""
        return self.totals[OP_SPAN].total_s[op] * self._op_factors[op]

    def metric(self, kind: str, span: str) -> float:
        """The value of a ``span_metrics`` entry: per-op milliseconds for
        ``self``/``total``, per-call milliseconds for ``percall``."""
        if kind == "percall":
            return 1000.0 * self.percall_s(span)
        if kind == "setup":  # seconds spent outside the ops, not per op
            entry = self.totals.get(span)
            outside = entry.total_s.get(-1, 0.0) if entry else 0.0
            return outside * self._setup_factor
        seconds = self.self_s(span) if kind == "self" else self.total_s(span)
        return 1000.0 * seconds / self.ops
