"""Causal trace assembly: span trees and critical paths.

The tracer (:mod:`repro.obs.tracer`) records a flat ring buffer of
spans, each carrying a ``trace_id`` and a ``parent_id``.  This module
reassembles that buffer into per-request trees and extracts the
**critical path** — the chain of spans that actually determined the
request's duration — so a dashboard can say *which* replica failovers,
backoffs and transfers a slow read paid for.

Spans carry two clocks.  ``duration_seconds`` is wall time (how long
the simulator spent computing); ``sim_duration`` is simulated time
(how long the modelled operation took — a transfer's modelled duration,
a retry's backoff).  :attr:`TraceNode.busy_seconds` prefers the
simulated duration when present, because that is the quantity the
latency SLOs are written against.

Also here: :class:`TraceSampler`, the head-based sampling decision the
DFS client consults before paying for a root span.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import MetricsError
from repro.obs.tracer import Span, Tracer

__all__ = [
    "TraceNode",
    "Trace",
    "TraceSampler",
    "assemble_traces",
    "format_trace",
]

_SpanLike = Union[Span, Mapping[str, Any]]


def _get(span: _SpanLike, key: str, default: Any = None) -> Any:
    if isinstance(span, Mapping):
        return span.get(key, default)
    return getattr(span, key, default)


@dataclass
class TraceNode:
    """One span inside an assembled trace tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    duration_seconds: float
    sim_time: Optional[float] = None
    sim_duration: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)
    children: List["TraceNode"] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        """The duration the critical path optimizes over.

        Simulated duration when the span recorded one (transfers,
        backoffs); wall-clock otherwise (in-process phases).
        """
        if self.sim_duration is not None:
            return self.sim_duration
        return self.duration_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_seconds": self.duration_seconds,
            "sim_time": self.sim_time,
            "sim_duration": self.sim_duration,
            "fields": dict(self.fields),
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class Trace:
    """One assembled request: a root span and its causal subtree."""

    trace_id: int
    root: TraceNode

    @property
    def name(self) -> str:
        """The root operation's name."""
        return self.root.name

    @property
    def duration_seconds(self) -> float:
        """The request's end-to-end busy duration."""
        return self.root.busy_seconds

    @property
    def span_count(self) -> int:
        """Spans in the tree."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    def critical_path(self) -> List[TraceNode]:
        """Root-to-leaf chain following the busiest child at each step."""
        path = [self.root]
        node = self.root
        while node.children:
            node = max(node.children, key=lambda c: c.busy_seconds)
            path.append(node)
        return path

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "duration_seconds": self.duration_seconds,
            "span_count": self.span_count,
            "root": self.root.to_dict(),
        }


def _node_from(span: _SpanLike) -> TraceNode:
    sim_time = _get(span, "sim_time")
    end_sim = _get(span, "end_sim")
    sim_duration = _get(span, "sim_duration")
    if sim_duration is None and sim_time is not None and end_sim is not None:
        sim_duration = end_sim - sim_time
    fields = _get(span, "fields", {}) or {}
    return TraceNode(
        name=_get(span, "name", ""),
        span_id=int(_get(span, "span_id", 0)),
        parent_id=_get(span, "parent_id"),
        duration_seconds=float(_get(span, "duration_seconds", 0.0)),
        sim_time=sim_time,
        sim_duration=sim_duration,
        fields=dict(fields),
    )


def assemble_traces(
    spans: Optional[Sequence[_SpanLike]] = None,
    tracer: Optional[Tracer] = None,
) -> List[Trace]:
    """Group spans by trace and rebuild each causal tree.

    Accepts live :class:`Span` objects or their ``as_dict()`` renderings
    (the JSON telemetry path).  Spans without a ``trace_id`` are
    skipped — they predate causal tracing or were recorded standalone.
    A span whose parent was evicted from the ring buffer becomes a root
    of its own partial trace, so old traces degrade instead of vanish.
    Traces are returned slowest-first.
    """
    if spans is None:
        if tracer is None:
            raise MetricsError("assemble_traces needs spans or a tracer")
        spans = tracer.spans()
    by_trace: Dict[int, List[TraceNode]] = {}
    for span in spans:
        trace_id = _get(span, "trace_id")
        if trace_id is None:
            continue
        by_trace.setdefault(int(trace_id), []).append(_node_from(span))
    traces: List[Trace] = []
    for trace_id, nodes in by_trace.items():
        by_id = {node.span_id: node for node in nodes}
        roots: List[TraceNode] = []
        for node in nodes:
            parent = (
                by_id.get(node.parent_id)
                if node.parent_id is not None else None
            )
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent.children.append(node)
        for root in roots:
            _sort_children(root)
            traces.append(Trace(trace_id=trace_id, root=root))
    traces.sort(key=lambda t: t.duration_seconds, reverse=True)
    return traces


def _sort_children(root: TraceNode) -> None:
    """Order children chronologically (span ids are allocation-ordered)."""
    stack = [root]
    while stack:
        node = stack.pop()
        node.children.sort(key=lambda c: c.span_id)
        stack.extend(node.children)


def format_trace(trace: Trace, indent: str = "  ") -> str:
    """A trace tree as indented text, critical path marked with ``*``."""
    critical = {id(node) for node in trace.critical_path()}
    lines = [
        f"trace {trace.trace_id}: {trace.name} "
        f"({trace.duration_seconds:.6g}s busy, {trace.span_count} spans)"
    ]

    def walk(node: TraceNode, depth: int) -> None:
        mark = "*" if id(node) in critical else " "
        at = (
            f" @t={node.sim_time:.1f}" if node.sim_time is not None else ""
        )
        extras = ""
        if node.fields:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(node.fields.items())
            )
            extras = f" [{rendered}]"
        lines.append(
            f"{mark}{indent * (depth + 1)}{node.name} "
            f"{node.busy_seconds:.6g}s{at}{extras}"
        )
        for child in node.children:
            walk(child, depth + 1)

    walk(trace.root, 0)
    return "\n".join(lines)


class TraceSampler:
    """Deterministic head-based sampling for request tracing.

    ``rate`` in [0, 1] is the fraction of requests that get a root
    span; the decision is one RNG draw, so a seeded sampler makes runs
    reproducible.  ``rate=1.0`` short-circuits to always-sample without
    consuming randomness.
    """

    def __init__(self, rate: float,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise MetricsError("sample rate must be in [0, 1]")
        self.rate = rate
        self._rng = rng or random.Random(0)
        self.decisions = 0
        self.sampled = 0

    def sample(self) -> bool:
        """Whether to trace the next request."""
        self.decisions += 1
        if self.rate >= 1.0:
            self.sampled += 1
            return True
        if self.rate <= 0.0:
            return False
        hit = self._rng.random() < self.rate
        if hit:
            self.sampled += 1
        return hit
