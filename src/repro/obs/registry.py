"""Labeled metrics registry: counters, gauges and histograms.

The one metrics system of the stack.  It follows the Prometheus data
model so every layer can emit named, labeled series through one process
global (per-run figures such as task counts and movement durations are
plain attributes of the component that produces them):

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — last-write-wins instantaneous values;
* :class:`Histogram` — bucketed samples with sum/count/min/max and a
  bucket-interpolated percentile estimator;
* :class:`MetricsRegistry` — owns the metrics, hands out handles
  idempotently, and snapshots/resets them atomically.

Overhead contract: the default registry starts **disabled**, and every
observation method begins with one attribute check
(``if not self._registry._enabled: return``), so instrumentation left in
hot paths costs a no-op method call until an operator opts in via
:func:`enable_metrics`.  Hot loops additionally batch their counts and
flush once per run (see ``repro.core.local_search``).
"""

from __future__ import annotations

import ast
import math
import re
import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import MetricsError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
]

# Wall-clock latencies in this codebase span ~1us (one no-op guard) to
# minutes (a full figure run), hence the wide geometric spacing.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 10.0, 60.0, 300.0, 3600.0,
)

_LabelKey = Tuple[str, ...]


def _format_labels(labelnames: Sequence[str], values: _LabelKey) -> str:
    pairs = ", ".join(f"{k}={v!r}" for k, v in zip(labelnames, values))
    return "{" + pairs + "}"


# One name=<repr'd string> pair inside a rendered label string.
_LABEL_PAIR = re.compile(
    r"(\w+)=('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")"
)


class _MetricBase:
    """Shared plumbing: label validation and child caching."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[_LabelKey, "_MetricBase"] = {}
        self._label_values: _LabelKey = ()

    def labels(self, **labels: str) -> "_MetricBase":
        """The child series for one concrete label set (cached)."""
        if not self.labelnames:
            raise MetricsError(f"metric {self.name!r} has no labels")
        if set(labels) != set(self.labelnames):
            raise MetricsError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = type(self)(self._registry, self.name, self.help, ())
            child._label_values = key
            self._children[key] = child
        return child

    def _require_leaf(self) -> None:
        if self.labelnames:
            raise MetricsError(
                f"metric {self.name!r} is labeled; call "
                f".labels({', '.join(self.labelnames)}) first"
            )

    def _series(self) -> List[Tuple[_LabelKey, "_MetricBase"]]:
        """(label values, leaf) pairs, parents first for stable output."""
        if self.labelnames:
            return [
                (key, child) for key, child in sorted(self._children.items())
            ]
        return [((), self)]

    def _reset_values(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Zero this metric; a labeled metric drops every child series."""
        if self.labelnames:
            self._children.clear()
        else:
            self._reset_values()


class Counter(_MetricBase):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, registry, name, help, labelnames) -> None:
        super().__init__(registry, name, help, labelnames)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if not self._registry._enabled:
            return
        self._require_leaf()
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        self._require_leaf()
        return self._value

    def _reset_values(self) -> None:
        self._value = 0.0


class Gauge(_MetricBase):
    """An instantaneous value that can go up and down."""

    kind = "gauge"

    def __init__(self, registry, name, help, labelnames) -> None:
        super().__init__(registry, name, help, labelnames)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        if not self._registry._enabled:
            return
        self._require_leaf()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        if not self._registry._enabled:
            return
        self._require_leaf()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current value."""
        self._require_leaf()
        return self._value

    def _reset_values(self) -> None:
        self._value = 0.0


class Histogram(_MetricBase):
    """Bucketed sample distribution (Prometheus cumulative-bucket style).

    Buckets are upper bounds; an implicit ``+Inf`` bucket always exists.
    ``percentile`` estimates quantiles by linear interpolation inside the
    winning bucket, clamped to the observed min/max so it stays
    within one bucket width of the exact sample percentile.
    """

    kind = "histogram"

    def __init__(self, registry, name, help, labelnames,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricsError(f"histogram {self.name!r} needs >= 1 bucket")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"histogram {self.name!r} buckets must strictly increase"
            )
        self.buckets: Tuple[float, ...] = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def labels(self, **labels: str) -> "Histogram":
        if not self.labelnames:
            raise MetricsError(f"metric {self.name!r} has no labels")
        if set(labels) != set(self.labelnames):
            raise MetricsError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = Histogram(self._registry, self.name, self.help, (),
                              buckets=self.buckets)
            child._label_values = key
            self._children[key] = child
        return child  # type: ignore[return-value]

    def observe(self, value: float) -> None:
        """Record one sample."""
        if not self._registry._enabled:
            return
        self._require_leaf()
        value = float(value)
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        """Total samples observed."""
        self._require_leaf()
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        self._require_leaf()
        return self._sum

    def mean(self) -> float:
        """Arithmetic mean (nan when empty)."""
        self._require_leaf()
        if self._count == 0:
            return math.nan
        return self._sum / self._count

    def cumulative_counts(self) -> List[int]:
        """Cumulative count per bucket, ``+Inf`` last."""
        self._require_leaf()
        out, running = [], 0
        for count in self._counts:
            running += count
            out.append(running)
        return out

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile, ``q`` in [0, 100] (nan if empty)."""
        self._require_leaf()
        if not 0 <= q <= 100:
            raise MetricsError("percentile q must be in [0, 100]")
        if self._count == 0:
            return math.nan
        rank = q / 100.0 * self._count
        cumulative = self.cumulative_counts()
        for index, seen in enumerate(cumulative):
            if seen >= rank:
                upper = (
                    self._max if index == len(self.buckets)
                    else min(self.buckets[index], self._max)
                )
                lower = self._min if index == 0 else self.buckets[index - 1]
                lower = max(lower, self._min)
                if upper <= lower:
                    return upper
                prior = cumulative[index - 1] if index else 0
                in_bucket = seen - prior
                fraction = (rank - prior) / in_bucket if in_bucket else 1.0
                return lower + fraction * (upper - lower)
        return self._max

    def _reset_values(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf


class MetricsRegistry:
    """Owns a namespace of metrics; hands out handles idempotently.

    ``counter``/``gauge``/``histogram`` return the existing metric when
    the name is already registered (so module-level handles and test
    lookups alias the same object) and raise on kind or label-name
    conflicts.  ``snapshot`` produces a pure-python structure the
    exporters and the harness serialize; ``reset`` zeroes every series
    while keeping registrations (module-level handles stay valid).
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._metrics: Dict[str, _MetricBase] = {}
        self._lock = threading.Lock()

    # -- enablement ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether observations are being recorded."""
        return self._enabled

    def enable(self) -> None:
        """Start recording observations."""
        self._enabled = True

    def disable(self) -> None:
        """Drop observations on the floor (near-zero overhead)."""
        self._enabled = False

    # -- registration --------------------------------------------------------

    def _register(self, cls, name: str, help: str,
                  labelnames: Sequence[str], **kwargs) -> _MetricBase:
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise MetricsError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricsError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise MetricsError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            metric = cls(self, name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Register (or look up) a counter."""
        return self._register(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Register (or look up) a gauge."""
        return self._register(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Register (or look up) a histogram."""
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )  # type: ignore[return-value]

    def get(self, name: str) -> Optional[_MetricBase]:
        """The metric called ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def metrics(self) -> List[_MetricBase]:
        """All registered metrics, sorted by name."""
        return [self._metrics[name] for name in self.names()]

    # -- snapshot / reset ----------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """All current values as a plain, JSON-friendly structure.

        Shape per metric: ``{"kind", "help", "labelnames", "series"}``
        where ``series`` maps a rendered label string (``""`` for
        unlabeled metrics) to the leaf's value — a number for
        counters/gauges, a ``{"count", "sum", "buckets"}`` dict for
        histograms.
        """
        out: Dict[str, dict] = {}
        for metric in self.metrics():
            series: Dict[str, object] = {}
            for key, leaf in metric._series():
                label = (
                    _format_labels(metric.labelnames, key) if key else ""
                )
                if isinstance(leaf, Histogram):
                    series[label] = {
                        "count": leaf.count,
                        "sum": leaf.sum,
                        "min": leaf._min if leaf.count else None,
                        "max": leaf._max if leaf.count else None,
                        "buckets": {
                            ("+Inf" if i == len(leaf.buckets)
                             else repr(leaf.buckets[i])): cum
                            for i, cum in enumerate(leaf.cumulative_counts())
                        },
                    }
                else:
                    series[label] = leaf.value  # type: ignore[union-attr]
            out[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "series": series,
            }
        return out

    def reset(self) -> None:
        """Zero every series and drop labeled children.

        Registrations and unlabeled handles survive; a snapshot taken
        after a reset lists only the labeled series created since.
        """
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()

    # -- merging -------------------------------------------------------------

    def merge(self, snapshot: Mapping[str, dict]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters add; gauges take the incoming value (last write wins,
        in merge-call order); histograms add per-bucket counts, sum and
        count and widen min/max.  Metrics or label series absent locally
        are created on the fly, so a parent process can absorb worker
        snapshots without pre-registering every metric.  Merging happens
        regardless of the enabled flag — the snapshot was already paid
        for elsewhere.
        """
        for name, data in snapshot.items():
            kind = data["kind"]
            help_text = data.get("help", "")
            labelnames = tuple(data["labelnames"])
            series: Mapping[str, object] = data["series"]
            if kind == "counter":
                metric = self.counter(name, help_text, labelnames)
            elif kind == "gauge":
                metric = self.gauge(name, help_text, labelnames)
            elif kind == "histogram":
                bounds = None
                for value in series.values():
                    bounds = tuple(
                        float(key)
                        for key in value["buckets"]  # type: ignore[index]
                        if key != "+Inf"
                    )
                    break
                metric = self.histogram(
                    name, help_text, labelnames,
                    buckets=bounds if bounds else DEFAULT_BUCKETS,
                )
            else:
                raise MetricsError(
                    f"cannot merge metric {name!r} of kind {kind!r}"
                )
            for rendered, value in series.items():
                if labelnames:
                    labels = _labels_from_string(labelnames, rendered)
                    leaf = metric.labels(**labels)
                else:
                    leaf = metric
                if kind == "counter":
                    leaf._value += float(value)  # type: ignore[attr-defined, arg-type]
                elif kind == "gauge":
                    leaf._value = float(value)  # type: ignore[attr-defined, arg-type]
                else:
                    self._merge_histogram(leaf, value)  # type: ignore[arg-type]

    @staticmethod
    def _merge_histogram(leaf: "Histogram", value: Mapping[str, object]) -> None:
        buckets: Mapping[str, int] = value["buckets"]  # type: ignore[assignment]
        if len(buckets) != len(leaf.buckets) + 1:
            raise MetricsError(
                f"histogram {leaf.name!r} bucket layout mismatch in merge"
            )
        previous = 0
        for index, cumulative in enumerate(buckets.values()):
            leaf._counts[index] += cumulative - previous
            previous = cumulative
        leaf._sum += float(value["sum"])  # type: ignore[arg-type]
        leaf._count += int(value["count"])  # type: ignore[arg-type]
        incoming_min = value.get("min")
        incoming_max = value.get("max")
        if incoming_min is not None and float(incoming_min) < leaf._min:  # type: ignore[arg-type]
            leaf._min = float(incoming_min)  # type: ignore[arg-type]
        if incoming_max is not None and float(incoming_max) > leaf._max:  # type: ignore[arg-type]
            leaf._max = float(incoming_max)  # type: ignore[arg-type]


# -- the process-global default registry ------------------------------------

# Disabled by default: the acceptance contract is <5% overhead on the
# seed's hot paths when nobody asked for metrics.
_DEFAULT = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global default registry every layer emits into."""
    return _DEFAULT


def enable_metrics() -> None:
    """Turn on recording in the default registry."""
    _DEFAULT.enable()


def disable_metrics() -> None:
    """Turn off recording in the default registry."""
    _DEFAULT.disable()


def metrics_enabled() -> bool:
    """Whether the default registry is recording."""
    return _DEFAULT.enabled


def _labels_from_string(labelnames: Sequence[str], rendered: str) -> Mapping[str, str]:
    """Inverse of the snapshot label rendering.

    Values are rendered with ``repr`` (label values are always strings),
    so each is a quoted Python literal; matching the literal and
    ``literal_eval``-ing it survives embedded quotes, backslashes,
    newlines and commas.
    """
    if not rendered:
        return {}
    out = {}
    for name, literal in _LABEL_PAIR.findall(rendered):
        out[name] = ast.literal_eval(literal)
    return out
