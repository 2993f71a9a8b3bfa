"""Unit tests for the labeled metrics registry."""

import math
import random

import numpy as np
import pytest

from repro.errors import MetricsError
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_negative_inc_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        with pytest.raises(MetricsError):
            c.inc(-1)

    def test_labels_cache_children(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labelnames=["kind"])
        a = c.labels(kind="move")
        b = c.labels(kind="move")
        assert a is b
        a.inc(3)
        assert c.labels(kind="move").value == 3
        assert c.labels(kind="swap").value == 0

    def test_wrong_label_names_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labelnames=["kind"])
        with pytest.raises(MetricsError):
            c.labels(wrong="x")
        with pytest.raises(MetricsError):
            reg.counter("plain_total").labels(kind="x")

    def test_labeled_parent_rejects_direct_observation(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labelnames=["kind"])
        with pytest.raises(MetricsError):
            c.inc()

    def test_disabled_registry_drops_observations(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("requests_total")
        c.inc(10)
        assert c.value == 0
        reg.enable()
        c.inc(10)
        assert c.value == 10


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == pytest.approx(4.0)


class TestHistogram:
    def test_observe_and_cumulative_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(56.2)
        assert h.cumulative_counts() == [2, 3, 4]

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus buckets are upper-inclusive: observe(1.0) counts
        # toward le="1.0".
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.cumulative_counts() == [1, 1, 1]

    def test_mean_and_empty_percentile(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        assert math.isnan(h.mean())
        assert math.isnan(h.percentile(50))
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean() == pytest.approx(3.0)

    def test_percentile_close_to_exact_distribution(self):
        # The bucket-interpolated estimate must track the exact empirical
        # percentile to within one bucket width.
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=DEFAULT_BUCKETS)
        exact = []
        rng = random.Random(7)
        for _ in range(2000):
            v = rng.expovariate(1.0 / 0.05)
            h.observe(v)
            exact.append(v)
        for q in (50, 90, 99):
            estimated = h.percentile(q)
            truth = float(np.percentile(exact, q))
            # Bucket width at these magnitudes is <= the next bound up.
            assert estimated == pytest.approx(truth, rel=1.0)
            assert estimated <= h.percentile(100)

    def test_percentile_validation(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        with pytest.raises(MetricsError):
            h.percentile(101)

    def test_bucket_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.histogram("bad", buckets=())
        with pytest.raises(MetricsError):
            reg.histogram("bad2", buckets=(1.0, 1.0))

    def test_labeled_children_share_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", labelnames=["op"], buckets=(1.0, 2.0))
        assert h.labels(op="a").buckets == (1.0, 2.0)


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help")
        b = reg.counter("x_total")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(MetricsError):
            reg.gauge("x_total")

    def test_label_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=["a"])
        with pytest.raises(MetricsError):
            reg.counter("x_total", labelnames=["b"])

    def test_invalid_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.counter("")
        with pytest.raises(MetricsError):
            reg.counter("has space")

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=["k"])
        c.labels(k="a").inc(5)
        reg.reset()
        assert reg.get("x_total") is c
        # The handle stays usable; a child looked up again starts at zero.
        assert c.labels(k="a").value == 0
        c.labels(k="a").inc()
        assert c.labels(k="a").value == 1

    def test_reset_drops_labeled_series(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=["k"])
        h = reg.histogram("h", labelnames=["k"], buckets=(1.0,))
        c.labels(k="before").inc()
        h.labels(k="before").observe(0.5)
        reg.reset()
        c.labels(k="after").inc()
        snap = reg.snapshot()
        assert list(snap["x_total"]["series"]) == ["{k='after'}"]
        assert snap["h"]["series"] == {}

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter", labelnames=["k"]).labels(
            k="x"
        ).inc(2)
        reg.gauge("g", "a gauge").set(1.5)
        reg.histogram("h", "a histogram", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["c_total"]["kind"] == "counter"
        assert snap["c_total"]["series"]["{k='x'}"] == 2
        assert snap["g"]["series"][""] == 1.5
        hseries = snap["h"]["series"][""]
        assert hseries["count"] == 1
        assert hseries["buckets"]["+Inf"] == 1

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.counter("a_total")
        assert reg.names() == ["a_total", "b_total"]
