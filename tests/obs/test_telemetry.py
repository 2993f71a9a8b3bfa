"""Tests for the telemetry session/bundle and the regression gate."""

import json

import pytest

from repro.errors import MetricsError
from repro.obs.gate import (
    GateViolation,
    check_bundle,
    compare,
    summarize_telemetry,
    write_baseline,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import availability_slo
from repro.obs.telemetry import TelemetryBundle, TelemetrySession
from repro.obs.tracer import Tracer
from repro.simulation.engine import Simulation


def make_session(**kwargs):
    registry = MetricsRegistry(enabled=False)
    tracer = Tracer(enabled=False)
    kwargs.setdefault("interval", 10.0)
    return TelemetrySession(
        registry=registry, tracer=tracer, **kwargs
    ), registry, tracer


def run_fake_workload(session, registry, tracer, latency=0.5):
    """Drive a tiny simulated run through the session's pipeline."""
    good = registry.counter("reads_total", "Reads")
    bad = registry.counter("read_errors_total", "Errors")
    lat = registry.histogram("latency_seconds", "Latency",
                             buckets=(1.0, 5.0))
    sim = Simulation()
    session.install(sim)
    session.add_objective(availability_slo(
        "availability", "reads_total", "read_errors_total",
        target=0.9, window=30.0,
    ))

    def tick():
        good.inc(9)
        bad.inc(1)
        lat.observe(latency)
        span = tracer.begin("dfs.read", sim_time=sim.now)
        tracer.finish(span, end_sim=sim.now + latency)

    sim.schedule_periodic(5.0, tick)
    sim.run(until=60.0)
    session.finish(sim.now)
    return session


class TestTelemetrySession:
    def test_enables_registry_and_tracer(self):
        session, registry, tracer = make_session()
        assert registry.enabled
        assert tracer.enabled
        assert session.slo.recorder is session.recorder

    def test_install_resets_carried_over_state(self):
        session, registry, tracer = make_session()
        registry.counter("stale_total", "Stale").inc(99)
        with tracer.trace("stale"):
            pass
        session.install(Simulation())
        assert registry.counter("stale_total").value == 0
        assert tracer.spans() == []

    def test_sampler_is_deterministic_per_seed_and_salt(self):
        session, _, _ = make_session(seed=3, trace_sample_rate=0.5)
        first, second, salted = (
            session.sampler(), session.sampler(), session.sampler(salt=1)
        )
        a = [first.sample() for _ in range(100)]
        b = [second.sample() for _ in range(100)]
        c = [salted.sample() for _ in range(100)]
        assert a == b
        assert a != c

    def test_write_and_load_round_trip(self, tmp_path):
        session, registry, tracer = make_session(label="demo", seed=7)
        run_fake_workload(session, registry, tracer)
        directory = session.write(tmp_path / "tel")
        bundle = TelemetryBundle.load(directory)
        assert bundle.meta["label"] == "demo"
        assert bundle.meta["seed"] == 7
        assert bundle.meta["samples_taken"] == session.recorder.samples_taken
        series = bundle.recorder.get("reads_total")
        assert series is not None and len(series) > 0
        (status,) = bundle.statuses
        assert status.objective.name == "availability"
        assert status.overall_sli == pytest.approx(0.9)
        traces = bundle.traces()
        assert traces and traces[0].name == "dfs.read"

    def test_write_after_a_later_install_records_the_finished_run(
        self, tmp_path
    ):
        # Two sessions on one registry and tracer, run back to back (as
        # the overload A/B pair does): the first session must still
        # write its own spans and counters after the second install()
        # has reset them.
        first, registry, tracer = make_session(label="first")
        run_fake_workload(first, registry, tracer)
        second = TelemetrySession(
            registry=registry, tracer=tracer, label="second", interval=10.0,
        )
        second.install(Simulation())
        bundle = TelemetryBundle.load(first.write(tmp_path / "first"))
        assert bundle.meta["spans_recorded"] == 12
        assert len(bundle.traces()) == 12
        assert bundle.snapshot["metrics"]["reads_total"]["series"] == {
            "": 108.0
        }

    def test_load_rejects_non_telemetry_directory(self, tmp_path):
        (tmp_path / "meta.json").write_text("{}", encoding="utf-8")
        with pytest.raises(MetricsError, match="timeseries.json"):
            TelemetryBundle.load(tmp_path)


class TestRegressionGate:
    def make_bundle(self, tmp_path, latency=0.5, name="tel"):
        session, registry, tracer = make_session(label="gate")
        run_fake_workload(session, registry, tracer, latency=latency)
        return TelemetryBundle.load(session.write(tmp_path / name))

    def test_summary_is_deterministic(self, tmp_path):
        a = summarize_telemetry(self.make_bundle(tmp_path, name="a"))
        b = summarize_telemetry(self.make_bundle(tmp_path, name="b"))
        assert a == b
        assert a["reads_total/total"] > 0
        assert "latency_seconds/p99" in a
        assert a["slo/availability/overall_sli"] == pytest.approx(0.9)

    def test_identical_run_passes(self, tmp_path):
        bundle = self.make_bundle(tmp_path)
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, summarize_telemetry(bundle))
        assert check_bundle(bundle, baseline) == []

    def test_flags_2x_latency_inflation(self, tmp_path):
        baseline_bundle = self.make_bundle(tmp_path, latency=2.0, name="a")
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, summarize_telemetry(baseline_bundle))
        inflated = self.make_bundle(tmp_path, latency=4.0, name="b")
        violations = check_bundle(inflated, baseline)
        keys = {v.key for v in violations}
        assert "latency_seconds/mean" in keys

    def test_missing_series_violates(self):
        violations = compare({}, {"reads_total/total": 100.0})
        (violation,) = violations
        assert violation.actual == 0.0
        assert "reads_total" in str(violation)

    def test_new_keys_are_not_regressions(self):
        assert compare({"brand_new/total": 5.0}, {}) == []

    def test_absolute_floor_protects_near_zero_counts(self):
        assert compare({"errors/total": 0.9}, {"errors/total": 0.0}) == []
        (violation,) = compare({"errors/total": 8.0},
                               {"errors/total": 2.0})
        assert violation.relative_delta == pytest.approx(3.0)

    def test_longest_prefix_tolerance_wins(self):
        summary = {"latency_seconds/p99": 2.0}
        baseline = {"latency_seconds/p99": 1.0}
        tolerances = {"latency_seconds": 0.05, "latency_seconds/p99": 2.0}
        assert compare(summary, baseline, tolerances,
                       absolute_floor=0.0) == []
        tolerances = {"latency_seconds": 2.0, "latency_seconds/p99": 0.05}
        violations = compare(summary, baseline, tolerances,
                             absolute_floor=0.0)
        assert len(violations) == 1
        assert violations[0].allowed == 0.05

    def test_baseline_file_round_trips_tolerances(self, tmp_path):
        path = write_baseline(
            tmp_path / "b.json", {"x/total": 1.0},
            tolerances={"x": 0.5}, note="demo",
        )
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert raw["note"] == "demo"
        assert raw["tolerances"] == {"x": 0.5}
        assert raw["summary"] == {"x/total": 1.0}

    def test_violation_renders_readably(self):
        text = str(GateViolation("k/total", 10.0, 25.0, 0.25))
        assert "k/total" in text
        assert "150.0%" in text
