"""Unit tests for the DES engine."""

import pytest

from repro.errors import SimulationError
from repro.simulation.engine import Simulation


class TestSimulation:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        log = []
        sim.schedule(5.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(9.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 9.0
        assert sim.events_processed == 3

    def test_ties_break_by_insertion_order(self):
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_run_until_stops_clock_exactly(self):
        sim = Simulation()
        log = []
        sim.schedule(10.0, lambda: log.append("late"))
        sim.run(until=4.0)
        assert log == []
        assert sim.now == 4.0
        sim.run()
        assert log == ["late"]

    def test_run_until_advances_clock_on_empty_queue(self):
        sim = Simulation()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_cancellation(self):
        sim = Simulation()
        log = []
        token = sim.schedule(1.0, lambda: log.append("x"))
        token.cancel()
        sim.run()
        assert log == []

    def test_periodic_fires_repeatedly_until_cancelled(self):
        sim = Simulation()
        log = []
        token = sim.schedule_periodic(2.0, lambda: log.append(sim.now))
        sim.run(until=7.0)
        assert log == [2.0, 4.0, 6.0]
        token.cancel()
        sim.run(until=20.0)
        assert log == [2.0, 4.0, 6.0]

    def test_periodic_first_at_override(self):
        sim = Simulation()
        log = []
        sim.schedule_periodic(5.0, lambda: log.append(sim.now), first_at=0.0)
        sim.run(until=11.0)
        assert log == [0.0, 5.0, 10.0]

    def test_events_scheduled_during_events(self):
        sim = Simulation()
        log = []

        def outer():
            sim.schedule(1.0, lambda: log.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == ["inner"]
        assert sim.now == 2.0

    def test_max_events_cap(self):
        sim = Simulation()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: log.append(i))
        sim.run(max_events=2)
        assert log == [0, 1]

    def test_rejects_past_scheduling(self):
        sim = Simulation(start=10.0)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)

    def test_step_returns_false_when_empty(self):
        sim = Simulation()
        assert not sim.step()


class TestEngineDeterminismRegression:
    """Pins the tuple-heap kernel's exact dispatch behavior.

    The event queue stores plain ``(time, seq, action, token)`` tuples
    and the run loop skips cancelled heads without dispatching; neither
    micro-optimization may change execution order, cancellation
    semantics, or the processed-event count.
    """

    @staticmethod
    def _drive(seed):
        import random

        rng = random.Random(seed)
        sim = Simulation()
        log = []
        tokens = []

        def fire(tag):
            log.append((sim.now, tag))
            # Events scheduled from within events, with same-time ties.
            if rng.random() < 0.3:
                sim.schedule(
                    rng.choice([0.0, 1.0, 2.5]),
                    lambda t=f"{tag}+": log.append((sim.now, t)),
                )
            # Some events cancel a pending later event mid-run.
            if tokens and rng.random() < 0.3:
                tokens.pop(rng.randrange(len(tokens))).cancel()

        for i in range(60):
            token = sim.schedule_at(
                rng.choice([0.0, 1.0, 1.0, 3.0, 7.5, 10.0]),
                lambda i=i: fire(i),
            )
            tokens.append(token)
        # Cancel a batch up front, including (likely) some queue heads.
        for _ in range(15):
            tokens.pop(rng.randrange(len(tokens))).cancel()
        sim.run(until=20.0)
        return log, sim.events_processed, sim.now

    def test_identical_runs_replay_identically(self):
        for seed in range(5):
            assert self._drive(seed) == self._drive(seed)

    def test_order_and_counts(self):
        log, processed, now = self._drive(seed=42)
        # Time never goes backwards, every dispatch was counted, and
        # the clock ended exactly at the horizon.
        times = [t for t, _ in log]
        assert times == sorted(times)
        assert processed == len(log)
        assert now == 20.0

    def test_cancelled_events_never_fire_nor_count(self):
        sim = Simulation()
        log = []
        keep = sim.schedule_at(1.0, lambda: log.append("keep"))
        for i in range(10):
            sim.schedule_at(0.5, lambda i=i: log.append(i)).cancel()
        assert keep is not None
        sim.run()
        assert log == ["keep"]
        assert sim.events_processed == 1

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulation()
        log = []
        for i in range(50):
            sim.schedule_at(5.0, lambda i=i: log.append(i))
        sim.run()
        assert log == list(range(50))

