"""Seeded overload storm: the end-to-end acceptance scenario, shrunk.

Runs the protected/unprotected A/B pair at 1.5x capacity on a short
horizon.  The full four-load sweep is the ``overload.*`` claims of
``benchmarks/claims.py``; this standalone suite keeps the same
qualitative claims cheap enough for CI (``pytest -m overload``).
"""

import pytest

from repro.experiments.overload import (
    OverloadStormConfig,
    render_overload_pair,
    run_overload_pair,
)

pytestmark = pytest.mark.overload


@pytest.fixture(scope="module")
def storm_pair():
    config = OverloadStormConfig(
        horizon=200.0,
        drain=80.0,
        load_multiplier=1.5,
        zipf_s=1.2,
        aurora_period=60.0,
        seed=7,
    )
    return run_overload_pair(config)


class TestOverloadStorm:
    def test_protection_wins_on_availability(self, storm_pair):
        protected, unprotected = storm_pair
        assert protected.availability > unprotected.availability

    def test_protected_tail_is_bounded(self, storm_pair):
        protected, unprotected = storm_pair
        # Bounded queues cap the wait at capacity/rate; the unbounded
        # baseline's backlog grows without limit for the whole storm.
        assert protected.p99_latency <= 10.0
        assert unprotected.p99_latency > 30.0

    def test_load_is_actually_shed(self, storm_pair):
        protected, unprotected = storm_pair
        assert protected.reads_shed > 0
        assert protected.queue_shed > 0
        assert unprotected.reads_shed == 0

    def test_brownout_engages_only_under_protection(self, storm_pair):
        protected, unprotected = storm_pair
        assert protected.brownout_periods > 0
        assert unprotected.brownout_periods == 0

    def test_fsck_healthy_after_both_storms(self, storm_pair):
        for result in storm_pair:
            assert result.fsck is not None
            assert result.fsck.healthy, result.fsck.counts_by_check()

    def test_report_renders(self, storm_pair):
        protected, unprotected = storm_pair
        text = render_overload_pair(protected, unprotected)
        assert "protected" in text
        assert "availability" in text
