"""Tests for the scale study."""

import pytest

from repro.experiments.scale import (
    ScalePoint,
    render_scale_study,
    run_scale_study,
)
from repro.experiments.harness import RunResult, SystemKind


class TestScaleStudy:
    def test_small_sweep_runs(self):
        points = run_scale_study(
            machines_per_rack_options=(2, 3),
            num_racks=3,
            jobs_per_machine_hour=6.0,
            duration_hours=1.0,
        )
        assert [p.num_machines for p in points] == [6, 9]
        for point in points:
            assert point.hdfs.jobs_completed == point.hdfs.jobs_submitted
            assert point.aurora.jobs_completed == point.aurora.jobs_submitted

    def test_render_mentions_conjecture(self):
        fake = [
            ScalePoint(
                num_machines=10,
                hdfs=RunResult(system=SystemKind.HDFS, epsilon=0.0,
                               horizon_hours=1.0, num_machines=10,
                               local_tasks=80, remote_tasks=20),
                aurora=RunResult(system=SystemKind.AURORA, epsilon=0.1,
                                 horizon_hours=1.0, num_machines=10,
                                 local_tasks=95, remote_tasks=5),
            ),
            ScalePoint(
                num_machines=20,
                hdfs=RunResult(system=SystemKind.HDFS, epsilon=0.0,
                               horizon_hours=1.0, num_machines=20,
                               local_tasks=60, remote_tasks=40),
                aurora=RunResult(system=SystemKind.AURORA, epsilon=0.1,
                                 horizon_hours=1.0, num_machines=20,
                                 local_tasks=90, remote_tasks=10),
            ),
        ]
        text = render_scale_study(fake)
        assert "CONFIRMED" in text
        assert fake[0].gain == pytest.approx(0.15)
        assert fake[1].gain == pytest.approx(0.30)

    def test_render_flags_non_monotone(self):
        def point(machines, hdfs_remote, aurora_remote):
            total = 100
            return ScalePoint(
                num_machines=machines,
                hdfs=RunResult(system=SystemKind.HDFS, epsilon=0.0,
                               horizon_hours=1.0, num_machines=machines,
                               local_tasks=total - hdfs_remote,
                               remote_tasks=hdfs_remote),
                aurora=RunResult(system=SystemKind.AURORA, epsilon=0.1,
                                 horizon_hours=1.0, num_machines=machines,
                                 local_tasks=total - aurora_remote,
                                 remote_tasks=aurora_remote),
            )

        text = render_scale_study([
            point(10, 50, 10),  # gain 0.40
            point(20, 30, 20),  # gain 0.10 — shrank
        ])
        assert "NOT CONFIRMED" in text

