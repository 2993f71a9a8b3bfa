"""Metrics-snapshot regression gate for the instrumented quick storm.

One seeded quick chaos run (the same preset as ``repro chaos --quick``)
is collapsed by :func:`repro.obs.gate.summarize_telemetry` into flat
sim-clock statistics — counter totals, windowed-histogram percentiles,
gauge extremes and SLO burn — and compared against the committed
baseline in ``benchmarks/baselines/metrics_baseline.json`` with
per-prefix tolerance bands.  A violation means instrumented behaviour
drifted: latency inflation, error-rate shifts, lost samples or a series
that silently stopped being recorded.

Only simulated-clock quantities enter the summary, so the same seed
produces the same numbers on any machine; the bands absorb intentional
small behaviour changes, not noise.  After an *intentional* change in
simulated behaviour, regenerate the baseline and commit it:

    PYTHONPATH=src python benchmarks/test_metrics_regression.py

The self-test doubles every latency statistic in a copy of the fresh
summary and asserts the gate flags it — proof the bands are tight
enough to catch a 2x regression, not just decoration.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.bitrot import BitRotConfig, run_bit_rot
from repro.experiments.chaos import (
    ChaosConfig,
    LeaderKillConfig,
    run_chaos,
    run_leader_kill,
)
from repro.obs.gate import (
    check_bundle,
    compare,
    load_baseline,
    load_tolerances,
    summarize_telemetry,
    write_baseline,
)
from repro.obs.telemetry import TelemetryBundle, TelemetrySession

pytestmark = pytest.mark.bench

RESULTS = Path(__file__).parent / "results"
BASELINE = Path(__file__).parent / "baselines" / "metrics_baseline.json"
LEADERKILL_BASELINE = (
    Path(__file__).parent / "baselines" / "metrics_baseline_leaderkill.json"
)
BITROT_BASELINE = (
    Path(__file__).parent / "baselines" / "metrics_baseline_bitrot.json"
)

GATE_SEED = 0

# Prefix bands layered over the 25% default.  Percentiles of sparse
# histograms move in bucket-sized steps, so they get extra slack;
# totals of high-volume counters are tighter than the default because
# they aggregate thousands of events.
TOLERANCES = {
    "repro_dfs_read_latency_seconds/p": 0.5,
    "repro_dfs_recovery_seconds/p": 0.5,
    "repro_dfs_reads_total": 0.15,
    "run/": 0.15,
}

# The leader-kill gate pins the failover telemetry: election counts,
# time-to-leader/time-to-writable percentiles, journal shipping volume
# and the client-op availability series.  Failover timings move in
# poll-interval steps, so their percentiles get histogram-grade slack.
LEADERKILL_TOLERANCES = {
    "repro_ha_time_to_leader_seconds/p": 0.5,
    "repro_ha_time_to_writable_seconds/p": 0.5,
    "repro_dfs_read_latency_seconds/p": 0.5,
    "run/": 0.15,
}

# The bit-rot gate pins the integrity telemetry: scrub throughput,
# corrupt-replica detections per detector, detection/repair latency
# percentiles and the purge counter.  Detection latencies move in
# scrub-pass-sized steps, so their percentiles get histogram slack;
# the scrub scan counters aggregate tens of thousands of replicas and
# are pinned tight.
BITROT_TOLERANCES = {
    "repro_dfs_integrity_detection_seconds/p": 0.5,
    "repro_dfs_integrity_repair_seconds/p": 0.5,
    "repro_dfs_read_latency_seconds/p": 0.5,
    "repro_dfs_integrity_scrubbed_replicas_total": 0.1,
    "repro_dfs_integrity_scrub_bytes_total": 0.1,
    "run/": 0.15,
}


# Histograms of wall-clock durations: their sample counts follow the
# simulation, but their mean and quantiles differ on every run.  The
# gate still compares them against the baselines; the recorded
# ``metrics_gate*.txt`` files keep only their ``/count`` so that the
# same code writes the same bytes.
WALL_CLOCK_HISTOGRAMS = frozenset({
    "repro_aurora_period_seconds",
    "repro_aurora_phase_seconds",
    "repro_core_search_seconds",
    "repro_core_repfactor_seconds",
})


def write_gate_result(name: str, summary, violations) -> None:
    """Record the run-exact part of a gate summary and its verdict."""
    lines = []
    for key, value in sorted(summary.items()):
        series, stat = key.rsplit("/", 1)
        if (series.split("{", 1)[0] in WALL_CLOCK_HISTOGRAMS
                and stat != "count"):
            continue
        lines.append(f"{key} = {value:.6g}")
    lines.append("")
    lines.append(f"violations: {len(violations)}")
    lines.extend(str(v) for v in violations)
    (RESULTS / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def gate_config() -> ChaosConfig:
    """The ``repro chaos --quick`` storm, pinned for the gate."""
    return ChaosConfig(
        num_racks=3, machines_per_rack=3, capacity_blocks=100,
        num_files=8, horizon=1800.0, read_interval=5.0,
        crash_mtbf=600.0, partition_mtbf=900.0, drain=600.0,
        profiles=("crash", "partition", "flaky"),
        replication_throttle=8, seed=GATE_SEED,
    )


def run_gate_bundle(out_dir: Path) -> TelemetryBundle:
    session = TelemetrySession(
        label="metrics-gate", seed=GATE_SEED,
        trace_sample_rate=0.1, interval=15.0,
    )
    run_chaos(gate_config(), telemetry=session)
    return TelemetryBundle.load(session.write(out_dir))


def leaderkill_config() -> LeaderKillConfig:
    """The ``repro chaos --kill-leader --quick`` run, pinned."""
    return LeaderKillConfig(seed=GATE_SEED)


def run_leaderkill_bundle(out_dir: Path) -> TelemetryBundle:
    session = TelemetrySession(
        label="metrics-gate-leaderkill", seed=GATE_SEED,
        trace_sample_rate=0.1, interval=15.0,
    )
    run_leader_kill(leaderkill_config(), telemetry=session)
    return TelemetryBundle.load(session.write(out_dir))


def bitrot_config() -> BitRotConfig:
    """The ``repro chaos --bit-rot --quick`` run, pinned for the gate."""
    return BitRotConfig(
        num_files=8, horizon=1800.0, bitrot_mtbf=600.0,
        tornwrite_mtbf=1200.0, drain=900.0, seed=GATE_SEED,
    )


def run_bitrot_bundle(out_dir: Path) -> TelemetryBundle:
    session = TelemetrySession(
        label="metrics-gate-bitrot", seed=GATE_SEED,
        trace_sample_rate=0.1, interval=15.0,
    )
    run_bit_rot(bitrot_config(), telemetry=session)
    return TelemetryBundle.load(session.write(out_dir))


@pytest.fixture(scope="module")
def gate_summary(tmp_path_factory):
    bundle = run_gate_bundle(tmp_path_factory.mktemp("gate") / "tel")
    yield summarize_telemetry(bundle)
    obs.get_registry().reset()
    obs.get_tracer().clear()
    obs.disable()


@pytest.fixture(scope="module")
def leaderkill_summary(tmp_path_factory):
    bundle = run_leaderkill_bundle(tmp_path_factory.mktemp("lk") / "tel")
    yield summarize_telemetry(bundle)
    obs.get_registry().reset()
    obs.get_tracer().clear()
    obs.disable()


def test_quick_storm_matches_committed_baseline(gate_summary):
    violations = compare(
        gate_summary, load_baseline(BASELINE), load_tolerances(BASELINE)
    )
    write_gate_result("metrics_gate.txt", gate_summary, violations)
    assert not violations, "\n".join(str(v) for v in violations)


def test_gate_flags_injected_latency_inflation(gate_summary):
    """Self-test: a synthetic 2x latency regression must trip the gate."""
    inflated = {
        key: value * 2
        if "latency_seconds" in key
        and key.rsplit("/", 1)[-1] in ("mean", "p50", "p99")
        else value
        for key, value in gate_summary.items()
    }
    violations = compare(
        inflated, load_baseline(BASELINE), load_tolerances(BASELINE)
    )
    assert any(
        "repro_dfs_read_latency_seconds" in v.key for v in violations
    ), "gate failed to flag a 2x latency inflation"


def test_gate_flags_missing_series(gate_summary):
    """A series that stopped being recorded violates with actual=0."""
    pruned = {
        key: value for key, value in gate_summary.items()
        if not key.startswith("repro_dfs_replications_total")
    }
    violations = compare(
        pruned, load_baseline(BASELINE), load_tolerances(BASELINE)
    )
    assert any(
        v.key.startswith("repro_dfs_replications_total") and v.actual == 0
        for v in violations
    )


def test_leader_kill_matches_committed_baseline(leaderkill_summary):
    violations = compare(
        leaderkill_summary,
        load_baseline(LEADERKILL_BASELINE),
        load_tolerances(LEADERKILL_BASELINE),
    )
    write_gate_result(
        "metrics_gate_leaderkill.txt", leaderkill_summary, violations
    )
    assert not violations, "\n".join(str(v) for v in violations)


def test_leader_kill_gate_flags_missing_failover_series(leaderkill_summary):
    """Losing the journal-shipping telemetry must trip the gate.

    (``repro_ha_failovers_total`` itself totals 1.0 — inside the gate's
    absolute floor — so the high-volume shipping counter is the canary.)
    """
    pruned = {
        key: value for key, value in leaderkill_summary.items()
        if not key.startswith("repro_ha_journal_entries_shipped_total")
    }
    violations = compare(
        pruned,
        load_baseline(LEADERKILL_BASELINE),
        load_tolerances(LEADERKILL_BASELINE),
    )
    assert any(
        v.key.startswith("repro_ha_journal_entries_shipped_total")
        and v.actual == 0
        for v in violations
    )


@pytest.fixture(scope="module")
def bitrot_summary(tmp_path_factory):
    bundle = run_bitrot_bundle(tmp_path_factory.mktemp("rot") / "tel")
    yield summarize_telemetry(bundle)
    obs.get_registry().reset()
    obs.get_tracer().clear()
    obs.disable()


def test_bit_rot_matches_committed_baseline(bitrot_summary):
    violations = compare(
        bitrot_summary,
        load_baseline(BITROT_BASELINE),
        load_tolerances(BITROT_BASELINE),
    )
    write_gate_result("metrics_gate_bitrot.txt", bitrot_summary, violations)
    assert not violations, "\n".join(str(v) for v in violations)


def test_bit_rot_gate_flags_missing_scrub_series(bitrot_summary):
    """A scrubber that silently stops scanning must trip the gate.

    (Individual detections total in the low tens; the per-replica scan
    counter aggregates tens of thousands of verifies and is the canary.)
    """
    pruned = {
        key: value for key, value in bitrot_summary.items()
        if not key.startswith("repro_dfs_integrity_scrubbed_replicas_total")
    }
    violations = compare(
        pruned,
        load_baseline(BITROT_BASELINE),
        load_tolerances(BITROT_BASELINE),
    )
    assert any(
        v.key.startswith("repro_dfs_integrity_scrubbed_replicas_total")
        and v.actual == 0
        for v in violations
    )


def test_check_bundle_end_to_end(tmp_path):
    """The one-call wrapper CI uses: fresh run vs committed baseline."""
    bundle = run_gate_bundle(tmp_path / "tel")
    try:
        violations = check_bundle(bundle, BASELINE)
    finally:
        obs.get_registry().reset()
        obs.get_tracer().clear()
        obs.disable()
    assert not violations, "\n".join(str(v) for v in violations)


def main() -> None:
    """Regenerate the committed baselines from fresh gate runs."""
    with tempfile.TemporaryDirectory() as scratch:
        bundle = run_gate_bundle(Path(scratch) / "tel")
    summary = summarize_telemetry(bundle)
    path = write_baseline(
        BASELINE, summary, tolerances=TOLERANCES,
        note=(
            "Instrumented `repro chaos --quick` storm, seed 0. "
            "Regenerate after intentional behaviour changes with: "
            "PYTHONPATH=src python benchmarks/test_metrics_regression.py"
        ),
    )
    print(f"wrote {path} ({len(summary)} keys)")
    obs.get_registry().reset()
    obs.get_tracer().clear()
    with tempfile.TemporaryDirectory() as scratch:
        bundle = run_leaderkill_bundle(Path(scratch) / "tel")
    summary = summarize_telemetry(bundle)
    path = write_baseline(
        LEADERKILL_BASELINE, summary, tolerances=LEADERKILL_TOLERANCES,
        note=(
            "Instrumented `repro chaos --kill-leader --quick` run, "
            "seed 0: leader killed mid-Aurora-period, follower "
            "failover. Regenerate alongside metrics_baseline.json."
        ),
    )
    print(f"wrote {path} ({len(summary)} keys)")
    obs.get_registry().reset()
    obs.get_tracer().clear()
    with tempfile.TemporaryDirectory() as scratch:
        bundle = run_bitrot_bundle(Path(scratch) / "tel")
    summary = summarize_telemetry(bundle)
    path = write_baseline(
        BITROT_BASELINE, summary, tolerances=BITROT_TOLERANCES,
        note=(
            "Instrumented `repro chaos --bit-rot --quick` run, seed 0: "
            "bit-rot and torn-write strikes, scrubber detection, "
            "quarantine and repair. Regenerate alongside "
            "metrics_baseline.json."
        ),
    )
    print(f"wrote {path} ({len(summary)} keys)")


if __name__ == "__main__":
    main()
