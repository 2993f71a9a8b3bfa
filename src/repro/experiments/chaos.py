"""Chaos experiment: fault injection against the full resilience stack.

Runs a seeded storm of crashes, rack partitions, gray nodes, flaky
transfers and heartbeat message loss (any subset of
:mod:`repro.faults` profiles) against a cluster serving a steady read
workload, and reports what the paper's reliability story cares about:

* **read availability** — the fraction of client reads served while
  nodes die and metadata goes stale (the client's replica failover is
  what keeps this high through the heartbeat detection window);
* **time to full replication** — how long each under-replication
  episode lasted from first exposure until the prioritized
  re-replication queue repaired every block, as a function of the
  re-replication throttle;
* **durability** — blocks permanently lost (none, for any survivable
  schedule: crashed disks come back and re-report);
* the retry/rollback/failover counters the fault machinery emits.

The run is deterministic for a given config; the final state is
cross-checked with :meth:`~repro.dfs.namenode.Namenode.audit` so a
failed migration can never leave placement metadata and block map in
disagreement.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aurora.config import AuroraConfig
from repro.aurora.system import AuroraSystem
from repro.dfs.fsck import run_fsck
from repro.dfs.ha import HaCluster, HaConfig, rebind_aurora
from repro.errors import (
    DatanodeUnavailableError,
    DfsError,
    InvalidProblemError,
    NoLeaderError,
    SafeModeError,
)
from repro.experiments.scenario import (
    Scenario,
    ScenarioConfig,
    ScenarioResult,
    format_counts,
    fsck_lines,
    slo_lines,
)
from repro.faults import (
    FaultProfile,
    LeaderKillProfile,
    profile_from_name,
)
from repro.obs.registry import get_registry
from repro.obs.slo import availability_slo, latency_slo
from repro.obs.telemetry import TelemetrySession

__all__ = ["ChaosConfig", "ChaosResult", "run_chaos", "render_chaos",
           "default_chaos_slos", "LeaderKillConfig", "LeaderKillResult",
           "run_leader_kill", "render_leader_kill", "default_ha_slos"]

_LOG = logging.getLogger(__name__)



@dataclass(frozen=True)
class ChaosConfig(ScenarioConfig):
    """One chaos run: cluster shape, workload rate and fault profiles."""

    read_interval: float = 20.0
    reads_per_tick: int = 4
    replication_throttle: Optional[int] = 8
    profiles: Tuple[str, ...] = ("crash", "partition", "flaky")
    crash_mtbf: float = 1800.0
    crash_repair: float = 300.0
    partition_mtbf: float = 5400.0
    partition_duration: float = 120.0
    gray_mtbf: float = 3600.0
    gray_duration: float = 600.0
    flaky_probability: float = 0.15
    msgloss_probability: float = 0.4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.read_interval <= 0:
            raise InvalidProblemError("read_interval must be positive")

    def build_profiles(self) -> List[FaultProfile]:
        """Materialize the named profiles with this config's knobs."""
        overrides: Dict[str, Dict[str, object]] = {
            "crash": {"mtbf": self.crash_mtbf,
                      "repair_time": self.crash_repair},
            "partition": {"mtbf": self.partition_mtbf,
                          "duration": self.partition_duration},
            "gray": {"mtbf": self.gray_mtbf, "duration": self.gray_duration},
            "flaky": {"failure_probability": self.flaky_probability},
            "msgloss": {"loss_probability": self.msgloss_probability},
        }
        return [
            profile_from_name(name, **overrides.get(name, {}))
            for name in self.profiles
        ]


@dataclass
class ChaosResult(ScenarioResult):
    """What a chaos run observed."""

    total_blocks: int = 0
    blocks_lost: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    reads_attempted: int = 0
    reads_served: int = 0
    reads_failed: int = 0
    read_failovers: int = 0
    degraded_reads: int = 0
    transfers_failed: int = 0
    transfer_retries: int = 0
    replications_completed: int = 0
    replications_requeued: int = 0
    migration_rollbacks: int = 0
    migration_retargets: int = 0
    detected_failures: int = 0
    false_suspicions: int = 0
    reconciliations: int = 0
    recovery_times: List[float] = field(default_factory=list)
    bytes_wasted: int = 0

    @property
    def read_availability(self) -> float:
        """Fraction of attempted reads that some replica served."""
        if self.reads_attempted == 0:
            return 1.0
        return self.reads_served / self.reads_attempted

    @property
    def mean_recovery_seconds(self) -> float:
        """Mean time-to-full-replication across episodes (0 if none)."""
        if not self.recovery_times:
            return 0.0
        return statistics.fmean(self.recovery_times)

    @property
    def max_recovery_seconds(self) -> float:
        """Worst-case time-to-full-replication (0 if never exposed)."""
        return max(self.recovery_times, default=0.0)


def default_chaos_slos(config: ChaosConfig) -> List:
    """The SLO set a chaos storm is judged against."""
    window = max(config.read_interval * 15, 300.0)
    return [
        availability_slo(
            "read-availability",
            good_series="repro_dfs_reads_total",
            bad_series="repro_dfs_read_errors_total",
            target=0.99, window=window,
            description="99% of block reads are served by some replica",
        ),
        latency_slo(
            "read-latency-p99",
            series="repro_dfs_read_latency_seconds",
            threshold=5.0, target=0.99, window=window,
            description="99% of reads finish within 5 simulated seconds",
        ),
        latency_slo(
            "time-to-full-replication",
            series="repro_dfs_recovery_seconds",
            threshold=900.0, target=0.9, window=max(window * 6, 1800.0),
            description="90% of under-replication episodes repair "
                        "within 15 simulated minutes",
        ),
    ]


def run_chaos(
    config: ChaosConfig,
    telemetry: Optional[TelemetrySession] = None,
) -> ChaosResult:
    """Run one seeded chaos schedule and collect the result.

    Deterministic for a given config.  After the horizon the fault
    hooks are disarmed and the simulation drains until every outage has
    healed and repair work settles; the namenode's :meth:`audit` then
    asserts the metadata reconciled.

    Passing a :class:`~repro.obs.telemetry.TelemetrySession` turns on
    the full pipeline: time-series sampling on the sim clock, sampled
    causal traces of client reads, and the default chaos SLO set
    (evaluated into ``result.slo_statuses``).
    """
    scenario = Scenario(config, telemetry, default_chaos_slos)
    sim = scenario.sim
    namenode = scenario.start(
        scenario.make_namenode(config.replication_throttle)
    )
    transfers, heartbeats = namenode.transfers, scenario.heartbeats
    client = scenario.client()
    _, blocks = scenario.seed_files(client, "/chaos")

    injector = scenario.inject(config.build_profiles())

    result = ChaosResult(config=config, total_blocks=len(blocks))

    def read_tick() -> None:
        for _ in range(config.reads_per_tick):
            scenario.read(client, blocks, result)

    reader_token = sim.schedule_periodic(config.read_interval, read_tick)
    scenario.check_replication_every()
    scenario.run_storm(reader_token)
    # Disarm the probabilistic hooks so the drain can actually finish
    # its repairs; timed recoveries are already scheduled, and the drain
    # runs at least ``drain`` past the last of them.
    transfers.fault_hook = None
    heartbeats.loss_filter = None
    last_recovery = max(
        (event.time for event in injector.plan() if event.is_recovery),
        default=0.0,
    )
    scenario.drain(max(config.horizon, last_recovery) + config.drain)

    namenode.audit()  # placement metadata must reconcile after the storm
    result.fsck = run_fsck(namenode)

    result.blocks_lost = sum(
        1 for block in blocks if not namenode.blockmap.locations(block)
    )
    result.faults_injected = dict(injector.injected)
    result.transfers_failed = transfers.transfers_failed
    result.bytes_wasted = transfers.bytes_wasted
    result.transfer_retries = namenode.transfer_retries
    result.replications_completed = namenode.replications_completed
    result.replications_requeued = namenode.replications_requeued
    result.migration_rollbacks = namenode.migration_rollbacks
    result.migration_retargets = namenode.migration_retargets
    result.degraded_reads = namenode.degraded_reads
    result.detected_failures = heartbeats.detected_failures
    result.false_suspicions = heartbeats.false_suspicions
    result.reconciliations = heartbeats.reconciliations
    result.recovery_times = list(namenode.recovery_times)
    result.slo_statuses = scenario.slo_statuses()
    _LOG.info(
        "chaos run done: availability=%.4f lost=%d episodes=%d "
        "retries=%d rollbacks=%d",
        result.read_availability, result.blocks_lost,
        len(result.recovery_times), result.transfer_retries,
        result.migration_rollbacks,
    )
    return result


def render_chaos(result: ChaosResult) -> str:
    """The chaos run as a readable report."""
    config = result.config
    lines = [
        "chaos run "
        f"(seed={config.seed}, horizon={config.horizon / 3600.0:.1f}h, "
        f"profiles={', '.join(config.profiles)}, "
        f"throttle={config.replication_throttle})",
        "",
        f"  blocks tracked            {result.total_blocks}",
        f"  blocks permanently lost   {result.blocks_lost}",
        "",
        f"  reads attempted           {result.reads_attempted}",
        f"  read availability         {result.read_availability:.4f}",
        f"  reads that failed over    {result.read_failovers}",
        f"  reads from gray nodes     {result.degraded_reads}",
        "",
        "  faults injected           "
        + (format_counts(result.faults_injected) or "none"),
        f"  failures detected         {result.detected_failures}",
        f"  false suspicions          {result.false_suspicions}",
        f"  block-report reconciles   {result.reconciliations}",
        "",
        f"  transfers failed          {result.transfers_failed}",
        f"  transfer retries          {result.transfer_retries}",
        f"  bytes wasted              {result.bytes_wasted}",
        f"  replications completed    {result.replications_completed}",
        f"  replications requeued     {result.replications_requeued}",
        f"  migration rollbacks       {result.migration_rollbacks}",
        f"  migration retargets       {result.migration_retargets}",
        "",
        f"  under-replication episodes {len(result.recovery_times)}",
        f"  mean time to full repl.   {result.mean_recovery_seconds:.1f}s",
        f"  max time to full repl.    {result.max_recovery_seconds:.1f}s",
    ]
    lines += fsck_lines(result.fsck) + slo_lines(result.slo_statuses)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Leader-kill scenario: chaos against the replicated metadata plane.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeaderKillConfig(ScenarioConfig):
    """One leader-kill run: HA metadata plane under a steady workload.

    A :class:`~repro.dfs.ha.HaCluster` serves a mixed read/write stream
    with an Aurora optimizer reconfiguring every ``aurora_period``; at
    ``kill_at`` the leader replica is crashed mid-period.  The run is
    deterministic for a given config — election timeouts, workload
    choices and the kill schedule all derive from ``seed``.
    """

    num_racks: int = 3
    machines_per_rack: int = 3
    capacity_blocks: int = 200
    blocks_per_file: int = 2
    horizon: float = 1800.0
    drain: float = 300.0
    #: When the leader dies.  Defaults to late in an Aurora optimization
    #: period (periods tick at multiples of ``aurora_period``), so the
    #: in-flight period is interrupted AND the next period boundary
    #: lands inside the outage window — exercising the clean abort.
    kill_at: float = 950.0
    #: When the killed replica rejoins as a follower (0 = never).
    revive_after: float = 600.0
    aurora_period: float = 120.0
    read_interval: float = 5.0
    reads_per_tick: int = 2
    write_interval: float = 20.0
    # HA-plane knobs (see HaConfig).
    num_replicas: int = 3
    lease_timeout: float = 10.0
    election_jitter: float = 5.0
    ship_interval: float = 2.0
    checkpoint_every: int = 40

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.kill_at < self.horizon:
            raise InvalidProblemError("kill_at must fall inside the horizon")
        if self.write_interval <= 0 or self.read_interval <= 0:
            raise InvalidProblemError("workload intervals must be positive")
        self.ha_config()  # reject a plane that cannot run, up front
        # Size the stream against the disks so the run cannot exhaust
        # capacity mid-flight and masquerade as an HA failure.
        writes = int(self.horizon / self.write_interval) + self.num_files
        demand = writes * self.blocks_per_file * self.replication
        capacity = self.num_machines * self.capacity_blocks
        if demand > 0.8 * capacity:
            raise InvalidProblemError(
                f"workload would fill {demand}/{capacity} block slots; "
                "raise capacity_blocks or slow the write stream"
            )

    def ha_config(self) -> HaConfig:
        """The HA-plane slice of this config."""
        return HaConfig(
            num_replicas=self.num_replicas,
            lease_timeout=self.lease_timeout,
            election_jitter=self.election_jitter,
            ship_interval=self.ship_interval,
            checkpoint_every=self.checkpoint_every,
            seed=self.seed,
        )


@dataclass
class LeaderKillResult(ScenarioResult):
    """What a leader-kill run observed."""

    files_acknowledged: int = 0
    write_ops_served: int = 0
    write_ops_failed: int = 0
    read_ops_served: int = 0
    read_ops_failed: int = 0
    aurora_periods_completed: int = 0
    aurora_periods_aborted: int = 0
    elections: int = 0
    failovers: int = 0
    fenced_writes: int = 0
    entries_shipped: int = 0
    entries_replayed: int = 0
    checkpoints_taken: int = 0
    journal_retained_entries: int = 0
    time_to_new_leader: Optional[float] = None
    time_to_writable: Optional[float] = None
    metadata_lost: int = 0
    timeline: List[Dict] = field(default_factory=list)

    @property
    def write_availability(self) -> float:
        """Fraction of attempted writes the plane acknowledged."""
        attempted = self.write_ops_served + self.write_ops_failed
        return self.write_ops_served / attempted if attempted else 1.0

    @property
    def read_availability(self) -> float:
        """Fraction of attempted reads some replica served."""
        attempted = self.read_ops_served + self.read_ops_failed
        return self.read_ops_served / attempted if attempted else 1.0

    def summary(self) -> Dict[str, object]:
        """Deterministic scalars for regression baselines."""
        return {
            "files_acknowledged": self.files_acknowledged,
            "write_ops_served": self.write_ops_served,
            "write_ops_failed": self.write_ops_failed,
            "read_ops_served": self.read_ops_served,
            "read_ops_failed": self.read_ops_failed,
            "aurora_periods_completed": self.aurora_periods_completed,
            "aurora_periods_aborted": self.aurora_periods_aborted,
            "elections": self.elections,
            "failovers": self.failovers,
            "fenced_writes": self.fenced_writes,
            "entries_replayed": self.entries_replayed,
            "checkpoints_taken": self.checkpoints_taken,
            "journal_retained_entries": self.journal_retained_entries,
            "time_to_new_leader": self.time_to_new_leader,
            "time_to_writable": self.time_to_writable,
            "metadata_lost": self.metadata_lost,
            "fsck_healthy": (self.fsck.healthy
                             if self.fsck is not None else None),
        }


def default_ha_slos(config: LeaderKillConfig) -> List:
    """The SLO set a leader-kill run is judged against."""
    window = max(config.write_interval * 15, 300.0)
    return [
        availability_slo(
            "metadata-availability",
            good_series="repro_ha_client_ops_served_total",
            bad_series="repro_ha_client_ops_failed_total",
            target=0.95, window=window,
            description="95% of client operations succeed across a "
                        "leader kill (the failover window is the budget)",
        ),
        latency_slo(
            "failover-time-to-writable",
            series="repro_ha_time_to_writable_seconds",
            threshold=60.0, target=0.99,
            window=max(config.horizon, 3600.0),
            description="the metadata plane accepts writes within 60 "
                        "simulated seconds of a leader death",
        ),
    ]


def run_leader_kill(
    config: LeaderKillConfig,
    telemetry: Optional[TelemetrySession] = None,
) -> LeaderKillResult:
    """Kill the leader mid-optimization and measure the failover.

    The scenario the HA plane exists for: an Aurora optimizer is
    reconfiguring the cluster on a period cadence, clients stream
    writes and reads, and the leader namenode dies between period
    boundaries.  A follower must win the election, replay only the
    journal tail past its last shipped checkpoint, sit in safe mode
    until block reports restore locations, and resume — including the
    optimizer, which re-points at the new leader via
    :func:`~repro.dfs.ha.rebind_aurora` and picks its period cadence
    back up (ticks that land during the outage abort cleanly).

    Acknowledged metadata must survive: after the drain,
    :func:`~repro.dfs.fsck.run_fsck` is handed every path the client
    saw acknowledged and reports any that vanished as metadata loss.
    """
    # Registered here, not at import, so only runs of this storm list them.
    registry = get_registry()
    ops_served = registry.counter(
        "repro_ha_client_ops_served_total",
        "Client metadata writes and block reads served by the HA plane",
    )
    ops_failed = registry.counter(
        "repro_ha_client_ops_failed_total",
        "Client operations rejected or failed during a metadata-plane outage",
    )
    scenario = Scenario(config, telemetry, default_ha_slos)
    sim = scenario.sim
    cluster = HaCluster(sim, config.ha_config(), scenario.make_namenode)
    namenode = scenario.start(cluster.start())
    cluster.heartbeats = scenario.heartbeats
    client = scenario.client()
    aurora = AuroraSystem(
        namenode,
        AuroraConfig(
            period=config.aurora_period,
            min_replication=config.replication,
            rack_spread=config.rack_spread,
        ),
    )
    cluster.on_failover.append(lambda fresh: rebind_aurora(aurora, fresh))
    cluster.on_failover.append(
        lambda fresh: setattr(client, "namenode", fresh)
    )

    result = LeaderKillResult(config=config)
    acknowledged, blocks = scenario.seed_files(client, "/ha/seed")

    scenario.inject(
        [LeaderKillProfile(times=(config.kill_at,),
                           revive_after=config.revive_after)],
        ha=cluster,
    )

    write_counter = [0]

    def write_tick() -> None:
        path = f"/ha/stream/{write_counter[0]}"
        write_counter[0] += 1
        try:
            meta = client.write_file(
                path,
                num_blocks=config.blocks_per_file,
                block_size=config.block_size,
            )
        except (DfsError, NoLeaderError):
            # Fenced, in safe mode or leaderless: the op is the outage's
            # cost; the path was never acknowledged so fsck won't expect it.
            result.write_ops_failed += 1
            ops_failed.inc()
        else:
            result.write_ops_served += 1
            acknowledged.append(path)
            blocks.extend(meta.block_ids)
            ops_served.inc()

    def read_tick() -> None:
        for _ in range(config.reads_per_tick):
            block, reader = scenario.pick_read(blocks)
            try:
                client.read_block(block, reader)
            except (DatanodeUnavailableError, DfsError):
                result.read_ops_failed += 1
                ops_failed.inc()
            else:
                result.read_ops_served += 1
                ops_served.inc()

    def aurora_tick() -> None:
        try:
            active = cluster.active
        except NoLeaderError:
            result.aurora_periods_aborted += 1
            return
        if active.safe_mode:
            # New leader still rebuilding locations: skip this period
            # rather than optimize against an empty block map.
            result.aurora_periods_aborted += 1
            return
        try:
            aurora.optimize(sim.now)
        except SafeModeError:
            # The leader was deposed under us (FencedError) — the
            # period aborts; its usage history carries into the next.
            result.aurora_periods_aborted += 1
        else:
            result.aurora_periods_completed += 1

    def replication_tick() -> None:
        try:
            cluster.active.check_replication()
        except NoLeaderError:
            pass

    write_token = sim.schedule_periodic(config.write_interval, write_tick)
    read_token = sim.schedule_periodic(config.read_interval, read_tick)
    aurora_token = sim.schedule_periodic(config.aurora_period, aurora_tick)
    scenario.check_replication_every(replication_tick)
    scenario.run_storm(write_token, read_token, aurora_token)
    scenario.drain()
    cluster.stop()

    active = cluster.active  # drain must end with an elected leader
    active.audit()
    result.fsck = run_fsck(active, expected_paths=acknowledged)
    result.metadata_lost = sum(
        1 for violation in result.fsck.violations
        if violation.check == "missing-file"
    )
    result.files_acknowledged = len(acknowledged)
    result.elections = cluster.elections
    result.failovers = cluster.failovers
    result.fenced_writes = cluster.fenced_writes
    result.entries_shipped = cluster.entries_shipped
    result.entries_replayed = cluster.entries_replayed_last_failover
    result.checkpoints_taken = cluster.checkpoints_taken
    result.journal_retained_entries = len(cluster.log)
    if cluster.time_to_leader:
        result.time_to_new_leader = cluster.time_to_leader[0]
    if cluster.time_to_writable:
        result.time_to_writable = cluster.time_to_writable[0]
    result.timeline = list(cluster.events)
    result.slo_statuses = scenario.slo_statuses()
    _LOG.info(
        "leader-kill run done: failovers=%d t_leader=%s t_writable=%s "
        "lost=%d write_avail=%.4f",
        result.failovers, result.time_to_new_leader,
        result.time_to_writable, result.metadata_lost,
        result.write_availability,
    )
    return result


def render_leader_kill(result: LeaderKillResult) -> str:
    """Human-readable leader-kill report."""
    config = result.config

    def fmt(value: Optional[float]) -> str:
        return f"{value:.1f}s" if value is not None else "n/a"

    lines = [
        "Leader-kill chaos "
        f"(replicas={config.num_replicas} seed={config.seed} "
        f"kill_at={config.kill_at:.0f}s horizon={config.horizon:.0f}s)",
        "",
        f"  time to new leader        {fmt(result.time_to_new_leader)}",
        f"  time to writable          {fmt(result.time_to_writable)}",
        f"  metadata lost             {result.metadata_lost} "
        f"of {result.files_acknowledged} acknowledged files",
        f"  elections / failovers     {result.elections} / "
        f"{result.failovers}",
        f"  fenced writes             {result.fenced_writes}",
        f"  journal entries replayed  {result.entries_replayed} "
        f"(tail past the last shipped checkpoint)",
        f"  checkpoints taken         {result.checkpoints_taken}",
        f"  journal retained          {result.journal_retained_entries} "
        f"entries",
        f"  entries shipped           {result.entries_shipped}",
        f"  write availability        {result.write_availability:.4f} "
        f"({result.write_ops_served} served, "
        f"{result.write_ops_failed} failed)",
        f"  read availability         {result.read_availability:.4f} "
        f"({result.read_ops_served} served, "
        f"{result.read_ops_failed} failed)",
        f"  aurora periods            {result.aurora_periods_completed} "
        f"completed, {result.aurora_periods_aborted} aborted",
    ]
    lines += fsck_lines(result.fsck)
    if result.timeline:
        lines.append("")
        lines.append("  timeline:")
        for event in result.timeline:
            detail = " ".join(
                f"{key}={value}" for key, value in event.items()
                if key not in ("t", "event")
            )
            lines.append(f"    t={event['t']:>8.1f}  {event['event']:<16}"
                         f"{detail}")
    lines += slo_lines(result.slo_statuses)
    return "\n".join(lines)
