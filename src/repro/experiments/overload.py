"""Overload storm: offered load beyond capacity, with and without armour.

Drives a popularity-skewed read workload at a configurable multiple of
the cluster's aggregate service capacity and measures what graceful
degradation buys.  The same storm runs in two modes:

* **protected** — bounded per-datanode service queues with a shed
  policy, per-node circuit breakers and hedged reads in the client,
  token-bucket admission control over background traffic, and Aurora
  brownout mode (raised epsilon, deferred migrations);
* **unprotected** — the same cluster and workload with effectively
  unbounded queues and none of the protections: every request is
  admitted and waits, so the backlog (and the tail latency) grows
  without bound past saturation.

Availability here is *SLO attainment*: the fraction of reads that
completed within ``slo_latency`` (queueing plus failover backoff).  An
unprotected cluster "serves" every read eventually, which is
operationally indistinguishable from failure once waits reach minutes —
bounding the queue converts unbounded latency into explicit, fast
sheds that failover and hedging can route around.

A deterministic mid-storm crash/recover cycle generates re-replication
traffic so the admission gate has background work to hold back, and an
Aurora optimizer runs on a short period so brownout decisions land
inside the horizon.  The run ends with a drain phase and an fsck pass:
overload protection must never corrupt placement metadata.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aurora.config import AuroraConfig
from repro.aurora.system import AuroraSystem
from repro.dfs.fsck import run_fsck
from repro.errors import DatanodeUnavailableError, InvalidProblemError
from repro.experiments.scenario import (
    Scenario,
    ScenarioConfig,
    ScenarioResult,
    format_counts,
    fsck_lines,
    slo_lines,
)
from repro.obs.slo import availability_slo, latency_slo, threshold_slo
from repro.obs.telemetry import TelemetrySession
from repro.overload import (
    OverloadConfig,
    ShedPolicy,
    install_overload_protection,
)

__all__ = [
    "OverloadStormConfig",
    "OverloadStormResult",
    "run_overload",
    "run_overload_pair",
    "render_overload",
    "render_overload_pair",
    "default_overload_slos",
]

_LOG = logging.getLogger(__name__)

# Queue bound used by the unprotected baseline: large enough that no
# request is ever shed, so all overload turns into waiting.
_UNBOUNDED = 1_000_000


@dataclass(frozen=True)
class OverloadStormConfig(ScenarioConfig):
    """One overload storm: cluster, workload skew, and protections."""

    capacity_blocks: int = 200
    num_files: int = 10
    horizon: float = 600.0
    drain: float = 120.0
    tick: float = 5.0
    # Offered read load as a multiple of aggregate service capacity
    # (num_machines * service_rate requests/s).
    load_multiplier: float = 1.5
    service_rate: float = 2.0
    # Queue bound per node.  capacity / service_rate is the worst-case
    # wait a served read can see, so keep it below slo_latency: a queue
    # deeper than the SLO merely converts sheds into SLO misses.
    queue_capacity: int = 8
    shed_policy: str = "priority"
    slo_latency: float = 5.0
    hedge_latency_budget: Optional[float] = 2.5
    protected: bool = True
    # Zipf exponent of the block popularity skew (1.0+ = heavy head).
    zipf_s: float = 1.2
    aurora: bool = True
    aurora_period: float = 120.0
    aurora_epsilon: float = 0.1
    # Brownout thresholds on *mean* cluster saturation.  Zipf-skewed
    # load saturates the hot nodes while the cold ones idle, so the
    # mean understates overload; trigger lower than the library default.
    brownout_enter_threshold: float = 0.5
    brownout_exit_threshold: float = 0.25
    # Deterministic churn: crash one node mid-storm (and recover it
    # later) so re-replication traffic exists for admission to gate.
    crash_node: bool = True
    crash_at_fraction: float = 0.3
    recover_at_fraction: float = 0.55

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.tick <= 0:
            raise InvalidProblemError("tick must be positive")
        if self.load_multiplier <= 0:
            raise InvalidProblemError("load_multiplier must be positive")
        if self.service_rate <= 0:
            raise InvalidProblemError("service_rate must be positive")
        if self.slo_latency <= 0:
            raise InvalidProblemError("slo_latency must be positive")
        if self.zipf_s < 0:
            raise InvalidProblemError("zipf_s must be non-negative")
        if not 0.0 < self.crash_at_fraction < self.recover_at_fraction <= 1.0:
            raise InvalidProblemError(
                "need 0 < crash_at_fraction < recover_at_fraction <= 1"
            )
        ShedPolicy(self.shed_policy)  # validates the name

    @property
    def offered_rate(self) -> float:
        """Offered reads per second across the cluster."""
        return self.load_multiplier * self.num_machines * self.service_rate

    @property
    def reads_per_tick(self) -> int:
        """Reads issued per workload tick."""
        return max(1, round(self.offered_rate * self.tick))


@dataclass
class OverloadStormResult(ScenarioResult):
    """What one overload storm observed."""

    reads_attempted: int = 0
    reads_served: int = 0
    reads_failed: int = 0
    reads_within_slo: int = 0
    reads_shed: int = 0
    read_failovers: int = 0
    breaker_skips: int = 0
    breaker_trips: int = 0
    hedged_reads: int = 0
    hedge_wins: int = 0
    queue_shed: int = 0
    queue_served: int = 0
    replications_deferred: int = 0
    replications_shed: int = 0
    migrations_deferred: int = 0
    migrations_shed: int = 0
    replications_completed: int = 0
    brownout_periods: int = 0
    brownout_entries: int = 0
    deferred_moves: int = 0
    peak_saturation: float = 0.0
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """SLO attainment: reads completed within the latency budget."""
        if self.reads_attempted == 0:
            return 1.0
        return self.reads_within_slo / self.reads_attempted

    def latency_percentile(self, q: float) -> float:
        """The q-th percentile of served-read latency (0 if no reads)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    @property
    def p50_latency(self) -> float:
        """Median served-read latency."""
        return self.latency_percentile(0.50)

    @property
    def p99_latency(self) -> float:
        """Tail served-read latency."""
        return self.latency_percentile(0.99)


def _zipf_weights(count: int, s: float) -> List[float]:
    """Zipf-ish popularity weights over ``count`` ranks."""
    return [1.0 / (rank ** s) for rank in range(1, count + 1)]


def default_overload_slos(config: OverloadStormConfig) -> List:
    """The SLO set an overload storm is judged against."""
    window = max(config.tick * 12, 60.0)
    return [
        availability_slo(
            "read-availability",
            good_series="repro_dfs_reads_total",
            bad_series="repro_dfs_read_errors_total",
            target=0.99, window=window,
            description="99% of block reads are served by some replica",
        ),
        latency_slo(
            "read-latency-slo",
            series="repro_dfs_read_latency_seconds",
            threshold=config.slo_latency, target=0.95, window=window,
            description=f"95% of reads finish within the "
                        f"{config.slo_latency:.1f}s latency budget",
        ),
        threshold_slo(
            "replication-queue-bounded",
            series="repro_dfs_replication_queue_depth",
            threshold=50.0, target=0.9, window=window,
            description="the re-replication backlog stays bounded "
                        "while the storm rages",
        ),
    ]


def run_overload(
    config: OverloadStormConfig,
    telemetry: Optional[TelemetrySession] = None,
) -> OverloadStormResult:
    """Run one seeded overload storm and collect the result.

    Deterministic for a given config.  The protected variant installs
    the full :mod:`repro.overload` stack; the unprotected variant runs
    the same workload against effectively unbounded queues with no
    breakers, hedging, admission control or brownout.

    A :class:`~repro.obs.telemetry.TelemetrySession` adds sim-clock
    time-series sampling, sampled causal read traces and the default
    overload SLO set — so protected vs unprotected storms compare as
    SLO-violation minutes, not just end-of-run aggregates.
    """
    scenario = Scenario(config, telemetry, default_overload_slos)
    sim = scenario.sim
    namenode = scenario.start(scenario.make_namenode(8))

    if config.protected:
        protection = install_overload_protection(namenode, OverloadConfig(
            queue_capacity=config.queue_capacity,
            service_rate=config.service_rate,
            shed_policy=ShedPolicy(config.shed_policy),
            hedge_latency_budget=config.hedge_latency_budget,
        ))
        client = scenario.client(
            breakers=protection.breakers(),
            hedge_latency_budget=config.hedge_latency_budget,
        )
    else:
        protection = install_overload_protection(namenode, OverloadConfig(
            queue_capacity=_UNBOUNDED,
            service_rate=config.service_rate,
            shed_policy=ShedPolicy.REJECT,
        ))
        namenode.admission = None  # background traffic never yields
        client = scenario.client()

    _, blocks = scenario.seed_files(client, "/overload")

    result = OverloadStormResult(config=config)
    reader_rng = scenario.reader_rng
    weights = _zipf_weights(len(blocks), config.zipf_s)

    # Brownout detection wants the high-water mark since the last
    # optimizer period, not an instantaneous sample: queues drain
    # between workload ticks, so sampling exactly at a period boundary
    # can miss sustained overload entirely.
    window_peak = [0.0]

    def saturation_high_water() -> float:
        peak = max(window_peak[0], namenode.cluster_saturation())
        window_peak[0] = 0.0
        return peak

    aurora: Optional[AuroraSystem] = None
    if config.aurora:
        aurora = AuroraSystem(namenode, AuroraConfig(
            epsilon=config.aurora_epsilon,
            window=max(config.aurora_period * 2, 2 * config.tick),
            period=config.aurora_period,
            brownout_enter_threshold=config.brownout_enter_threshold,
            brownout_exit_threshold=config.brownout_exit_threshold,
        ))
        if config.protected:
            aurora.saturation_provider = saturation_high_water
        aurora.run_periodic(sim)

    def one_read(block: int, reader: int) -> None:
        result.reads_attempted += 1
        try:
            outcome = client.read_block(block, reader)
        except DatanodeUnavailableError:
            result.reads_failed += 1
        else:
            result.reads_served += 1
            total = outcome.latency + outcome.backoff
            result.latencies.append(total)
            if total <= config.slo_latency:
                result.reads_within_slo += 1
        saturation = namenode.cluster_saturation()
        window_peak[0] = max(window_peak[0], saturation)
        result.peak_saturation = max(result.peak_saturation, saturation)

    def read_tick() -> None:
        # Spread the tick's arrivals across the interval — a burst at a
        # single instant would overflow any bounded queue by itself and
        # measure the burst, not the policy.
        chosen = reader_rng.choices(
            blocks, weights=weights, k=config.reads_per_tick
        )
        for block in chosen:
            reader = reader_rng.randrange(config.num_machines)
            offset = reader_rng.uniform(0.0, config.tick)
            sim.schedule(
                offset, lambda b=block, r=reader: one_read(b, r)
            )

    reader_token = sim.schedule_periodic(config.tick, read_tick)
    scenario.check_replication_every()

    if config.crash_node:
        # The most loaded node makes the best victim: its blocks are the
        # hot ones, so its re-replication competes with client reads.
        victim = config.num_machines // 2
        sim.schedule(
            config.horizon * config.crash_at_fraction,
            lambda: namenode.fail_node(victim),
        )
        sim.schedule(
            config.horizon * config.recover_at_fraction,
            lambda: namenode.recover_node(victim),
        )

    scenario.run_storm(reader_token)
    scenario.drain()

    result.reads_shed = client.reads_shed
    result.read_failovers = client.read_failovers
    result.breaker_skips = client.breaker_skips
    result.hedged_reads = client.hedged_reads
    result.hedge_wins = client.hedge_wins
    if client.breakers:
        result.breaker_trips = sum(
            breaker.trips for breaker in client.breakers.values()
        )
    result.queue_shed = protection.total_shed()
    result.queue_served = protection.total_served()
    result.replications_deferred = namenode.replications_deferred
    result.replications_shed = namenode.replications_shed
    result.migrations_deferred = namenode.migrations_deferred
    result.migrations_shed = namenode.migrations_shed
    result.replications_completed = namenode.replications_completed
    result.bytes_by_kind = dict(namenode.transfers.bytes_by_kind)
    if aurora is not None:
        result.brownout_periods = sum(
            1 for report in aurora.reports if report.brownout
        )
        result.brownout_entries = aurora.brownout.entered
        result.deferred_moves = sum(
            report.deferred_moves for report in aurora.reports
        )
    result.fsck = run_fsck(namenode)
    result.slo_statuses = scenario.slo_statuses()
    _LOG.info(
        "overload storm done: protected=%s availability=%.4f p99=%.2fs "
        "shed=%d brownout_periods=%d",
        config.protected, result.availability, result.p99_latency,
        result.reads_shed, result.brownout_periods,
    )
    return result


def run_overload_pair(
    config: OverloadStormConfig,
    telemetry: Optional[TelemetrySession] = None,
    unprotected_telemetry: Optional[TelemetrySession] = None,
) -> Tuple[OverloadStormResult, OverloadStormResult]:
    """The same storm with and without protection (protected first).

    Each leg takes its own session: installing a session resets the
    shared registry and tracer, so one session cannot span both legs.
    """
    protected = run_overload(
        dataclasses.replace(config, protected=True), telemetry=telemetry
    )
    unprotected = run_overload(
        dataclasses.replace(config, protected=False),
        telemetry=unprotected_telemetry,
    )
    return protected, unprotected


def render_overload(result: OverloadStormResult) -> str:
    """One overload storm as a readable report."""
    config = result.config
    lines = [
        f"overload storm ({'protected' if config.protected else 'unprotected'}, "
        f"seed={config.seed}, load={config.load_multiplier:.2f}x, "
        f"policy={config.shed_policy}, slo={config.slo_latency:.1f}s)",
        "",
        f"  reads attempted           {result.reads_attempted}",
        f"  availability (SLO)        {result.availability:.4f}",
        f"  reads served              {result.reads_served}",
        f"  reads failed              {result.reads_failed}",
        f"  p50 latency               {result.p50_latency:.2f}s",
        f"  p99 latency               {result.p99_latency:.2f}s",
        "",
        f"  reads shed (client)       {result.reads_shed}",
        f"  read failovers            {result.read_failovers}",
        f"  breaker skips / trips     {result.breaker_skips} / "
        f"{result.breaker_trips}",
        f"  hedged reads / wins       {result.hedged_reads} / "
        f"{result.hedge_wins}",
        f"  queue served / shed       {result.queue_served} / "
        f"{result.queue_shed}",
        f"  peak cluster saturation   {result.peak_saturation:.2f}",
        "",
        f"  replications deferred     {result.replications_deferred}",
        f"  replications shed         {result.replications_shed}",
        f"  migrations deferred       {result.migrations_deferred}",
        f"  migrations shed           {result.migrations_shed}",
        f"  replications completed    {result.replications_completed}",
        f"  brownout periods          {result.brownout_periods}",
        f"  brownout entries          {result.brownout_entries}",
        f"  moves deferred (brownout) {result.deferred_moves}",
    ]
    if result.bytes_by_kind:
        lines.append("  transfer bytes by kind    "
                     + format_counts(result.bytes_by_kind))
    lines += fsck_lines(result.fsck) + slo_lines(result.slo_statuses)
    return "\n".join(lines)


def render_overload_pair(
    protected: OverloadStormResult, unprotected: OverloadStormResult
) -> str:
    """Side-by-side protected vs unprotected comparison."""
    rows = [
        ("availability (SLO)",
         f"{protected.availability:.4f}", f"{unprotected.availability:.4f}"),
        ("p50 latency", f"{protected.p50_latency:.2f}s",
         f"{unprotected.p50_latency:.2f}s"),
        ("p99 latency", f"{protected.p99_latency:.2f}s",
         f"{unprotected.p99_latency:.2f}s"),
        ("reads shed", str(protected.reads_shed),
         str(unprotected.reads_shed)),
        ("reads failed", str(protected.reads_failed),
         str(unprotected.reads_failed)),
        ("hedge wins", str(protected.hedge_wins),
         str(unprotected.hedge_wins)),
        ("brownout periods", str(protected.brownout_periods),
         str(unprotected.brownout_periods)),
        ("migrations deferred", str(protected.migrations_deferred),
         str(unprotected.migrations_deferred)),
    ]
    if protected.slo_statuses or unprotected.slo_statuses:
        rows.append((
            "SLO violation minutes",
            f"{protected.slo_violation_minutes:.1f}",
            f"{unprotected.slo_violation_minutes:.1f}",
        ))
    config = protected.config
    lines = [
        f"overload comparison at {config.load_multiplier:.2f}x capacity "
        f"(policy={config.shed_policy}, slo={config.slo_latency:.1f}s, "
        f"seed={config.seed})",
        "",
        f"  {'metric':<22} {'protected':>12} {'unprotected':>12}",
    ]
    for name, prot, unprot in rows:
        lines.append(f"  {name:<22} {prot:>12} {unprot:>12}")
    return "\n".join(lines)
