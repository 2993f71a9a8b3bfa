"""Bit-rot chaos: silent corruption against the data-integrity plane.

Replication answers *loss*; this scenario attacks the other half of
durability — replicas that are still present but silently wrong.  A
seeded stream of bit-rot and torn-write strikes damages stored replicas
in place (no liveness change, no error from the node) while a light
client read workload runs and a rate-limited background
:class:`~repro.dfs.integrity.BlockScrubber` sweeps the cluster.  The
run measures the race the integrity plane exists to win:

* **corrupt-read rate** — how often a client's verified read hit a
  rotten replica first (the failover makes these invisible to the
  caller; an *unverified* read path would have returned garbage);
* **time to detection** — per detector: how long each corruption
  festered before the scrubber or a client read reported it.  With the
  default knobs the scrubber's full-cluster cadence is shorter than the
  expected time for the read workload to sample any one replica, so
  scrub detection beats client detection;
* **time to repair** — from first detection until the block is back to
  full verified replication and the quarantined copies are purged;
* **durability** — blocks left with no verified replica (none, whenever
  a verified source survives: re-replication always copies from a
  verified replica and the last copy is never deleted).

Deterministic for a given config; the final state is cross-checked with
:meth:`~repro.dfs.namenode.Namenode.audit` and a deep
:func:`~repro.dfs.fsck.run_fsck` sweep with ``verify_checksums=True``,
so any rot that slipped past both detectors still fails the run's
health check instead of hiding.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dfs.fsck import run_fsck
from repro.dfs.integrity import BlockScrubber, ScrubConfig
from repro.errors import ChecksumError, InvalidProblemError
from repro.experiments.scenario import (
    Scenario,
    ScenarioConfig,
    ScenarioResult,
    format_counts,
    fsck_lines,
    slo_lines,
)
from repro.faults import BitRotProfile, TornWriteProfile
from repro.obs.slo import availability_slo, latency_slo
from repro.obs.telemetry import TelemetrySession
from repro.overload.admission import AdmissionController

__all__ = [
    "BitRotConfig",
    "BitRotResult",
    "run_bit_rot",
    "render_bit_rot",
    "default_integrity_slos",
]

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class BitRotConfig(ScenarioConfig):
    """One bit-rot run: cluster shape, rot rates and scrub cadence."""

    num_racks: int = 3
    machines_per_rack: int = 3
    #: Deliberately light read workload: the scenario's headline claim
    #: is that the scrubber finds rot before clients trip over it, so
    #: reads must be sparse relative to the scrub cadence.
    read_interval: float = 60.0
    reads_per_tick: int = 2
    replication_throttle: Optional[int] = 8
    #: Per-machine mean time between silent corruption strikes.
    bitrot_mtbf: float = 3600.0
    tornwrite_mtbf: float = 2 * 3600.0
    scrub_interval: float = 30.0
    scrub_bytes_per_second: float = 4 * 64 * 1024 * 1024
    #: Admission tokens/second for scrub ticks (None = priced like
    #: re-replication traffic, the AdmissionController default).
    scrub_admission_rate: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.read_interval <= 0:
            raise InvalidProblemError("read_interval must be positive")
        if self.bitrot_mtbf <= 0 or self.tornwrite_mtbf <= 0:
            raise InvalidProblemError("corruption MTBFs must be positive")
        self.scrub_config()  # reject a scrubber that cannot run, up front

    def scrub_config(self) -> ScrubConfig:
        """The scrubber slice of this config."""
        return ScrubConfig(
            interval=self.scrub_interval,
            bytes_per_second=self.scrub_bytes_per_second,
        )


@dataclass
class BitRotResult(ScenarioResult):
    """What a bit-rot run observed."""

    total_blocks: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    reads_attempted: int = 0
    reads_served: int = 0
    reads_failed: int = 0
    #: Reads that raised ChecksumError: no replica served verified data.
    reads_failed_checksum: int = 0
    #: Read attempts that hit a corrupt replica and failed over.
    corrupt_read_attempts: int = 0
    read_failovers: int = 0
    #: Corrupt-replica reports per detector ("scrub" / "client").
    detections: Dict[str, int] = field(default_factory=dict)
    #: Seconds from corruption to detection, per detector.
    detection_latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Seconds from first detection to full verified replication.
    repair_times: List[float] = field(default_factory=list)
    episodes_unrepaired: int = 0
    quarantined_remaining: int = 0
    replicas_purged: int = 0
    blocks_permanently_lost: int = 0
    replications_completed: int = 0
    scrub_replicas_scanned: int = 0
    scrub_bytes_scanned: int = 0
    scrub_corrupt_found: int = 0
    scrub_full_scans: int = 0
    scrub_ticks_deferred: int = 0
    scrub_last_scan_duration: Optional[float] = None

    @property
    def corrupt_read_rate(self) -> float:
        """Fraction of read attempts that first hit a corrupt replica."""
        if self.reads_attempted == 0:
            return 0.0
        return self.corrupt_read_attempts / self.reads_attempted

    @property
    def episodes_repaired(self) -> int:
        """Corruption episodes driven back to full verified replication."""
        return len(self.repair_times)

    @property
    def repair_rate(self) -> float:
        """Fraction of detected corruption episodes fully repaired."""
        total = self.episodes_repaired + self.episodes_unrepaired
        if total == 0:
            return 1.0
        return self.episodes_repaired / total

    def mean_detection_seconds(self, detector: str) -> Optional[float]:
        """Mean corruption-to-detection latency for one detector."""
        latencies = self.detection_latencies.get(detector)
        if not latencies:
            return None
        return statistics.fmean(latencies)

    @property
    def scrub_beats_client(self) -> Optional[bool]:
        """Whether the scrubber won the detection race.

        True when mean scrub latency undercuts mean client latency —
        or when the scrubber found every corruption before any client
        read tripped over one (the strongest possible win).  None only
        when nothing was ever detected.
        """
        scrub = self.mean_detection_seconds("scrub")
        client = self.mean_detection_seconds("client")
        if scrub is None and client is None:
            return None
        if scrub is None:
            return False
        if client is None:
            return True
        return scrub < client

    @property
    def mean_repair_seconds(self) -> float:
        """Mean detection-to-repair time across episodes (0 if none)."""
        if not self.repair_times:
            return 0.0
        return statistics.fmean(self.repair_times)

    @property
    def max_repair_seconds(self) -> float:
        """Worst-case detection-to-repair time (0 if never corrupted)."""
        return max(self.repair_times, default=0.0)

    def summary(self) -> Dict[str, object]:
        """Deterministic scalars for regression baselines."""
        return {
            "total_blocks": self.total_blocks,
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "reads_attempted": self.reads_attempted,
            "reads_served": self.reads_served,
            "reads_failed": self.reads_failed,
            "reads_failed_checksum": self.reads_failed_checksum,
            "corrupt_read_attempts": self.corrupt_read_attempts,
            "detections": dict(sorted(self.detections.items())),
            "episodes_repaired": self.episodes_repaired,
            "episodes_unrepaired": self.episodes_unrepaired,
            "quarantined_remaining": self.quarantined_remaining,
            "replicas_purged": self.replicas_purged,
            "blocks_permanently_lost": self.blocks_permanently_lost,
            "scrub_full_scans": self.scrub_full_scans,
            "scrub_corrupt_found": self.scrub_corrupt_found,
            "fsck_healthy": (self.fsck.healthy
                             if self.fsck is not None else None),
        }


def default_integrity_slos(config: BitRotConfig) -> List:
    """The SLO set a bit-rot run is judged against."""
    window = max(config.read_interval * 15, 600.0)
    return [
        availability_slo(
            "data-durability",
            good_series="repro_dfs_reads_total",
            bad_series="repro_dfs_read_errors_total",
            target=0.999, window=window,
            description="99.9% of block reads return verified data from "
                        "some replica while rot accumulates",
        ),
        latency_slo(
            "corruption-time-to-detection",
            series="repro_dfs_integrity_detection_seconds",
            threshold=600.0, target=0.9,
            window=max(window * 6, 3600.0),
            description="90% of corrupt replicas are detected within 10 "
                        "simulated minutes of the damage",
        ),
        latency_slo(
            "corruption-time-to-repair",
            series="repro_dfs_integrity_repair_seconds",
            threshold=900.0, target=0.9,
            window=max(window * 6, 3600.0),
            description="90% of corruption episodes return to full "
                        "verified replication within 15 simulated minutes",
        ),
    ]


def run_bit_rot(
    config: BitRotConfig,
    telemetry: Optional[TelemetrySession] = None,
) -> BitRotResult:
    """Run one seeded silent-corruption schedule and collect the result.

    Deterministic for a given config.  Corruption strikes are one-shot
    (rot has no recovery event — only re-replication repairs it), so
    after the horizon the run simply drains long enough for the
    scrubber to complete further full passes and the prioritized
    repair queue to settle; :meth:`~repro.dfs.namenode.Namenode.audit`
    and a ``verify_checksums=True`` fsck then assert nothing slipped
    through.
    """
    scenario = Scenario(config, telemetry, default_integrity_slos)
    sim = scenario.sim
    namenode = scenario.start(
        scenario.make_namenode(config.replication_throttle)
    )
    # Scrub I/O goes through the same admission gate as repair traffic.
    namenode.admission = AdmissionController(
        scrub_rate=config.scrub_admission_rate,
    )
    client = scenario.client()
    _, blocks = scenario.seed_files(client, "/bitrot")

    injector = scenario.inject([
        BitRotProfile(mtbf=config.bitrot_mtbf),
        TornWriteProfile(mtbf=config.tornwrite_mtbf),
    ])

    scrubber = BlockScrubber(sim, namenode, config.scrub_config())
    scrubber.start()

    result = BitRotResult(config=config, total_blocks=len(blocks))

    def read_tick() -> None:
        for _ in range(config.reads_per_tick):
            error = scenario.read(client, blocks, result)
            if isinstance(error, ChecksumError):
                # Every live replica failed verification — the client
                # surfaced an error rather than corrupt bytes.
                result.reads_failed_checksum += 1

    reader_token = sim.schedule_periodic(config.read_interval, read_tick)
    scenario.check_replication_every()
    scenario.run_storm(reader_token)
    # Rot is one-shot and bounded by the horizon; the drain just has to
    # be long enough for full scrub passes over the post-storm cluster
    # and for the repair queue to settle.
    scenario.drain()
    scrubber.stop()

    namenode.audit()  # quarantine vs block map must reconcile
    result.fsck = run_fsck(namenode, verify_checksums=True)

    ledger = namenode.integrity
    result.faults_injected = dict(injector.injected)
    result.corrupt_read_attempts = client.checksum_failures
    result.detections = dict(ledger.detections)
    result.detection_latencies = {
        detector: list(latencies)
        for detector, latencies in ledger.detection_latencies.items()
    }
    result.repair_times = list(ledger.repair_times)
    result.episodes_unrepaired = sum(
        1 for block in set(blocks) if ledger.has_open_episode(block)
    )
    result.quarantined_remaining = ledger.quarantined_count
    result.replicas_purged = ledger.replicas_purged
    result.blocks_permanently_lost = sum(
        1 for block in set(blocks)
        if not namenode.verified_locations(block)
    )
    result.replications_completed = namenode.replications_completed
    result.scrub_replicas_scanned = scrubber.replicas_scanned
    result.scrub_bytes_scanned = scrubber.bytes_scanned
    result.scrub_corrupt_found = scrubber.corrupt_found
    result.scrub_full_scans = scrubber.full_scans
    result.scrub_ticks_deferred = scrubber.ticks_deferred
    result.scrub_last_scan_duration = scrubber.last_scan_duration
    result.slo_statuses = scenario.slo_statuses()
    _LOG.info(
        "bit-rot run done: strikes=%s detections=%s repaired=%d/%d "
        "lost=%d corrupt_read_rate=%.4f",
        result.faults_injected, result.detections,
        result.episodes_repaired,
        result.episodes_repaired + result.episodes_unrepaired,
        result.blocks_permanently_lost, result.corrupt_read_rate,
    )
    return result


def render_bit_rot(result: BitRotResult) -> str:
    """The bit-rot run as a readable report."""
    config = result.config

    def fmt_latency(detector: str) -> str:
        mean = result.mean_detection_seconds(detector)
        count = result.detections.get(detector, 0)
        if mean is None:
            return f"{count} detections"
        return f"{count} detections, mean latency {mean:.1f}s"

    lines = [
        "bit-rot chaos "
        f"(seed={config.seed}, horizon={config.horizon / 3600.0:.1f}h, "
        f"bitrot_mtbf={config.bitrot_mtbf:.0f}s, "
        f"tornwrite_mtbf={config.tornwrite_mtbf:.0f}s, "
        f"scrub={config.scrub_interval:.0f}s/"
        f"{config.scrub_bytes_per_second / (1024 * 1024):.0f}MBps)",
        "",
        f"  blocks tracked            {result.total_blocks}",
        "  corruption strikes        "
        + (format_counts(result.faults_injected) or "none"),
        "",
        f"  reads attempted           {result.reads_attempted}",
        f"  reads served verified     {result.reads_served}",
        f"  corrupt replicas hit      {result.corrupt_read_attempts} "
        f"(rate {result.corrupt_read_rate:.4f}, all failed over)",
        f"  reads failed (checksum)   {result.reads_failed_checksum}",
        f"  reads failed (other)      "
        f"{result.reads_failed - result.reads_failed_checksum}",
        "",
        f"  detection by scrubber     {fmt_latency('scrub')}",
        f"  detection by client read  {fmt_latency('client')}",
        f"  scrubber beats client     "
        + {True: "yes", False: "NO", None: "n/a"}[result.scrub_beats_client],
        "",
        f"  episodes repaired         {result.episodes_repaired} "
        f"(rate {result.repair_rate:.4f})",
        f"  episodes still open       {result.episodes_unrepaired}",
        f"  mean time to repair       {result.mean_repair_seconds:.1f}s",
        f"  max time to repair        {result.max_repair_seconds:.1f}s",
        f"  corrupt replicas purged   {result.replicas_purged}",
        f"  still quarantined         {result.quarantined_remaining}",
        f"  blocks permanently lost   {result.blocks_permanently_lost}",
        "",
        f"  scrub full passes         {result.scrub_full_scans}"
        + (f" (last took {result.scrub_last_scan_duration:.1f}s)"
           if result.scrub_last_scan_duration is not None else ""),
        f"  scrub replicas verified   {result.scrub_replicas_scanned}",
        f"  scrub bytes read back     {result.scrub_bytes_scanned}",
        f"  scrub ticks deferred      {result.scrub_ticks_deferred}",
        f"  re-replications completed {result.replications_completed}",
    ]
    lines += fsck_lines(result.fsck, "deep fsck")
    lines += slo_lines(result.slo_statuses)
    return "\n".join(lines)
