"""The scaffold the storm scenarios share.

The outage and leader-kill storms (:mod:`repro.experiments.chaos`), the
bit-rot storm (:mod:`repro.experiments.bitrot`) and the overload storm
(:mod:`repro.experiments.overload`) run on one seeded small cluster: a
uniform topology, a namenode with heartbeats and a periodic replication
check, files seeded before the storm, a drain after the horizon and a
closing fsck.  Each storm adds only what it alone does.

Seeds derive from the config's ``seed`` here and nowhere else: ``seed``
drives the storm's own schedule (fault injector, HA elections),
``seed + 1`` the transfer service, ``seed + 2`` the placement policy,
``seed + 3`` the namenode and ``seed + 4`` the reader.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.topology import ClusterTopology
from repro.dfs.client import DfsClient
from repro.dfs.fsck import FsckReport
from repro.dfs.heartbeat import HeartbeatService
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.dfs.replication import TransferService
from repro.errors import DatanodeUnavailableError, InvalidProblemError
from repro.faults import FaultInjector, FaultProfile
from repro.obs.telemetry import TelemetrySession
from repro.simulation.engine import EventToken, Simulation

__all__ = ["Scenario", "ScenarioConfig", "ScenarioResult", "format_counts",
           "fsck_lines", "slo_lines"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Cluster shape, seeded files, timing and seed of one storm."""

    num_racks: int = 4
    machines_per_rack: int = 4
    capacity_blocks: int = 120
    #: Files written before the storm starts.
    num_files: int = 12
    blocks_per_file: int = 4
    block_size: int = 64 * 1024 * 1024
    replication: int = 3
    rack_spread: int = 2
    horizon: float = 2 * 3600.0
    heartbeat_interval: float = 3.0
    heartbeat_expiry: float = 30.0
    replication_check_interval: float = 60.0
    #: Simulated seconds run past the horizon for repair to settle.
    drain: float = 1800.0
    seed: int = 0

    @property
    def num_machines(self) -> int:
        """Cluster size."""
        return self.num_racks * self.machines_per_rack

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise InvalidProblemError("horizon must be positive")
        if not 1 <= self.rack_spread <= self.replication:
            raise InvalidProblemError("rack_spread must be in [1, replication]")


@dataclass
class ScenarioResult:
    """What every storm reports: its config, closing fsck and SLOs."""

    config: ScenarioConfig
    fsck: Optional[FsckReport] = None
    #: Evaluated SloStatus list when the run carried a TelemetrySession.
    slo_statuses: List = field(default_factory=list)

    @property
    def slo_violation_minutes(self) -> float:
        """Total simulated minutes any objective was out of compliance."""
        return sum(s.violation_minutes for s in self.slo_statuses)


class Scenario:
    """One storm's seeded cluster, from the first heartbeat to the drain.

    Call order matters, because events due at the same instant fire in
    the order they were scheduled: :meth:`start`, :meth:`seed_files`,
    the storm's faults (:meth:`inject`) and workload,
    :meth:`check_replication_every`, :meth:`run_storm`, :meth:`drain`.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        telemetry: Optional[TelemetrySession],
        slos: Callable[..., List],
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self.slos = slos
        self.sim = Simulation()
        self.topology = ClusterTopology.uniform(
            config.num_racks, config.machines_per_rack, config.capacity_blocks
        )
        self.reader_rng = random.Random(config.seed + 4)
        self.namenode: Optional[Namenode] = None
        self.heartbeats: Optional[HeartbeatService] = None
        self._check: Optional[EventToken] = None

    def make_namenode(
        self, replication_throttle: Optional[int] = None
    ) -> Namenode:
        """A fresh namenode, with its own transfer service, on the cluster."""
        seed = self.config.seed
        return Namenode(
            self.topology,
            placement_policy=DefaultHdfsPolicy(random.Random(seed + 2)),
            sim=self.sim,
            transfer_service=TransferService(
                self.topology, sim=self.sim, rng=random.Random(seed + 1)
            ),
            default_replication=self.config.replication,
            default_rack_spread=self.config.rack_spread,
            rng=random.Random(seed + 3),
            replication_throttle=replication_throttle,
        )

    def start(self, namenode: Namenode) -> Namenode:
        """Serve from ``namenode``: start heartbeats, then telemetry.

        Telemetry judges the run by ``slos(config)`` unless the session
        already carries objectives.
        """
        self.namenode = namenode
        self.heartbeats = HeartbeatService(
            self.sim, namenode,
            interval=self.config.heartbeat_interval,
            expiry=self.config.heartbeat_expiry,
        )
        self.heartbeats.start()
        if self.telemetry is not None:
            self.telemetry.install(self.sim)
            if not self.telemetry.slo.objectives:
                for objective in self.slos(self.config):
                    self.telemetry.add_objective(objective)
        return namenode

    def client(self, **kwargs) -> DfsClient:
        """A client of the namenode, trace-sampled under telemetry."""
        sampler = self.telemetry.sampler() if self.telemetry else None
        return DfsClient(self.namenode, trace_sampler=sampler, **kwargs)

    def pick_read(self, blocks: List[int]) -> Tuple[int, int]:
        """A uniformly random ``(block, reader machine)`` pair."""
        block = self.reader_rng.choice(blocks)
        return block, self.reader_rng.randrange(self.topology.num_machines)

    def read(
        self, client: DfsClient, blocks: List[int], result: Any
    ) -> Optional[DatanodeUnavailableError]:
        """One random read, tallied on ``result``; its error if it failed.

        ``result`` has ``reads_attempted``, ``reads_served``,
        ``reads_failed`` and ``read_failovers`` counters.
        """
        block, reader = self.pick_read(blocks)
        result.reads_attempted += 1
        try:
            outcome = client.read_block(block, reader)
        except DatanodeUnavailableError as exc:
            result.reads_failed += 1
            return exc
        result.reads_served += 1
        result.read_failovers += outcome.failed_over
        return None

    def seed_files(
        self, client: DfsClient, prefix: str
    ) -> Tuple[List[str], List[int]]:
        """Write ``num_files`` files under ``prefix``: paths and blocks."""
        paths = [f"{prefix}/{index}" for index in range(self.config.num_files)]
        blocks: List[int] = []
        for path in paths:
            meta = client.write_file(
                path,
                num_blocks=self.config.blocks_per_file,
                block_size=self.config.block_size,
            )
            blocks.extend(meta.block_ids)
        return paths, blocks

    def inject(self, profiles: List[FaultProfile], **kwargs) -> FaultInjector:
        """Arm ``profiles`` over the horizon, scheduled from ``seed``."""
        injector = FaultInjector(
            self.sim, self.namenode, profiles, horizon=self.config.horizon,
            seed=self.config.seed, heartbeats=self.heartbeats, **kwargs,
        )
        injector.install()
        return injector

    def check_replication_every(
        self, check: Optional[Callable[[], None]] = None
    ) -> None:
        """Run the replication check periodically until :meth:`drain` ends."""
        self._check = self.sim.schedule_periodic(
            self.config.replication_check_interval,
            check or self.namenode.check_replication,
        )

    def run_storm(self, *workload: EventToken) -> None:
        """Run to the horizon, then stop the workload."""
        self.sim.run(until=self.config.horizon)
        for token in workload:
            token.cancel()

    def drain(self, until: Optional[float] = None) -> None:
        """Run to ``until`` (default ``horizon + drain``), then stop.

        Stops the replication check and the heartbeats.
        """
        config = self.config
        self.sim.run(until=config.horizon + config.drain
                     if until is None else until)
        self._check.cancel()
        self.heartbeats.stop()

    def slo_statuses(self) -> List:
        """The SLO verdicts at the end of the run ([] without telemetry)."""
        if self.telemetry is None:
            return []
        return self.telemetry.finish(self.sim.now)


def format_counts(counts: Dict[str, int]) -> str:
    """``kind=count`` pairs in kind order, comma-separated."""
    return ", ".join(
        f"{kind}={count}" for kind, count in sorted(counts.items())
    )


def fsck_lines(fsck: Optional[FsckReport], label: str = "fsck") -> List[str]:
    """The report line for the closing fsck ([] when none ran)."""
    if fsck is None:
        return []
    verdict = (
        "healthy" if fsck.healthy else f"{len(fsck.violations)} violation(s)"
    )
    return [f"  {label:<26}{verdict}"]


def slo_lines(statuses: List) -> List[str]:
    """The report's SLO table ([] when the run carried no telemetry)."""
    if not statuses:
        return []
    return ["", "  SLOs:"] + [
        f"    {status.objective.name:<28}"
        f"{'PASS' if status.compliant else 'VIOLATED':<10}"
        f"sli={status.overall_sli:.4f} "
        f"target={status.objective.target:.4f} "
        f"violation_min={status.violation_minutes:.1f}"
        for status in statuses
    ]
