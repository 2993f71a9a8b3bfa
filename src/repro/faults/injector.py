"""Composable fault injector driven by deterministic seeded schedules.

:meth:`FaultInjector.plan` is a seeded schedule a caller may replay by
hand; :meth:`FaultInjector.install` arms the faults directly on a live
simulation: crashes and partitions flip datanode liveness (silently —
detection is the heartbeat service's job), gray profiles degrade a
node's service rate without killing it, flaky-transfer profiles abort
transfers mid-flight, and message-loss profiles drop heartbeats so the
namenode can falsely suspect a healthy node.

Every profile owns an isolated :class:`random.Random` derived from the
injector seed, so adding or removing one profile never perturbs the
event stream of the others and a chaos run replays identically.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, ClassVar, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import FaultConfigError
from repro.obs.registry import get_registry
from repro.simulation.engine import Simulation

if TYPE_CHECKING:  # break the repro.dfs <-> repro.faults import cycle
    from repro.dfs.ha import HaCluster
    from repro.dfs.heartbeat import HeartbeatService
    from repro.dfs.namenode import Namenode

__all__ = [
    "FaultEvent",
    "CrashProfile",
    "GrayNodeProfile",
    "PartitionProfile",
    "FlakyTransferProfile",
    "MessageLossProfile",
    "LeaderKillProfile",
    "BitRotProfile",
    "TornWriteProfile",
    "FaultProfile",
    "FaultInjector",
    "profile_from_name",
]

_LOG = logging.getLogger(__name__)

_REG = get_registry()
_INJECTED = _REG.counter(
    "repro_faults_injected_total",
    "Faults injected into the running simulation, by kind",
    ["kind"],
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (or its healing) at a simulated time.

    ``target`` is a machine id, except for ``partition`` events where it
    is a rack id.
    """

    time: float
    kind: str
    target: int
    is_recovery: bool

    def describe(self) -> str:
        """Human-readable one-liner for logs."""
        action = "heals" if self.is_recovery else "strikes"
        return f"t={self.time:.0f}s: {self.kind} fault on {self.target} {action}"


def _check_mtbf(mtbf: float) -> None:
    if mtbf <= 0:
        raise FaultConfigError("mtbf must be positive")


@dataclass(frozen=True)
class CrashProfile:
    """Fail-stop machine crashes (disk survives, node re-reports on repair)."""

    kind: ClassVar[str] = "crash"
    mtbf: float = 2 * 3600.0
    repair_time: float = 600.0
    targets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_mtbf(self.mtbf)
        if self.repair_time <= 0:
            raise FaultConfigError("repair_time must be positive")


@dataclass(frozen=True)
class GrayNodeProfile:
    """Gray failure: the node keeps heartbeating but serves slowly."""

    kind: ClassVar[str] = "gray"
    mtbf: float = 3 * 3600.0
    duration: float = 900.0
    slowdown: float = 10.0
    targets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_mtbf(self.mtbf)
        if self.duration <= 0:
            raise FaultConfigError("duration must be positive")
        if self.slowdown <= 1.0:
            raise FaultConfigError("slowdown must exceed 1")


@dataclass(frozen=True)
class PartitionProfile:
    """ToR-switch partition: every machine in the rack goes unreachable."""

    kind: ClassVar[str] = "partition"
    mtbf: float = 6 * 3600.0
    duration: float = 300.0
    racks: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_mtbf(self.mtbf)
        if self.duration <= 0:
            raise FaultConfigError("duration must be positive")


@dataclass(frozen=True)
class FlakyTransferProfile:
    """Transfers abort mid-flight with some probability.

    A failed transfer burns a uniform fraction of its modelled duration
    (NIC contention included) before the failure callback fires.
    """

    kind: ClassVar[str] = "flaky"
    failure_probability: float = 0.2
    min_fraction: float = 0.1
    max_fraction: float = 0.9

    def __post_init__(self) -> None:
        if not 0 < self.failure_probability <= 1:
            raise FaultConfigError("failure_probability must be in (0, 1]")
        if not 0 < self.min_fraction <= self.max_fraction <= 1:
            raise FaultConfigError(
                "need 0 < min_fraction <= max_fraction <= 1"
            )


@dataclass(frozen=True)
class MessageLossProfile:
    """Heartbeat messages are lost with some probability.

    Enough consecutive losses push a healthy node past the expiry and
    the namenode falsely suspects it — the recovery path then reconciles
    when the node's beats get through again.
    """

    kind: ClassVar[str] = "msgloss"
    loss_probability: float = 0.3
    targets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not 0 < self.loss_probability < 1:
            raise FaultConfigError("loss_probability must be in (0, 1)")


@dataclass(frozen=True)
class LeaderKillProfile:
    """Crash the metadata-plane leader at scheduled times.

    Targets the *role*, not a machine: each strike kills whichever
    namenode replica currently leads the :class:`repro.dfs.ha.HaCluster`
    the injector was armed with.  ``revive_after`` restarts the killed
    replica as a follower (0 keeps it dead — with 3 replicas the plane
    still tolerates exactly one such kill).
    """

    kind: ClassVar[str] = "kill_leader"
    times: Tuple[float, ...] = (900.0,)
    revive_after: float = 600.0

    def __post_init__(self) -> None:
        if not self.times:
            raise FaultConfigError("times must list at least one kill")
        if any(t <= 0 for t in self.times):
            raise FaultConfigError("kill times must be positive")
        if self.revive_after < 0:
            raise FaultConfigError("revive_after must be non-negative")


@dataclass(frozen=True)
class BitRotProfile:
    """Silent disk corruption: a stored replica's checksum flips in place.

    Each strike damages one seeded-random replica on the target node —
    no liveness change, no error, no log line from the node itself.
    Nothing notices until a verified client read, a scrubber pass, or a
    deep fsck trips over the mismatch, which is exactly the detection
    race the bit-rot chaos scenario measures.  Rot is one-shot: there
    is no recovery event, only repair by re-replication.
    """

    kind: ClassVar[str] = "bitrot"
    mtbf: float = 3600.0
    targets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_mtbf(self.mtbf)


@dataclass(frozen=True)
class TornWriteProfile:
    """Torn writes: a replica update persists only partially.

    The replica's generation stamp advances but its stored checksum
    stays behind, so verification against the new generation fails —
    the classic power-loss-mid-write failure mode.  One-shot, like
    :class:`BitRotProfile`.
    """

    kind: ClassVar[str] = "tornwrite"
    mtbf: float = 2 * 3600.0
    targets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_mtbf(self.mtbf)


FaultProfile = Union[
    CrashProfile,
    GrayNodeProfile,
    PartitionProfile,
    FlakyTransferProfile,
    MessageLossProfile,
    LeaderKillProfile,
    BitRotProfile,
    TornWriteProfile,
]

_PROFILE_NAMES = {
    "crash": CrashProfile,
    "gray": GrayNodeProfile,
    "partition": PartitionProfile,
    "flaky": FlakyTransferProfile,
    "msgloss": MessageLossProfile,
    "kill_leader": LeaderKillProfile,
    "bitrot": BitRotProfile,
    "tornwrite": TornWriteProfile,
}


def profile_from_name(name: str, **overrides: object) -> FaultProfile:
    """Build a default profile by CLI name (``crash``, ``gray``, ...)."""
    try:
        cls = _PROFILE_NAMES[name]
    except KeyError:
        raise FaultConfigError(
            f"unknown fault profile {name!r}; "
            f"choose from {sorted(_PROFILE_NAMES)}"
        ) from None
    return cls(**overrides)  # type: ignore[arg-type]


class FaultInjector:
    """Arms a set of fault profiles on a live simulation.

    ``horizon`` bounds the scheduled (crash / gray / partition) event
    streams; probabilistic profiles (flaky transfers, message loss) are
    hooks that stay armed for the whole run.  :meth:`plan` exposes the
    scheduled events before :meth:`install` arms them, and is stable for
    a given (seed, profiles, horizon) triple.
    """

    def __init__(
        self,
        sim: Simulation,
        namenode: Namenode,
        profiles: Sequence[FaultProfile],
        horizon: float,
        seed: int = 0,
        heartbeats: Optional[HeartbeatService] = None,
        ha: Optional[HaCluster] = None,
    ) -> None:
        if horizon <= 0:
            raise FaultConfigError("horizon must be positive")
        if ha is None and any(
            isinstance(p, LeaderKillProfile) for p in profiles
        ):
            raise FaultConfigError(
                "kill_leader profile needs an HaCluster (pass ha=...)"
            )
        self.sim = sim
        self.namenode = namenode
        self.profiles = tuple(profiles)
        self.horizon = float(horizon)
        self.seed = seed
        self.heartbeats = heartbeats
        self.ha = ha
        # Replica ids of killed leaders, popped by their revive events.
        self._killed_leaders: List[int] = []
        # Per-corruption-profile victim pickers, seeded at install time
        # (which replica rots depends on what is stored when the strike
        # fires, so it cannot be part of the plan).
        self._corrupt_rngs: Dict[str, random.Random] = {}
        self.injected: Dict[str, int] = {}
        self.installed = False
        # Nodes may be downed by overlapping profiles (a machine crash
        # inside a partitioned rack); a node only heals once the last
        # outage covering it has expired.
        self._release_at: Dict[int, float] = {}
        self._plan: Optional[Tuple[FaultEvent, ...]] = None

    # -- schedule construction ----------------------------------------------

    def plan(self) -> Tuple[FaultEvent, ...]:
        """The deterministic schedule of timed fault events."""
        if self._plan is None:
            events: List[FaultEvent] = []
            for index, profile in enumerate(self.profiles):
                rng = random.Random(self.seed * 7919 + index)
                events.extend(self._profile_events(profile, rng))
            events.sort(key=lambda e: (e.time, e.is_recovery, e.target))
            self._plan = tuple(events)
        return self._plan

    def _profile_events(
        self, profile: FaultProfile, rng: random.Random
    ) -> List[FaultEvent]:
        if isinstance(profile, CrashProfile):
            targets = profile.targets or tuple(self.namenode.topology.machines)
            return self._sample(profile.kind, targets, profile.mtbf,
                                profile.repair_time, rng)
        if isinstance(profile, GrayNodeProfile):
            targets = profile.targets or tuple(self.namenode.topology.machines)
            return self._sample(profile.kind, targets, profile.mtbf,
                                profile.duration, rng)
        if isinstance(profile, PartitionProfile):
            racks = profile.racks or tuple(
                range(self.namenode.topology.num_racks)
            )
            return self._sample(profile.kind, racks, profile.mtbf,
                                profile.duration, rng)
        if isinstance(profile, (BitRotProfile, TornWriteProfile)):
            targets = profile.targets or tuple(self.namenode.topology.machines)
            return self._sample_oneshot(profile.kind, targets,
                                        profile.mtbf, rng)
        if isinstance(profile, LeaderKillProfile):
            # target is -1: the victim is whichever replica leads when
            # the strike fires, unknowable at plan time.
            events = []
            for t in profile.times:
                if t >= self.horizon:
                    continue
                events.append(FaultEvent(t, profile.kind, -1, False))
                if profile.revive_after > 0:
                    events.append(FaultEvent(
                        t + profile.revive_after, profile.kind, -1, True
                    ))
            return events
        return []  # hook-based profiles have no timed events

    def _sample(
        self,
        kind: str,
        targets: Sequence[int],
        mtbf: float,
        repair: float,
        rng: random.Random,
    ) -> List[FaultEvent]:
        events: List[FaultEvent] = []
        for target in targets:
            down_until = 0.0
            t = rng.expovariate(1.0 / mtbf)
            while t < self.horizon:
                if t >= down_until:
                    events.append(FaultEvent(t, kind, target, False))
                    down_until = t + repair
                    events.append(
                        FaultEvent(down_until, kind, target, True)
                    )
                t += rng.expovariate(1.0 / mtbf)
        return events

    def _sample_oneshot(
        self,
        kind: str,
        targets: Sequence[int],
        mtbf: float,
        rng: random.Random,
    ) -> List[FaultEvent]:
        """Strikes with no recovery events — damage only repair undoes."""
        events: List[FaultEvent] = []
        for target in targets:
            t = rng.expovariate(1.0 / mtbf)
            while t < self.horizon:
                events.append(FaultEvent(t, kind, target, False))
                t += rng.expovariate(1.0 / mtbf)
        return events

    # -- arming ---------------------------------------------------------------

    def install(self) -> int:
        """Schedule every timed event and arm the probabilistic hooks.

        Returns the number of timed outage events armed.
        """
        if self.installed:
            raise FaultConfigError("injector already installed")
        self.installed = True
        armed = 0
        for event in self.plan():
            self.sim.schedule_at(
                max(event.time, self.sim.now),
                lambda event=event: self._apply(event),
            )
            if not event.is_recovery:
                armed += 1
        for index, profile in enumerate(self.profiles):
            hook_rng = random.Random(self.seed * 104729 + index)
            if isinstance(profile, FlakyTransferProfile):
                self._arm_flaky(profile, hook_rng)
            elif isinstance(profile, MessageLossProfile):
                self._arm_message_loss(profile, hook_rng)
            elif isinstance(profile, (BitRotProfile, TornWriteProfile)):
                self._corrupt_rngs[profile.kind] = hook_rng
        _LOG.info(
            "fault injector armed: %d timed events, %d profiles, seed=%d",
            armed, len(self.profiles), self.seed,
        )
        return armed

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if _REG.enabled:
            _INJECTED.labels(kind=kind).inc()

    def _apply(self, event: FaultEvent) -> None:
        if event.is_recovery:
            self._heal(event)
            return
        self._count(event.kind)
        _LOG.info("injecting fault: %s", event.describe())
        if event.kind == CrashProfile.kind:
            self._strike_nodes([event.target], event)
        elif event.kind == LeaderKillProfile.kind:
            from repro.errors import NoLeaderError
            try:
                self._killed_leaders.append(self.ha.kill_leader())
            except NoLeaderError:
                # An earlier kill's election is still running; striking
                # a leaderless plane is a no-op.
                self.injected[event.kind] -= 1
        elif event.kind == PartitionProfile.kind:
            nodes = self.namenode.topology.machines_in_rack(event.target)
            self._strike_nodes(nodes, event)
        elif event.kind == GrayNodeProfile.kind:
            profile = next(
                p for p in self.profiles if isinstance(p, GrayNodeProfile)
            )
            self.namenode.datanode(event.target).slowdown = profile.slowdown
        elif event.kind == BitRotProfile.kind:
            self._rot_replica(event, "bit-rot")
        elif event.kind == TornWriteProfile.kind:
            self._rot_replica(event, "torn-write")

    def _rot_replica(self, event: FaultEvent, corruption: str) -> None:
        """Silently damage one stored replica on the target node."""
        dn = self.namenode.datanode(event.target)
        blocks = sorted(dn.blocks())
        if not blocks:
            self.injected[event.kind] -= 1  # empty disk: nothing to rot
            return
        block_id = self._corrupt_rngs[event.kind].choice(blocks)
        if corruption == "torn-write":
            dn.torn_write(block_id, at=self.sim.now)
        else:
            dn.corrupt_replica(block_id, at=self.sim.now, kind=corruption)
        _LOG.info(
            "silent %s: replica of block %d on datanode %d",
            corruption, block_id, event.target,
        )

    def _strike_nodes(self, nodes: Sequence[int], event: FaultEvent) -> None:
        release = event.time + self._outage_duration(event.kind)
        for node in nodes:
            self._release_at[node] = max(
                self._release_at.get(node, 0.0), release
            )
            # Silent crash: the namenode keeps routing to the node until
            # the heartbeat expiry — exactly the stale-metadata window
            # the client's read failover exists for.
            self.namenode.datanode(node).crash()

    def _outage_duration(self, kind: str) -> float:
        for profile in self.profiles:
            if profile.kind == kind:
                if isinstance(profile, CrashProfile):
                    return profile.repair_time
                if isinstance(profile, (GrayNodeProfile, PartitionProfile)):
                    return profile.duration
        return 0.0

    def _heal(self, event: FaultEvent) -> None:
        if event.kind == LeaderKillProfile.kind:
            if self._killed_leaders:
                self.ha.revive_replica(self._killed_leaders.pop(0))
            return
        if event.kind == GrayNodeProfile.kind:
            self.namenode.datanode(event.target).slowdown = 1.0
            return
        if event.kind == PartitionProfile.kind:
            nodes = self.namenode.topology.machines_in_rack(event.target)
        else:
            nodes = [event.target]
        for node in nodes:
            if self.sim.now + 1e-9 < self._release_at.get(node, 0.0):
                continue  # another outage still covers this node
            self.namenode.recover_node(node)

    def _arm_flaky(
        self, profile: FlakyTransferProfile, rng: random.Random
    ) -> None:
        transfers = self.namenode.transfers

        def fault_hook(size: int, src: int, dst: int) -> Optional[float]:
            if rng.random() < profile.failure_probability:
                self._count(profile.kind)
                return rng.uniform(profile.min_fraction, profile.max_fraction)
            return None

        transfers.fault_hook = fault_hook

    def _arm_message_loss(
        self, profile: MessageLossProfile, rng: random.Random
    ) -> None:
        if self.heartbeats is None:
            raise FaultConfigError(
                "message-loss profile needs a heartbeat service"
            )
        targets = set(profile.targets) if profile.targets is not None else None

        def loss_filter(node: int) -> bool:
            if targets is not None and node not in targets:
                return False
            if rng.random() < profile.loss_probability:
                self._count(profile.kind)
                return True
            return False

        self.heartbeats.loss_filter = loss_filter
