"""High-availability metadata plane: replicated namenodes with failover.

A single namenode caps every availability claim: one crash means a full
stop-the-world :func:`~repro.dfs.editlog.recover_namenode` replay.  This
module runs 2-3 namenode **replicas** over one physical cluster and
keeps the metadata plane writable across leader death:

* **Leader election** — a deterministic, sim-clock lease protocol with
  Raft-style term numbers.  The leader renews every follower's lease
  each ``heartbeat_interval``; a follower whose lease is older than its
  seed-randomized election timeout starts an election for ``term + 1``
  and wins with a majority of votes.  A voter grants its vote only to a
  candidate whose journal is at least as complete as its own, so the
  winner always holds every acknowledged mutation.
* **Fencing** — each leader's namenode gets a
  :attr:`~repro.dfs.namenode.Namenode.fence_check` bound to its replica
  and term; once deposed, every write through the stale handle raises
  :class:`~repro.errors.FencedError` (a
  :class:`~repro.errors.SafeModeError`, so existing retry paths treat it
  as "metadata plane temporarily unwritable").
* **Journal shipping + checkpoints** — every mutation is appended
  synchronously to a write quorum of replica
  :class:`~repro.dfs.store.MetadataStore` backends (HDFS-QJM style, so
  an acknowledged write survives any single failure); replicas outside
  the quorum tail the journal each ``ship_interval``.  The leader
  periodically snapshots its namespace
  (:func:`~repro.dfs.editlog.build_checkpoint`) into every store and
  truncates the shipped prefix, so follower replay time and journal
  size are bounded by ``checkpoint_every`` — not by history length.
* **Failover** — on leader death a follower wins the next election,
  restores its store's checkpoint into a fresh namenode, replays only
  the journal tail past it, adopts the *physical* datanodes, and sits
  in safe mode until block reports restore enough locations; the
  :class:`~repro.dfs.safemode.SafeModeMonitor` exit marks the plane
  writable again.  ``on_failover`` callbacks let the heartbeat service,
  clients and an Aurora optimizer re-point at the new leader
  (:func:`rebind_aurora`).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.dfs.editlog import (
    EditLog,
    attach_edit_log,
    build_checkpoint,
    replay_entries,
    restore_checkpoint,
)
from repro.dfs.namenode import Namenode
from repro.dfs.quota import QuotaManager
from repro.dfs.safemode import SafeModeMonitor
from repro.dfs.store import InMemoryMetadataStore, MetadataStore
from repro.errors import DfsError, FencedError, NoLeaderError
from repro.obs.registry import get_registry
from repro.simulation.engine import EventToken, Simulation

__all__ = ["HaConfig", "NamenodeReplica", "HaCluster", "rebind_aurora"]

_LOG = logging.getLogger(__name__)

_REG = get_registry()
_ELECTIONS = _REG.counter(
    "repro_ha_elections_total",
    "Leader elections started, by outcome",
    ["outcome"],
)
_FAILOVERS = _REG.counter(
    "repro_ha_failovers_total",
    "Completed leader failovers (a new leader finished promotion)",
)
_TERM = _REG.gauge(
    "repro_ha_term",
    "Current leadership term of the metadata plane",
)
_FENCED_WRITES = _REG.counter(
    "repro_ha_fenced_writes_total",
    "Writes rejected because they reached a deposed leader",
)
_TIME_TO_LEADER = _REG.histogram(
    "repro_ha_time_to_leader_seconds",
    "Simulated seconds from leader death to a new leader elected",
)
_TIME_TO_WRITABLE = _REG.histogram(
    "repro_ha_time_to_writable_seconds",
    "Simulated seconds from leader death to the plane accepting writes",
)
_ENTRIES_SHIPPED = _REG.counter(
    "repro_ha_journal_entries_shipped_total",
    "Edit-log entries copied to replica stores (quorum writes + tailing)",
)
_CHECKPOINTS = _REG.counter(
    "repro_ha_checkpoints_total",
    "Namespace checkpoints taken and shipped to replica stores",
)
_JOURNAL_ENTRIES = _REG.gauge(
    "repro_ha_journal_retained_entries",
    "Journal entries retained on the leader after the last truncation",
)


@dataclass(frozen=True)
class HaConfig:
    """Tunables for the replicated metadata plane."""

    num_replicas: int = 3
    #: Leader lease renewal period (sim seconds).
    heartbeat_interval: float = 2.0
    #: Base follower election timeout; a follower whose lease is older
    #: than ``lease_timeout + jitter`` starts an election.
    lease_timeout: float = 10.0
    #: Upper bound of the per-replica seeded random timeout addition —
    #: staggers elections so a single follower usually wins cleanly.
    election_jitter: float = 5.0
    #: How often followers poll their lease / tail the journal.
    ship_interval: float = 2.0
    #: Journal entries between checkpoints (and truncations).
    checkpoint_every: int = 50
    #: Safe-mode exit: fraction of blocks that must have reported.
    safemode_threshold: float = 0.999
    #: Safe-mode extension after the threshold first holds.
    safemode_extension: float = 0.0
    #: Safe-mode poll interval on the new leader.
    safemode_poll: float = 1.0
    #: Spacing between datanode block reports during promotion (models
    #: report processing; keeps safemode exit off a single instant).
    report_stagger: float = 0.5
    #: Seed for the per-replica election timeouts.
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.num_replicas <= 7:
            raise DfsError("num_replicas must be in [2, 7]")
        if self.heartbeat_interval <= 0 or self.ship_interval <= 0:
            raise DfsError("intervals must be positive")
        if self.lease_timeout <= self.heartbeat_interval:
            raise DfsError("lease_timeout must exceed heartbeat_interval")
        if self.checkpoint_every < 1:
            raise DfsError("checkpoint_every must be >= 1")

    @property
    def quorum(self) -> int:
        """Write/election quorum size (majority of all replicas)."""
        return self.num_replicas // 2 + 1


@dataclass
class NamenodeReplica:
    """One member of the replicated metadata plane."""

    replica_id: int
    store: MetadataStore
    election_timeout: float
    alive: bool = True
    term: int = 0
    voted_in_term: Dict[int, int] = field(default_factory=dict)
    last_leader_beat: float = 0.0

    @property
    def last_seq(self) -> int:
        """Highest journal seq this replica's store has durably seen."""
        return self.store.last_seq()


class HaCluster:
    """Replicated namenode control plane over one physical cluster.

    ``namenode_factory`` must build a fresh :class:`Namenode` over the
    shared topology; the first one built owns the *physical* datanodes,
    which every later leader adopts (disks and heartbeat clocks survive
    metadata failovers).  ``store_factory(replica_id)`` supplies each
    replica's durable backend (defaults to in-memory).
    """

    def __init__(
        self,
        sim: Simulation,
        config: HaConfig,
        namenode_factory: Callable[[], Namenode],
        store_factory: Optional[Callable[[int], MetadataStore]] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self._factory = namenode_factory
        rng = random.Random(config.seed * 6271 + 17)
        make_store = store_factory or (lambda _rid: InMemoryMetadataStore())
        self.replicas: List[NamenodeReplica] = [
            NamenodeReplica(
                replica_id=rid,
                store=make_store(rid),
                election_timeout=(
                    config.lease_timeout
                    + rng.uniform(0.0, config.election_jitter)
                ),
            )
            for rid in range(config.num_replicas)
        ]
        self._leader: Optional[NamenodeReplica] = None
        self._term = 0
        self._namenode: Optional[Namenode] = None
        self._log: Optional[EditLog] = None
        self._quota: Optional[QuotaManager] = None
        self._physical = None  # adopted Datanode list, set on bootstrap
        self._last_checkpoint_seq = 0
        self._safemode: Optional[SafeModeMonitor] = None
        self._beat_token: Optional[EventToken] = None
        self._tick_token: Optional[EventToken] = None
        #: Optional heartbeat service to re-point on failover (rebound
        #: before block reports, so liveness beliefs carry over).
        self.heartbeats = None
        #: Called with the new leader's namenode after each failover.
        self.on_failover: List[Callable[[Namenode], None]] = []
        #: Timeline of leadership events, for demos and debugging.
        self.events: List[Dict] = []
        # Stats (mirrored into repro.obs metrics when enabled).
        self.elections = 0
        self.failovers = 0
        self.fenced_writes = 0
        self.entries_shipped = 0
        self.checkpoints_taken = 0
        self.time_to_leader: List[float] = []
        self.time_to_writable: List[float] = []
        self.entries_replayed_last_failover = 0
        self._leader_down_at: Optional[float] = None

    # -- leadership state -----------------------------------------------------

    @property
    def current_term(self) -> int:
        """The highest term this cluster has elected a leader in."""
        return self._term

    @property
    def leader_id(self) -> Optional[int]:
        """Replica id of the current leader (None during an outage)."""
        return self._leader.replica_id if self._leader else None

    @property
    def active(self) -> Namenode:
        """The current leader's namenode — the clients' write endpoint."""
        if self._leader is None or self._namenode is None:
            raise NoLeaderError("no namenode replica holds a lease")
        return self._namenode

    @property
    def quota(self) -> QuotaManager:
        """The current leader's quota manager."""
        if self._quota is None:
            raise NoLeaderError("no namenode replica holds a lease")
        return self._quota

    @property
    def log(self) -> EditLog:
        """The current leader's edit log."""
        if self._log is None:
            raise NoLeaderError("no namenode replica holds a lease")
        return self._log

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Namenode:
        """Bootstrap replica 0 as the term-1 leader and begin the loops."""
        if self._beat_token is not None:
            raise DfsError("HA cluster already started")
        self._promote(self.replicas[0], term=1, bootstrap=True)
        self._beat_token = self.sim.schedule_periodic(
            self.config.heartbeat_interval, self._leader_beat
        )
        self._tick_token = self.sim.schedule_periodic(
            self.config.ship_interval, self._tick
        )
        return self.active

    def stop(self) -> None:
        """Cancel all scheduled HA activity."""
        for token in (self._beat_token, self._tick_token):
            if token is not None:
                token.cancel()
        self._beat_token = None
        self._tick_token = None

    def kill_leader(self) -> int:
        """Crash the current leader replica; returns its id."""
        if self._leader is None:
            raise NoLeaderError("no leader to kill")
        victim = self._leader
        victim.alive = False
        self._leader = None
        self._leader_down_at = self.sim.now
        self._record("leader-killed", replica=victim.replica_id,
                     term=self._term)
        _LOG.warning(
            "HA: leader replica %d killed at t=%.1f (term %d)",
            victim.replica_id, self.sim.now, self._term,
        )
        return victim.replica_id

    def kill_replica(self, replica_id: int) -> None:
        """Crash a specific replica (leader or follower)."""
        replica = self.replicas[replica_id]
        if self._leader is replica:
            self.kill_leader()
            return
        replica.alive = False
        self._record("follower-killed", replica=replica_id, term=self._term)

    def revive_replica(self, replica_id: int) -> None:
        """Restart a crashed replica as a follower.

        Its store kept whatever it had durably seen; the tailing loop
        catches it up (checkpoint first if its journal gap was
        truncated).
        """
        replica = self.replicas[replica_id]
        if replica.alive:
            return
        replica.alive = True
        replica.term = self._term
        replica.last_leader_beat = self.sim.now
        self._record("replica-revived", replica=replica_id, term=self._term)

    # -- periodic machinery ---------------------------------------------------

    def _leader_beat(self) -> None:
        if self._leader is None or not self._leader.alive:
            return
        for replica in self.replicas:
            if replica.alive:
                replica.last_leader_beat = self.sim.now

    def _tick(self) -> None:
        self._maybe_elect()
        if self._leader is not None:
            self._ship()
            self._maybe_checkpoint()

    def _maybe_elect(self) -> None:
        """Let the follower with the earliest expired lease run."""
        now = self.sim.now
        expired = [
            replica for replica in self.replicas
            if replica.alive
            and replica is not self._leader
            and now - replica.last_leader_beat > replica.election_timeout
        ]
        if self._leader is not None and self._leader.alive:
            return  # leases only expire when the leader stops beating
        if not expired:
            return
        expired.sort(key=lambda replica: (
            replica.last_leader_beat + replica.election_timeout,
            replica.replica_id,
        ))
        candidate = expired[0]
        self._run_election(candidate)

    def _run_election(self, candidate: NamenodeReplica) -> None:
        self.elections += 1
        term = max(self._term, candidate.term) + 1
        candidate.term = term
        candidate.voted_in_term[term] = candidate.replica_id
        votes = 1
        for voter in self.replicas:
            if voter is candidate or not voter.alive:
                continue
            if voter.term > term:
                continue
            # Adopt the newer term even when the vote is denied, so the
            # next candidacy starts above it instead of colliding with
            # a term this voter already voted in.
            voter.term = term
            if term in voter.voted_in_term:
                continue
            if candidate.last_seq < voter.last_seq:
                continue  # candidate's journal is incomplete
            voter.voted_in_term[term] = candidate.replica_id
            voter.last_leader_beat = self.sim.now  # granted = lease renewed
            votes += 1
        won = votes >= self.config.quorum
        if _REG.enabled:
            _ELECTIONS.labels(outcome="won" if won else "lost").inc()
        self._record(
            "election", replica=candidate.replica_id, term=term,
            votes=votes, won=won,
        )
        _LOG.info(
            "HA: replica %d ran election for term %d at t=%.1f: "
            "%d/%d votes (%s)",
            candidate.replica_id, term, self.sim.now, votes,
            self.config.num_replicas, "won" if won else "lost",
        )
        if won:
            self._promote(candidate, term)
        else:
            # A losing candidate (journal incomplete, or quorum dead)
            # renews its own lease: it stops winning the
            # earliest-expired tiebreak, so a voter that denied it gets
            # to stand next tick instead of starving behind the loser.
            candidate.last_leader_beat = self.sim.now

    def _ship(self) -> None:
        """Tail the leader's store into every lagging alive replica."""
        leader_store = self._leader.store
        checkpoint = leader_store.load_checkpoint()
        for replica in self.replicas:
            if not replica.alive or replica is self._leader:
                continue
            behind = replica.last_seq
            if behind >= leader_store.last_seq():
                continue
            if checkpoint is not None and checkpoint["seq"] > behind:
                # The gap predates the journal's retained prefix (or is
                # simply huge): snapshot first, then the tail.
                replica.store.save_checkpoint(checkpoint)
                replica.store.truncate_through(checkpoint["seq"])
                behind = replica.last_seq
            shipped = leader_store.entries_after(behind)
            replica.store.append_entries(shipped)
            self.entries_shipped += len(shipped)
            if _REG.enabled and shipped:
                _ENTRIES_SHIPPED.inc(len(shipped))

    def _maybe_checkpoint(self) -> None:
        log = self._log
        if log is None or len(log) < self.config.checkpoint_every:
            return
        seq = log.last_seq
        checkpoint = build_checkpoint(
            self._namenode, quota=self._quota, seq=seq, term=self._term
        )
        for replica in self.replicas:
            if not replica.alive:
                continue
            if replica.last_seq < seq and replica is not self._leader:
                continue  # still behind; it will take the snapshot in _ship
            replica.store.save_checkpoint(checkpoint)
            replica.store.truncate_through(seq)
        log.truncate_through(seq)
        self._last_checkpoint_seq = seq
        self.checkpoints_taken += 1
        if _REG.enabled:
            _CHECKPOINTS.inc()
            _JOURNAL_ENTRIES.set(len(log))
        self._record("checkpoint", replica=self._leader.replica_id,
                     term=self._term, seq=seq)

    # -- promotion ------------------------------------------------------------

    def _sink_for(self, leader: NamenodeReplica) -> Callable[[Dict], None]:
        """Synchronous quorum append: the durability point of a write."""
        def sink(entry: Dict) -> None:
            # Leader's own store first, then followers in id order until
            # the quorum is durable; the rest tail via _ship.
            targets = [leader] + [
                replica for replica in self.replicas
                if replica is not leader and replica.alive
            ]
            for replica in targets[: self.config.quorum]:
                if entry["seq"] > replica.last_seq:
                    replica.store.append_entry(entry)
                    if replica is not leader:
                        self.entries_shipped += 1
                        if _REG.enabled:
                            _ENTRIES_SHIPPED.inc()
        return sink

    def _fence_for(
        self, replica: NamenodeReplica, term: int
    ) -> Callable[[], None]:
        def fence() -> None:
            if (self._leader is replica and replica.alive
                    and self._term == term):
                return
            self.fenced_writes += 1
            if _REG.enabled:
                _FENCED_WRITES.inc()
            raise FencedError(
                f"replica {replica.replica_id} was deposed "
                f"(term {term} < {self._term})"
            )
        return fence

    def _promote(
        self,
        replica: NamenodeReplica,
        term: int,
        bootstrap: bool = False,
    ) -> None:
        elected_at = self.sim.now
        self._term = term
        replica.term = term
        self._leader = replica
        replica.last_leader_beat = elected_at
        if _REG.enabled:
            _TERM.set(term)

        fresh = self._factory()
        if self._physical is None:
            # Bootstrap: the first namenode's datanodes ARE the cluster.
            self._physical = fresh.datanodes
        else:
            # Adopt the physical datanodes: disks, liveness and
            # heartbeat clocks survive the metadata failover.
            fresh.adopt_datanodes(self._physical)

        quota = QuotaManager(fresh)
        checkpoint = replica.store.load_checkpoint()
        ckpt_seq = 0
        if checkpoint is not None:
            restore_checkpoint(fresh, checkpoint, quota=quota)
            ckpt_seq = checkpoint["seq"]
        tail = replica.store.entries_after(ckpt_seq)
        self.entries_replayed_last_failover = replay_entries(
            fresh, tail, quota=quota
        )

        log = EditLog()
        log.resume_from(replica.store.last_seq())
        log.sink = self._sink_for(replica)
        attach_edit_log(fresh, log, quota=quota)
        fresh.fence_check = self._fence_for(replica, term)

        self._namenode = fresh
        self._log = log
        self._quota = quota
        self._last_checkpoint_seq = ckpt_seq
        self._record(
            "leader-elected", replica=replica.replica_id, term=term,
            replayed=self.entries_replayed_last_failover,
            checkpoint_seq=ckpt_seq,
        )
        _LOG.info(
            "HA: replica %d promoted at t=%.1f (term %d, checkpoint seq "
            "%d, replayed %d tail entries)",
            replica.replica_id, elected_at, term, ckpt_seq,
            self.entries_replayed_last_failover,
        )

        if not bootstrap:
            self.failovers += 1
            if _REG.enabled:
                _FAILOVERS.inc()
            if self._leader_down_at is not None:
                self.time_to_leader.append(elected_at - self._leader_down_at)
                if _REG.enabled:
                    _TIME_TO_LEADER.observe(
                        elected_at - self._leader_down_at
                    )
            if self.heartbeats is not None:
                self.heartbeats.rebind(fresh)
            self._enter_startup_safemode(fresh)
            for callback in self.on_failover:
                callback(fresh)

    def _enter_startup_safemode(self, fresh: Namenode) -> None:
        monitor = SafeModeMonitor(
            fresh,
            threshold=self.config.safemode_threshold,
            extension=self.config.safemode_extension,
        )
        down_at = self._leader_down_at

        def on_exit(now: float) -> None:
            if down_at is not None:
                self.time_to_writable.append(now - down_at)
                if _REG.enabled:
                    _TIME_TO_WRITABLE.observe(now - down_at)
            self._record("writable", replica=self.leader_id,
                         term=self._term)

        monitor.on_exit = on_exit
        monitor.run_on(self.sim, self.config.safemode_poll)
        self._safemode = monitor
        # Stagger the block reports that let safe mode lift: locations
        # are soft state, so the new leader asks every live disk.
        delay = self.config.report_stagger
        for index, dn in enumerate(self._physical):
            if not dn.alive:
                continue

            def report(node_id: int = dn.node_id) -> None:
                if self._namenode is fresh:
                    fresh.register_block_report(node_id)

            self.sim.schedule(delay * (index + 1), report)

    def _record(self, event: str, **fields) -> None:
        entry = {"t": round(self.sim.now, 3), "event": event}
        entry.update(fields)
        self.events.append(entry)


def rebind_aurora(system, namenode: Namenode) -> None:
    """Re-point an Aurora optimizer at a freshly promoted namenode.

    Registered as an ``on_failover`` callback.  Re-installs the usage
    monitor's access listener, the load-aware placement policy and the
    popularity load vector on the new leader, and drops the placement snapshot
    cache (block locations were rebuilt from reports, so cached
    placements are stale).  The usage monitor itself carries over —
    popularity history is workload state, not metadata.
    """
    from repro.aurora.bridge import PlacementSnapshotCache
    from repro.dfs.policies import LoadAwarePolicy

    system.namenode = namenode
    namenode.access_listeners.append(system.monitor.record_access)
    namenode.placement_policy = LoadAwarePolicy()
    system.publish_loads()
    if system.config.movement_compression > 1.0:
        namenode.movement_compression = system.config.movement_compression
    system._snapshot_cache = PlacementSnapshotCache()
    if system.replicate_on_read is not None:
        system.replicate_on_read.namenode = namenode
