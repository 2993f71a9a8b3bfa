"""The namenode: namespace, block map, replication management.

This is the metadata brain of the HDFS simulator.  It owns the file
namespace, the :class:`~repro.dfs.blockmap.BlockMap`, the datanode
registry, and implements the behaviours Aurora builds on:

* writes through a pluggable
  :class:`~repro.dfs.policies.BlockPlacementPolicy`;
* reads that prefer node-local, then rack-local, then remote replicas;
* a run-time ``set_replication`` API (the paper: "The current HDFS
  already provides the API to control the number of replicas of each
  block at run-time");
* **lazy replica deletion**: when a block's target factor drops, excess
  replicas stay on disk serving reads and are only evicted when their
  node needs the space — "deletion of local block replicas is done lazily
  when disk space is needed ... allowing Aurora to reclaim the block if
  the replication factor needs to be increased again";
* failure handling: dead nodes lose their locations and under-replicated
  blocks are re-replicated from surviving copies;
* block migration (``move_block``) with make-before-break semantics.

All data movement goes through a :class:`~repro.dfs.replication.TransferService`,
so it costs simulated time and network bytes when a simulator is attached.
"""

from __future__ import annotations

import heapq
import logging
import random
from collections import Counter
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cluster.topology import ClusterTopology
from repro.dfs.block import DEFAULT_MAX_BLOCK_SIZE, BlockMeta, FileMeta
from repro.dfs.blockmap import BlockMap
from repro.dfs.datanode import Datanode
from repro.dfs.integrity import CorruptionLedger
from repro.dfs.namespace import NamespaceTree
from repro.dfs.policies import BlockPlacementPolicy, DefaultHdfsPolicy
from repro.dfs.replication import TransferService
from repro.dfs.targets import PairIndex, TargetIndex
from repro.errors import (
    CapacityExceededError,
    ChecksumError,
    DatanodeUnavailableError,
    DfsError,
    FileExistsInDfsError,
    FileNotFoundInDfsError,
    ReproError,
    SafeModeError,
)
from repro.faults.retry import RetryPolicy
from repro.obs.registry import get_registry
from repro.obs.tracer import TraceContext, get_tracer
from repro.overload.queueing import Priority
from repro.simulation.engine import Simulation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overload.admission import AdmissionController

__all__ = ["Namenode"]

_LOG = logging.getLogger(__name__)

_REG = get_registry()
_TRACER = get_tracer()
_READS = _REG.counter(
    "repro_dfs_reads_total",
    "Block reads routed by the namenode, by replica locality",
    ["locality"],
)
_REPLICATIONS = _REG.counter(
    "repro_dfs_replications_total",
    "Replica copies completed (re-replication and factor increases)",
)
_MIGRATIONS = _REG.counter(
    "repro_dfs_migrations_total",
    "Make-before-break block migrations completed",
)
_LAZY_EVICTIONS = _REG.counter(
    "repro_dfs_lazy_evictions_total",
    "Lazily deletable replicas evicted to reclaim disk space",
)
_RECLAIMED = _REG.counter(
    "repro_dfs_reclaimed_replicas_total",
    "Lazy replicas reclaimed for free when a factor rose again",
)
_NODE_EVENTS = _REG.counter(
    "repro_dfs_node_events_total",
    "Datanode lifecycle events seen by the namenode",
    ["event"],
)
_UNDER_REPLICATED = _REG.gauge(
    "repro_dfs_under_replicated_blocks",
    "Blocks below their target factor at the last replication check",
)
_UNDER_SPREAD = _REG.gauge(
    "repro_dfs_under_spread_blocks",
    "Blocks below their rack-spread target at the last replication check",
)
_TRANSFER_RETRIES = _REG.counter(
    "repro_dfs_transfer_retries_total",
    "Replication/migration transfers retried after a mid-flight failure",
)
_MIGRATION_ROLLBACKS = _REG.counter(
    "repro_dfs_migration_rollbacks_total",
    "Failed migrations rolled back (source replica kept, copy discarded)",
)
_MIGRATION_RETARGETS = _REG.counter(
    "repro_dfs_migration_retargets_total",
    "Failed migrations re-issued towards a different destination",
)
_REPL_REQUEUED = _REG.counter(
    "repro_dfs_replications_requeued_total",
    "Replications pushed back onto the priority queue after retry exhaustion",
)
_COPIES_DISCARDED = _REG.counter(
    "repro_dfs_replica_copies_discarded_total",
    "Replica copies that did not land a replica, by outcome",
    ["reason"],
)
_REPL_QUEUE_DEPTH = _REG.gauge(
    "repro_dfs_replication_queue_depth",
    "Blocks waiting in the prioritized re-replication queue",
)
_RECOVERY_SECONDS = _REG.histogram(
    "repro_dfs_recovery_seconds",
    "Simulated seconds from first under-replication to full replication",
)
_DEGRADED_READS = _REG.counter(
    "repro_dfs_degraded_reads_total",
    "Block reads served by a gray (slow) datanode",
)
_CORRUPT_REPORTED = _REG.counter(
    "repro_dfs_integrity_corrupt_replicas_total",
    "Corrupt replicas reported to the namenode, by detector",
    ["detector"],
)
_DETECTION_SECONDS = _REG.histogram(
    "repro_dfs_integrity_detection_seconds",
    "Simulated seconds from replica corruption to its detection",
    ["detector"],
)
_REPAIR_SECONDS = _REG.histogram(
    "repro_dfs_integrity_repair_seconds",
    "Simulated seconds from detection to full verified replication",
)
_PURGED = _REG.counter(
    "repro_dfs_integrity_replicas_purged_total",
    "Quarantined replicas deleted after the block was repaired",
)
_QUARANTINED = _REG.gauge(
    "repro_dfs_integrity_quarantined_replicas",
    "Replicas currently quarantined as corrupt",
)

#: Copy outcomes after which a copy chain backs off and tries again.
_RETRIED = frozenset({"failed", "target_died", "target_full"})


def _nothing() -> None:
    return None


class _CopyKind(NamedTuple):
    """What sets a repair copy apart from a migration copy.

    :meth:`Namenode._copy_replica` runs both; these are the rest.
    ``seen`` is the chain's own record of nodes that failed it.
    """

    #: Traffic class of the transfer, ``kind`` of the copy span.
    label: str
    #: The copy span's parent, read at every attempt.
    trace_parent: Callable[[], Optional[TraceContext]]
    #: (block, source, target, seen, retrying): an attempt landed
    #: nothing; ``retrying`` says whether a backoff and retry follow.
    failed: Callable[[int, int, int, Set[int], bool], None]
    #: (block, source, seen) after the backoff: the next attempt's
    #: (source, target), or None to end the chain.
    repick: Callable[[int, int, Set[int]], Optional[Tuple[int, int]]]
    #: The chain ended without a landing.
    end: Callable[[], None]
    #: (block, source): the copy landed on its target.
    landed: Callable[[int, int], None]


class Namenode:
    """Metadata server of the simulated distributed file system."""

    def __init__(
        self,
        topology: ClusterTopology,
        placement_policy: Optional[BlockPlacementPolicy] = None,
        sim: Optional[Simulation] = None,
        transfer_service: Optional[TransferService] = None,
        default_replication: int = 3,
        default_rack_spread: int = 2,
        rng: Optional[random.Random] = None,
        retry_policy: Optional[RetryPolicy] = None,
        replication_throttle: Optional[int] = None,
    ) -> None:
        if default_rack_spread > topology.num_racks:
            default_rack_spread = topology.num_racks
        if replication_throttle is not None and replication_throttle < 1:
            raise DfsError("replication_throttle must be >= 1")
        self.topology = topology
        self.sim = sim
        self.placement_policy = placement_policy or DefaultHdfsPolicy()
        self.transfers = transfer_service or TransferService(topology, sim=sim)
        # Gray datanodes stretch every transfer that touches them.
        self.transfers.node_slowdown = lambda node: self.datanodes[node].slowdown
        # Governs retry-on-alternate-source for failed transfers.
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=5.0, max_delay=60.0, jitter=0.1
        )
        # Max concurrent re-replication transfers (None = unlimited);
        # excess work waits in a most-under-replicated-first queue.
        self.replication_throttle = replication_throttle
        self.default_replication = default_replication
        self.default_rack_spread = default_rack_spread
        self.blockmap = BlockMap(topology)
        self.datanodes: List[Datanode] = [
            Datanode(node, topology.capacity_of(node)) for node in topology.machines
        ]
        # Membership epoch: bumped every time any datanode's liveness
        # flips, including "silent" crashes injected directly on the
        # datanode object.  Lets membership-derived caches (the live-node
        # set and target index here, the migration-replay dead set in
        # repro.aurora.bridge) revalidate with one integer compare
        # instead of scanning every node.
        self._membership_epoch = 0
        self._decommissioning: Set[int] = set()
        # Replica targets in (load, node_id) order, plus the per-rack
        # views the placement policies read; owns the load vector (see
        # set_load_vector) and is patched through the datanode and
        # lazy-ledger hooks installed below.
        self._targets = TargetIndex(
            self.datanodes, self._accepts_replicas, topology
        )
        # Lazily deletable replicas: (block_id, node) pairs above target.
        # A full node with a lazy replica can still take a copy, so the
        # ledger re-keys a node in the target index when its first lazy
        # replica arrives or its last one leaves.
        self._lazy = PairIndex(on_node_change=self._targets.patch)
        # Copies travelling towards a target: (block_id, target) pairs.
        self._inflight = PairIndex()
        self._attach_datanodes()
        self._live_cache: Set[int] = {
            dn.node_id for dn in self.datanodes if dn.alive
        }
        self._live_cache_epoch = 0
        self._rng = rng or random.Random(0)
        self.namespace = NamespaceTree()
        self._files_by_id: Dict[int, FileMeta] = {}
        self._next_file_id = 0
        self._next_block_id = 0
        # Corrupt-replica quarantine and integrity statistics.  A
        # quarantined replica keeps its block-map location (the bytes
        # are physically there) but leaves the readable set, is never a
        # replication source, and is purged only after the block is
        # back to full verified replication — never when it is the last
        # remaining replica.
        self.integrity = CorruptionLedger()
        # Safe mode: mutations rejected until enough blocks have
        # reported a replica (see repro.dfs.safemode).
        self.safe_mode = False
        # Fencing hook (installed by repro.dfs.ha): called before every
        # mutation; raises FencedError when this namenode's leadership
        # term has been superseded, so a deposed leader cannot write.
        self.fence_check: Optional[Callable[[], None]] = None
        # Listeners notified on every block access: fn(block_id, time).
        self.access_listeners: List[Callable[[int, float], None]] = []
        # Richer read listeners: fn(block_id, reader, source, time) —
        # used by replicate-on-read mechanisms that need to know where
        # the bytes landed.
        self.read_listeners: List[Callable[[int, int, int, float], None]] = []
        # Compression applied to replication/migration traffic only
        # (the paper cites a 27x ratio making movement overhead
        # acceptable); None defers to the transfer service's default.
        self.movement_compression: Optional[float] = None
        # Prioritized re-replication queue: (live replicas, seq, block).
        self._repl_queue: List[Tuple[int, int, int]] = []
        self._queued: Set[int] = set()
        # Retry chains waiting out a backoff hold no _inflight entry but
        # still promise a copy; counting them stops a concurrent
        # replication check from over-replicating the block.
        self._retry_pending: Counter[int] = Counter()
        self._queue_seq = 0
        self._repl_inflight = 0
        self._draining = False
        # Recovery-time tracking: when the current under-replication
        # episode began, and the durations of completed episodes.
        self._under_since: Optional[float] = None
        self.recovery_times: List[float] = []
        # Open "dfs.recovery" span for the current episode (tracing on).
        self._recovery_span = None
        # Admission gate for background traffic (installed by
        # repro.overload.protection; None admits everything).
        self.admission: Optional["AdmissionController"] = None
        # Latest queue saturation each datanode reported via heartbeat.
        self.node_saturation: Dict[int, float] = {}
        # Counters.
        self.replications_completed = 0
        self.moves_completed = 0
        self.lazy_evictions = 0
        self.reclaimed_replicas = 0
        self.transfer_retries = 0
        self.migration_rollbacks = 0
        self.migration_retargets = 0
        self.replications_requeued = 0
        # Replica copies that ended without landing a replica, any reason.
        self.copies_discarded = 0
        self.degraded_reads = 0
        # Background work held back by overload protection.
        self.replications_deferred = 0
        self.replications_shed = 0
        self.migrations_deferred = 0
        self.migrations_shed = 0
        # The two kinds of replica copy (see _copy_replica).
        self._repair = _CopyKind(
            "replication", self._recovery_context, self._repair_failed,
            self._repair_repick, self._end_replication, self._repair_landed,
        )
        self._migration = _CopyKind(
            "migration", _nothing, self._migration_failed,
            self._migration_repick, _nothing, self._migration_landed,
        )

    # -- time & liveness -------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (0 without a simulator)."""
        return self.sim.now if self.sim is not None else 0.0

    def datanode(self, node: int) -> Datanode:
        """The datanode object for machine ``node``."""
        self.topology.check_machine(node)
        return self.datanodes[node]

    @property
    def membership_epoch(self) -> int:
        """Counter incremented whenever any datanode's liveness flips."""
        return self._membership_epoch

    def _bump_membership_epoch(self) -> None:
        self._membership_epoch += 1
        self._targets.invalidate()

    def _attach_datanodes(self) -> None:
        """Install the liveness and disk-usage hooks on every datanode."""
        self._targets.datanodes = self.datanodes
        for dn in self.datanodes:
            dn.on_liveness_change = self._bump_membership_epoch
            dn.on_usage_change = self._targets.patch

    def adopt_datanodes(self, datanodes: List[Datanode]) -> None:
        """Take over existing datanode objects (metadata failover).

        Disks, liveness and heartbeat clocks survive; the hooks are
        re-pointed at this namenode and membership-derived caches are
        invalidated.
        """
        self.datanodes = datanodes
        self._attach_datanodes()
        self._bump_membership_epoch()

    def live_nodes(self) -> Set[int]:
        """Ids of datanodes currently alive.

        The set is rebuilt only when the membership epoch moved; callers
        must treat it as read-only.
        """
        if self._live_cache_epoch != self._membership_epoch:
            self._live_cache = {
                dn.node_id for dn in self.datanodes if dn.alive
            }
            self._live_cache_epoch = self._membership_epoch
        return self._live_cache

    def cluster_saturation(self) -> float:
        """Mean bounded-queue occupancy across live datanodes.

        Reads installed service queues directly when present, else falls
        back to the latest heartbeat-reported values; 0 when the cluster
        runs without overload protection.  This is the signal Aurora's
        brownout controller and the admission gate's pressure function
        consume.
        """
        values = []
        for dn in self.datanodes:
            if not dn.alive:
                continue
            if dn.service_queue is not None:
                values.append(dn.service_queue.saturation(self.now))
            elif dn.node_id in self.node_saturation:
                values.append(self.node_saturation[dn.node_id])
        if not values:
            return 0.0
        return sum(values) / len(values)

    def fail_node(
        self, node: int, re_replicate: bool = True, crash: bool = True
    ) -> None:
        """Take a datanode out of service; optionally repair replication.

        With ``crash=True`` (the default) the node's ground-truth
        liveness flips too.  ``crash=False`` only updates the namenode's
        *belief* — the heartbeat service uses it when an expiry may be a
        false suspicion (the node could merely have lost its beats), so
        a healthy node keeps serving in-flight reads while the namenode
        re-replicates around it.

        The node's replicas are removed from the block map (the namenode
        no longer routes to them) but stay on the node's disk, so a later
        block report (:meth:`register_block_report`) re-registers them.
        """
        dn = self.datanode(node)
        was_alive = dn.alive
        if crash:
            dn.crash()
        if was_alive:
            if _REG.enabled:
                _NODE_EVENTS.labels(event="fail" if crash else "suspect").inc()
            _LOG.warning(
                "datanode %d %s re_replicate=%s",
                node, "failed" if crash else "suspected dead", re_replicate,
            )
        # Idempotent: a node already processed has no locations left, so
        # the loop below is a no-op on repeat calls (e.g. when the
        # heartbeat service confirms a crash injected directly).
        for block_id in list(self.blockmap.blocks_on(node)):
            self.blockmap.remove_location(block_id, node)
            self._lazy.discard(block_id, node)
        if re_replicate:
            self.check_replication()

    def register_block_report(self, node: int) -> None:
        """Process a block report: re-register the node's replicas.

        Idempotent — locations already known are left alone.  Used when
        a node recovers and when a falsely suspected node's heartbeats
        resume.  Replication that happened in the interim may leave
        blocks above their target factor; the excess is marked lazily
        deletable, reclaimable if the factor rises again.
        """
        dn = self.datanode(node)
        if not dn.alive:
            return
        for block_id in dn.blocks():
            if block_id not in self.blockmap:
                dn.erase(block_id)
                continue
            if node not in self.blockmap.locations(block_id):
                self.blockmap.add_location(block_id, node)
            meta = self.blockmap.meta(block_id)
            excess = (
                self._active_replica_count(block_id) - meta.replication_factor
            )
            if excess > 0:
                self._mark_excess_lazy(block_id, excess)
        self._note_recovery_progress()

    def recover_node(self, node: int) -> None:
        """Bring a datanode back; its block report restores locations."""
        dn = self.datanode(node)
        if dn.alive:
            return
        dn.recover()
        if _REG.enabled:
            _NODE_EVENTS.labels(event="recover").inc()
        _LOG.info("datanode %d recovered blocks=%d", node, len(dn.blocks()))
        self.register_block_report(node)

    def wipe_node(self, node: int) -> int:
        """Replace a node's disk: retract locations, wipe, rejoin empty.

        The consistent way to model a hardware swap — a bare
        :meth:`Datanode.wipe` empties the disk but leaves the namenode
        mapping blocks at it (an fsck ``unreported-replica`` /
        ``dead-location`` window).  This retracts every location,
        forgets quarantine entries for the destroyed replicas, wipes
        the disk, rejoins the node, and starts repair.  Returns the
        number of replicas lost with the disk.
        """
        dn = self.datanode(node)
        lost = len(dn.blocks())
        for block_id in list(self.blockmap.blocks_on(node)):
            self.blockmap.remove_location(block_id, node)
            self._lazy.discard(block_id, node)
        for block_id in dn.blocks():
            self.integrity.release(block_id, node)
        dn.wipe()
        if _REG.enabled:
            _NODE_EVENTS.labels(event="wipe").inc()
            _QUARANTINED.set(self.integrity.quarantined_count)
        _LOG.warning("datanode %d wiped: %d replicas lost", node, lost)
        if not dn.alive:
            self.recover_node(node)  # rejoins with an empty block report
        self.check_replication()
        return lost

    def retract_replica(self, block_id: int, node: int) -> None:
        """Forget a replica the namenode believes in but the disk lacks.

        Drops its block-map location, lazy mark and quarantine entry,
        then the believed disk copy — the served namenode's block-report
        reconciliation calls this when reality lost a replica.  The
        next replication check re-copies the block.
        """
        if (block_id in self.blockmap
                and node in self.blockmap.locations_view(block_id)):
            self.blockmap.remove_location(block_id, node)
        self._lazy.discard(block_id, node)
        self.integrity.release(block_id, node)
        dn = self.datanodes[node]
        if dn.holds(block_id):
            dn.erase(block_id)

    # -- data integrity ---------------------------------------------------------

    def report_corrupt_replica(
        self, block_id: int, node: int, detector: str = "client"
    ) -> bool:
        """Quarantine a replica that failed checksum verification.

        Idempotent — repeated reports of the same replica return False.
        The replica leaves the readable set immediately, the block is
        pushed onto the prioritized re-replication queue (repair copies
        only from verified sources), and once the block is back to full
        verified replication the corrupt replica is purged — unless it
        is the last remaining replica, which is never deleted (fsck
        surfaces it as ``corrupt-last-replica`` instead).
        """
        if block_id not in self.blockmap:
            return False
        dn = self.datanode(node)
        if not dn.holds(block_id):
            return False
        if not self.integrity.quarantine(block_id, node):
            return False
        corrupted_at = dn.integrity(block_id).corrupted_at
        self.integrity.note_detection(
            block_id, detector, self.now, corrupted_at
        )
        # A corrupt replica is not reclaimable spare capacity.
        self._lazy.discard(block_id, node)
        if _REG.enabled:
            _CORRUPT_REPORTED.labels(detector=detector).inc()
            _QUARANTINED.set(self.integrity.quarantined_count)
            if corrupted_at is not None:
                _DETECTION_SECONDS.labels(detector=detector).observe(
                    max(0.0, self.now - corrupted_at)
                )
        _LOG.info(
            "corrupt replica of block %d on datanode %d reported by %s",
            block_id, node, detector,
        )
        self._enqueue_replication(block_id)
        self._drain_replication_queue()
        # A repair may already have landed (scrub finding old rot after
        # the block healed); sweep so the quarantine cannot go stale.
        self._sweep_corrupt(block_id)
        return True

    def verified_locations(self, block_id: int) -> List[int]:
        """Live replica holders not quarantined as corrupt — the
        readable set."""
        live = self.live_nodes()
        return [
            n for n in self.blockmap.live_locations(block_id, live)
            if not self.integrity.is_quarantined(block_id, n)
        ]

    def _sweep_corrupt(self, block_id: int) -> None:
        """Purge quarantined replicas once the block is safely repaired.

        A quarantined replica is deleted only when the block has at
        least ``replication_factor`` verified live replicas *and* more
        than one replica in total — the last remaining replica of a
        block is never deleted, even corrupt, because damaged bytes
        beat no bytes for offline recovery.
        """
        if block_id not in self.blockmap:
            return
        purged_any = False
        quarantined = self.integrity.nodes_for(block_id)
        if quarantined:
            meta = self.blockmap.meta(block_id)
            for node in sorted(quarantined):
                if len(self.verified_locations(block_id)) \
                        < meta.replication_factor:
                    break
                if self.blockmap.replica_count(block_id) <= 1:
                    break  # corrupt-last-replica: keep it, fsck flags it
                dn = self.datanodes[node]
                if not dn.alive:
                    # Cannot erase an unreachable disk; the quarantine
                    # entry persists so a recovery cannot silently
                    # return the corrupt replica to the readable set.
                    continue
                if node in self.blockmap.locations(block_id):
                    self.blockmap.remove_location(block_id, node)
                if dn.holds(block_id):
                    dn.erase(block_id)
                self.integrity.release(block_id, node)
                self.integrity.replicas_purged += 1
                purged_any = True
                if _REG.enabled:
                    _PURGED.inc()
                _LOG.info(
                    "purged corrupt replica of block %d from datanode %d",
                    block_id, node,
                )
        if (not self.integrity.nodes_for(block_id)
                and self.integrity.has_open_episode(block_id)
                and self._replication_deficit(
                    block_id, self.live_nodes()) == 0):
            elapsed = self.integrity.note_repaired(block_id, self.now)
            if elapsed is not None and _REG.enabled:
                _REPAIR_SECONDS.observe(elapsed)
        elif (purged_any and block_id in self.blockmap
                and self._replication_deficit(
                    block_id, self.live_nodes()) > 0):
            # Purging can shrink the replica set below the rack-spread
            # target (the corrupt copies may have been the only
            # cross-rack replicas); requeue the follow-up repair rather
            # than waiting for the next periodic check.
            self._enqueue_replication(block_id)
        if _REG.enabled:
            _QUARANTINED.set(self.integrity.quarantined_count)

    def fail_rack(self, rack: int, re_replicate: bool = True) -> None:
        """Fail every datanode in ``rack`` (ToR switch outage)."""
        for node in self.topology.machines_in_rack(rack):
            self.fail_node(node, re_replicate=False)
        if re_replicate:
            self.check_replication()

    def recover_rack(self, rack: int) -> None:
        """Recover every datanode in ``rack``."""
        for node in self.topology.machines_in_rack(rack):
            self.recover_node(node)

    # -- capacity & lazy deletion ----------------------------------------------

    def can_store(self, node: int, block_id: int) -> bool:
        """Whether ``node`` can accept a replica of ``block_id``.

        Lazily deletable replicas count as reclaimable space.
        """
        # _accepts_replicas plus the holds test, inlined.
        dn = self.datanodes[node]
        if not dn.alive or dn.holds(block_id) or node in self._decommissioning:
            return False
        return dn.free_blocks > 0 or bool(self._lazy.blocks_on(node))

    def _accepts_replicas(self, node: int) -> bool:
        """Whether ``node`` can take a replica of some block it lacks.

        Membership test of the target index: alive, not draining, and a
        free slot or a lazy replica to evict.
        """
        dn = self.datanodes[node]
        return (dn.alive
                and node not in self._decommissioning
                and (dn.free_blocks > 0 or bool(self._lazy.blocks_on(node))))

    def node_load(self, node: int) -> float:
        """Load metric exposed to placement policies.

        Disk usage until :meth:`set_load_vector` installs a vector;
        then ``vector[node] + disk_weight * used_blocks``.
        """
        return self._targets.load(node)

    def rack_load(self, rack: int) -> float:
        """Summed :meth:`node_load` of every machine in ``rack``.

        Cached per rack and recomputed, never patched, after a change,
        so it equals the sum a scan of the rack would give bit for bit.
        """
        return self._targets.rack_load(rack)

    def rack_targets(self, rack: int) -> Iterator[int]:
        """The nodes of ``rack`` that accept replicas, least loaded
        first, ties to the lowest id.

        A node in this order can store a block unless it holds it.
        Callers must not mutate namenode state while iterating.
        """
        return self._targets.rack_nodes(rack)

    def blocked_nodes(self, block_id: int) -> AbstractSet[int]:
        """Nodes where :meth:`can_store` is false for ``block_id``.

        The nodes that accept no replica, plus the block's holders as
        the block map records them (on a namenode that passes
        :meth:`audit`, the live nodes whose disk holds the block).
        Usually empty for a new block.  Read-only.
        """
        rejecting = self._targets.rejecting()
        holders = self.blockmap.locations_view(block_id)
        return rejecting | holders if holders else rejecting

    def set_load_vector(
        self, vector: Optional[Sequence[float]], disk_weight: float = 0.0
    ) -> None:
        """Install the per-node load vector behind :meth:`node_load`.

        Aurora publishes its popularity loads here every period;
        ``None`` restores the disk-usage default.  The namenode keeps a
        copy, so later edits to ``vector`` have no effect.
        """
        self._targets.set_vector(vector, disk_weight)

    def lazy_replicas(self) -> Set[Tuple[int, int]]:
        """Snapshot of (block, node) pairs pending lazy deletion."""
        return self._lazy.pairs()

    def _ensure_space(self, node: int) -> None:
        """Evict lazily deletable replicas until ``node`` has a free slot.

        Victims go lowest block id first.
        """
        dn = self.datanodes[node]
        if dn.free_blocks > 0:
            return
        for block_id in sorted(self._lazy.blocks_on(node)):
            self._evict_lazy(block_id, node)
            if dn.free_blocks > 0:
                return
        raise CapacityExceededError(f"datanode {node} disk full")

    def _evict_lazy(self, block_id: int, node: int) -> None:
        """Delete a lazily deletable replica (a dead disk keeps its
        bytes until the node's next block report)."""
        self._lazy.discard(block_id, node)
        self.blockmap.remove_location(block_id, node)
        dn = self.datanodes[node]
        if dn.alive:
            dn.erase(block_id)
        self.lazy_evictions += 1
        if _REG.enabled:
            _LAZY_EVICTIONS.inc()

    def _check_writable(self) -> None:
        """Raise :class:`SafeModeError` while safe mode or fencing is on."""
        if self.fence_check is not None:
            self.fence_check()
        if self.safe_mode:
            raise SafeModeError("namenode is in safe mode")

    # -- namespace --------------------------------------------------------------

    def create_file(
        self,
        path: str,
        num_blocks: int,
        block_size: int = DEFAULT_MAX_BLOCK_SIZE,
        writer: Optional[int] = None,
        replication: Optional[int] = None,
        rack_spread: Optional[int] = None,
    ) -> FileMeta:
        """Create a file and write all its blocks through the policy.

        ``writer`` is the machine of the producing task (enables the
        local-write rule).  Each block's replicas are written through the
        transfer service as a pipeline: first replica, then each
        subsequent replica copied from the previous one.
        """
        self._check_writable()
        if self.namespace.exists(path):
            raise FileExistsInDfsError(f"path exists: {path}")
        if num_blocks < 1:
            raise DfsError("a file needs at least one block")
        replication = replication or self.default_replication
        rack_spread = rack_spread or min(self.default_rack_spread, replication)
        block_ids: List[int] = []
        try:
            for _ in range(num_blocks):
                meta = BlockMeta(
                    block_id=self._next_block_id,
                    file_id=self._next_file_id,
                    size=block_size,
                    replication_factor=replication,
                    rack_spread=min(rack_spread, replication),
                )
                self._next_block_id += 1
                self.blockmap.register(meta)
                block_ids.append(meta.block_id)
                targets = self.placement_policy.choose_targets(
                    self, meta, writer
                )
                previous: Optional[int] = None
                for node in targets:
                    self._write_replica(meta, node, source=previous)
                    previous = node
        except ReproError:
            # A file is created whole or not at all: without this, the
            # blocks placed so far would stay registered under a file id
            # the next file takes.
            self._drop_blocks(block_ids)
            raise
        file_meta = FileMeta(
            file_id=self._next_file_id,
            path=path,
            block_ids=tuple(block_ids),
            block_size=block_size,
        )
        self._next_file_id += 1
        self.namespace.add_file(path, file_meta.file_id)
        self._files_by_id[file_meta.file_id] = file_meta
        return file_meta

    def delete_file(self, path: str) -> None:
        """Remove a file, its blocks and their replicas."""
        self._check_writable()
        meta = self.file(path)
        self.namespace.remove_file(path)
        self._drop_blocks(meta.block_ids)
        del self._files_by_id[meta.file_id]

    def _drop_blocks(self, block_ids: Sequence[int]) -> None:
        for block_id in block_ids:
            for node in self.blockmap.locations(block_id):
                dn = self.datanodes[node]
                # A dead node cannot serve the delete; its stale replica
                # is erased by the block report when it comes back.
                if dn.alive and dn.holds(block_id):
                    dn.erase(block_id)
                self._lazy.discard(block_id, node)
            self.integrity.clear_block(block_id)
            self.blockmap.unregister(block_id)

    def mkdir(self, path: str) -> None:
        """Create a directory (with parents, like ``hdfs dfs -mkdir -p``)."""
        self.namespace.mkdir(path)

    def list_directory(self, path: str) -> List[str]:
        """Names directly under the directory at ``path``."""
        return self.namespace.list_directory(path)

    def rename(self, source: str, destination: str) -> None:
        """Move a file or directory — pure metadata, no data movement."""
        self.namespace.rename(source, destination)
        for new_path, file_id in self.namespace.walk_files(destination):
            meta = self._files_by_id[file_id]
            if meta.path != new_path:
                self._files_by_id[file_id] = FileMeta(
                    file_id=meta.file_id,
                    path=new_path,
                    block_ids=meta.block_ids,
                    block_size=meta.block_size,
                )

    def delete_directory(self, path: str) -> int:
        """Recursively delete a directory; returns files removed."""
        removed = self.namespace.remove_directory(path)
        for file_id in removed:
            self._drop_blocks(self._files_by_id.pop(file_id).block_ids)
        return len(removed)

    def file(self, path: str) -> FileMeta:
        """Look up a file by path."""
        return self._files_by_id[self.namespace.file_id(path)]

    def file_by_id(self, file_id: int) -> FileMeta:
        """Look up a file by id."""
        try:
            return self._files_by_id[file_id]
        except KeyError:
            raise FileNotFoundInDfsError(f"no such file id: {file_id}") from None

    def list_files(self) -> List[str]:
        """All file paths, sorted."""
        return sorted(path for path, _ in self.namespace.walk_files("/"))

    # -- reads -------------------------------------------------------------------

    def choose_read_replica(self, block_id: int, reader: int) -> int:
        """The replica a client on ``reader`` should fetch.

        Preference: node-local, then rack-local, then a uniformly random
        remote replica — mirroring HDFS's network-distance ordering.
        Within the rack-local and remote tiers, gray (slow) nodes are
        avoided when a healthy replica exists.
        """
        live_holders = self.blockmap.live_locations(
            block_id, self.live_nodes()
        )
        if not live_holders:
            raise DatanodeUnavailableError(
                f"block {block_id} has no live replica"
            )
        is_quarantined = self.integrity.is_quarantined
        locations = [
            n for n in live_holders if not is_quarantined(block_id, n)
        ]
        if not locations:
            raise ChecksumError(
                f"every live replica of block {block_id} is quarantined "
                f"as corrupt"
            )
        if reader in locations:
            return reader
        reader_rack = self.topology.rack_of[reader]
        rack_local = [
            node for node in locations
            if self.topology.rack_of[node] == reader_rack
        ]
        if rack_local:
            return self._rng.choice(sorted(self._prefer_healthy(rack_local)))
        return self._rng.choice(sorted(self._prefer_healthy(locations)))

    def _prefer_healthy(self, nodes: List[int]) -> List[int]:
        """Drop gray nodes from a candidate pool unless all are gray."""
        healthy = [n for n in nodes if not self.datanodes[n].degraded]
        return healthy or list(nodes)

    def replica_preference(
        self, block_id: int, reader: int,
        exclude: FrozenSet[int] = frozenset(),
    ) -> List[int]:
        """All *believed* replica holders of ``block_id``, best first.

        The failover order a client walks when reads fail: node-local,
        then rack-local, then remote, healthy before gray within each
        tier, ties broken by a deterministic per-(block, reader) hash.
        Hashing (rather than node id) matters under load: an id
        tie-break would aim every remote-rack reader at the same
        replica and manufacture a hotspot the replicas could absorb.
        Unlike :meth:`choose_read_replica` this does **not** intersect
        with the live set — the namenode's metadata can be stale (a
        node can die between heartbeats), and the client discovers
        staleness by trying.  Quarantined replicas *are* excluded:
        known-corrupt bytes are never worth a round trip.  ``exclude``
        removes sources that already failed.
        """
        reader_rack = self.topology.rack_of[reader]

        def rank(node: int) -> Tuple[int, int, int, int]:
            if node == reader:
                tier = 0
            elif self.topology.rack_of[node] == reader_rack:
                tier = 1
            else:
                tier = 2
            spread = ((block_id * 40503 + reader) * 2654435761
                      + node * 2246822519) & 0xFFFFFFFF
            return (tier, 1 if self.datanodes[node].degraded else 0,
                    spread, node)

        candidates = [
            node for node in self.blockmap.locations(block_id)
            if node not in exclude
            and not self.integrity.is_quarantined(block_id, node)
        ]
        return sorted(candidates, key=rank)

    def record_access(
        self, block_id: int, reader: int, source: Optional[int] = None,
    ) -> int:
        """Read a block: pick a replica, account it, notify listeners.

        ``source`` lets a client that already chose (and possibly failed
        over to) a replica record the read it actually performed instead
        of re-routing.  Returns the node that served the read.
        """
        if source is None:
            source = self.choose_read_replica(block_id, reader)
        meta = self.blockmap.meta(block_id)
        self.datanodes[source].read(block_id, meta.size)
        if self.datanodes[source].degraded:
            self.degraded_reads += 1
            if _REG.enabled:
                _DEGRADED_READS.inc()
        if _REG.enabled:
            if source == reader:
                locality = "node_local"
            elif self.topology.rack_of[source] == self.topology.rack_of[reader]:
                locality = "rack_local"
            else:
                locality = "remote"
            _READS.labels(locality=locality).inc()
        for listener in self.access_listeners:
            listener(block_id, self.now)
        for listener in self.read_listeners:
            listener(block_id, reader, source, self.now)
        return source

    def is_file_available(self, path: str) -> bool:
        """Whether every block of ``path`` has a live replica."""
        live = self.live_nodes()
        return all(
            self.blockmap.is_available(block_id, live)
            for block_id in self.file(path).block_ids
        )

    # -- replication management ---------------------------------------------------

    def set_replication(self, block_id: int, factor: int) -> None:
        """Change a block's target replication factor at run time.

        Raising the factor first *reclaims* lazily deletable replicas
        (free — the bytes are still on disk), then copies new replicas.
        Lowering it marks the excess replicas lazily deletable.
        """
        self._check_writable()
        meta = self.blockmap.meta(block_id)
        if factor < 1:
            raise DfsError("replication factor must be >= 1")
        if factor > self.topology.num_machines:
            raise DfsError("replication factor exceeds cluster size")
        meta.replication_factor = factor
        meta.rack_spread = min(meta.rack_spread, factor)
        # rack_spread feeds the placement snapshot's BlockSpec, so the
        # mutation must invalidate the block's cached spec.
        self.blockmap.mark_dirty(block_id)
        current = self._active_replica_count(block_id)
        if factor > current:
            deficit = factor - current
            deficit -= self._reclaim_lazy(block_id, deficit)
            for _ in range(deficit):
                if not self.replicate_block(block_id):
                    break
        elif factor < current:
            self._mark_excess_lazy(block_id, current - factor)

    def _active_replica_count(self, block_id: int) -> int:
        """Replicas not marked for lazy deletion or quarantined."""
        lazy_here = len(self._lazy.nodes_of(block_id))
        locations = self.blockmap.locations(block_id)
        quarantined_here = sum(
            1 for node in self.integrity.nodes_for(block_id)
            if node in locations
        )
        return (self.blockmap.replica_count(block_id)
                - lazy_here - quarantined_here)

    def _reclaim_lazy(self, block_id: int, want: int) -> int:
        """Un-mark up to ``want`` lazy replicas of ``block_id``; free."""
        reclaimed = 0
        for node in sorted(self._lazy.nodes_of(block_id)):
            if reclaimed >= want:
                break
            self._lazy.discard(block_id, node)
            reclaimed += 1
            self.reclaimed_replicas += 1
            if _REG.enabled:
                _RECLAIMED.inc()
        return reclaimed

    def _mark_excess_lazy(self, block_id: int, count: int) -> None:
        """Mark ``count`` replicas of ``block_id`` lazily deletable.

        Replicas on the most loaded nodes go first, and the block's rack
        spread (over non-lazy replicas) is preserved.
        """
        meta = self.blockmap.meta(block_id)
        active = [
            node for node in self.blockmap.locations(block_id)
            if (block_id, node) not in self._lazy
            and not self.integrity.is_quarantined(block_id, node)
        ]
        active.sort(key=self.node_load, reverse=True)
        # Active replicas per rack, kept current as replicas turn lazy.
        rack_of = self.topology.rack_of
        per_rack = Counter(rack_of[node] for node in active)
        for node in active:
            if count <= 0:
                return
            rack = rack_of[node]
            if len(per_rack) - (per_rack[rack] == 1) < meta.rack_spread:
                continue
            self._lazy.add(block_id, node)
            per_rack[rack] -= 1
            if not per_rack[rack]:
                del per_rack[rack]
            count -= 1

    def replicate_block(
        self, block_id: int, target: Optional[int] = None,
        on_done: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Copy one more replica of ``block_id`` from a live source.

        The target defaults to the least-loaded feasible node, preferring
        a new rack while the block is under its rack-spread target.
        Returns False when no source or target exists.  The copy runs as
        a repair chain of :meth:`_copy_replica`: a retry starts from a
        source not yet tried to a re-picked target, and once the retry
        policy is exhausted the block goes back onto the re-replication
        queue for the next check.
        """
        meta = self.blockmap.meta(block_id)
        # Copy-from-verified-source: a quarantined replica would clone
        # its corruption into the new copy.
        sources = sorted(self.verified_locations(block_id))
        if not sources:
            return False
        if target is None:
            target = self._pick_replication_target(block_id, meta)
            if target is None:
                return False
        if (block_id, target) in self._inflight:
            return False
        source = min(sources, key=self.transfers.active_transfers)
        src_queue = self.datanodes[source].service_queue
        if (src_queue is not None and src_queue.offer(
                self.now, Priority.RE_REPLICATION) is None):
            # The source's queue is saturated with higher-priority work
            # (client reads outrank re-replication); the next
            # replication check re-detects the deficit and retries.
            self.replications_shed += 1
            return False
        self._repl_inflight += 1
        self._copy_replica(self._repair, block_id, source, target, on_done,
                           set())
        return True

    def _copy_replica(
        self, kind: _CopyKind, block_id: int, source: int, target: int,
        on_done: Optional[Callable[[], None]], seen: Set[int],
        attempt: int = 1, waited: float = 0.0,
    ) -> None:
        """Copy one replica of ``block_id`` from ``source`` to ``target``.

        The one chain behind repair and migration; ``kind`` holds what
        differs, and ``docs/fault_tolerance.md`` ("Replica copies: one
        chain, two kinds") states the rules.  A copy ends in one
        outcome: ``failed`` when the transfer aborts (or the outcome a
        transport that verifies in flight reports), else the first of
        :meth:`_landing_outcome`.  Every outcome but ``ok`` counts in
        ``copies_discarded``; those in :data:`_RETRIED` back off and
        retry while :attr:`retry_policy` admits it, the others end the
        chain.
        """
        size = self.blockmap.meta(block_id).size
        self._inflight.add(block_id, target)
        span = None
        if _TRACER.enabled:
            # The transfer below links under this copy span in turn.
            span = _TRACER.begin(
                "dfs.replica_copy", sim_time=self.now,
                parent=kind.trace_parent(), kind=kind.label,
                block=block_id, source=source, target=target,
                attempt=attempt,
            )

        def settle(arrived: bool, refused: str = "failed") -> None:
            self._inflight.discard(block_id, target)
            outcome = (self._landing_outcome(block_id, source, target)
                       if arrived else refused)
            if outcome != "ok":
                self.copies_discarded += 1
                if _REG.enabled:
                    _COPIES_DISCARDED.labels(reason=outcome).inc()
            if span is not None:
                span.set(outcome=outcome)
                _TRACER.finish(span, end_sim=self.now)
            if outcome == "ok":
                self.datanodes[target].store(block_id, size)
                self.blockmap.add_location(block_id, target)
                kind.landed(block_id, source)
                if on_done is not None:
                    on_done()
                return
            if outcome not in _RETRIED:
                kind.end()
                if outcome == "source_corrupt":
                    # Quarantine the source; that requeues the repair
                    # from a verified replica.
                    self.report_corrupt_replica(
                        block_id, source, detector="transfer"
                    )
                return
            retrying = (block_id in self.blockmap
                        and self.retry_policy.admits(attempt, waited))
            kind.failed(block_id, source, target, seen, retrying)
            if not retrying:
                kind.end()
                return
            delay = self.retry_policy.delay(attempt, self._rng)
            self.transfer_retries += 1
            if _REG.enabled:
                _TRANSFER_RETRIES.inc()
            _LOG.info(
                "%s of block %d from %d to %d ended %s (attempt %d); "
                "retrying in %.1fs",
                kind.label, block_id, source, target, outcome, attempt, delay,
            )

            def again() -> None:
                pair = kind.repick(block_id, source, seen)
                if pair is None:
                    kind.end()
                else:
                    self._copy_replica(kind, block_id, *pair, on_done, seen,
                                       attempt + 1, waited + delay)

            self._defer(delay, again)

        self.transfers.transfer(
            size, source, target, lambda: settle(True),
            compression_ratio=self.movement_compression,
            on_failure=lambda refused="failed": settle(False, refused),
            kind=kind.label,
            parent=span.context if span is not None else None,
            block_id=block_id,
        )

    def _landing_outcome(self, block_id: int, source: int, target: int) -> str:
        """How a copy's bytes landed on ``target``: the first that holds
        of ``block_deleted``, ``duplicate``, ``target_died``,
        ``target_full`` (after evicting lazy replicas for room),
        ``source_corrupt``, else ``ok``."""
        if block_id not in self.blockmap:
            return "block_deleted"
        dn = self.datanodes[target]
        if dn.holds(block_id):
            return "duplicate"
        if not dn.alive:
            return "target_died"  # it died while the bytes were in flight
        try:
            self._ensure_space(target)
        except CapacityExceededError:
            return "target_full"
        src_dn = self.datanodes[source]
        if src_dn.holds(block_id) and not src_dn.verify_replica(block_id):
            # In-flight checksum verification caught a rotten source
            # (corrupted after it was chosen, or never yet detected):
            # the copy is discarded rather than cloning the damage.
            return "source_corrupt"
        return "ok"

    def _recovery_context(self) -> Optional[TraceContext]:
        """The open recovery episode's span context, if any."""
        span = self._recovery_span
        return span.context if span is not None else None

    def _repair_failed(
        self, block_id: int, source: int, target: int, tried: Set[int],
        retrying: bool,
    ) -> None:
        tried.add(source)
        if retrying:
            self._retry_pending[block_id] += 1
        else:
            self._requeue_replication(block_id)

    def _repair_repick(
        self, block_id: int, source: int, tried: Set[int],
    ) -> Optional[Tuple[int, int]]:
        """A fresh verified source and a re-picked target, or None."""
        self._retry_pending[block_id] -= 1
        if not self._retry_pending[block_id]:
            del self._retry_pending[block_id]
        if block_id not in self.blockmap:
            return None
        meta = self.blockmap.meta(block_id)
        sources = sorted(self.verified_locations(block_id))
        target = (self._pick_replication_target(block_id, meta)
                  if sources else None)
        if target is None:
            self._requeue_replication(block_id)
            return None
        fresh = [s for s in sources if s not in tried]
        source = min(fresh or sources, key=self.transfers.active_transfers)
        return source, target

    def _repair_landed(self, block_id: int, source: int) -> None:
        self.replications_completed += 1
        if _REG.enabled:
            _REPLICATIONS.inc()
        self._end_replication()
        self._note_recovery_progress()
        self._sweep_corrupt(block_id)

    def _requeue_replication(self, block_id: int) -> None:
        """A repair chain gave up; queue the block for the next check."""
        self.replications_requeued += 1
        if _REG.enabled:
            _REPL_REQUEUED.inc()
        _LOG.warning("replication of block %d abandoned; requeued", block_id)
        if block_id in self.blockmap:
            self._enqueue_replication(block_id)

    def _end_replication(self) -> None:
        """A replication chain finished; free its throttle slot."""
        self._repl_inflight = max(0, self._repl_inflight - 1)
        self._drain_replication_queue()

    def _defer(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` sim-seconds (immediately untimed)."""
        if self.sim is None:
            fn()
        else:
            self.sim.schedule(delay, fn)

    def _pick_replication_target(
        self, block_id: int, meta: BlockMeta
    ) -> Optional[int]:
        """Least-loaded node that can take a new replica of ``block_id``.

        Skips the block's holders and in-flight targets.  While the
        block is short of its rack spread a node on a new rack wins;
        without one, the least-loaded node anywhere.  Load ties go to
        the lowest node id.  Walks the target index from the front, so
        the cost is the number of nodes skipped, not the cluster size.
        """
        holders = self.blockmap.locations_view(block_id)
        inflight = self._inflight.nodes_of(block_id)
        rack_of = self.topology.rack_of
        holder_racks = {rack_of[n] for n in holders}
        short_of_spread = len(holder_racks) < meta.rack_spread
        datanodes = self.datanodes
        fallback: Optional[int] = None
        for node in self._targets.nodes():
            if (node in holders or node in inflight
                    or datanodes[node].holds(block_id)):
                continue
            if not short_of_spread or rack_of[node] not in holder_racks:
                return node
            if fallback is None:
                fallback = node
        return fallback

    def move_block(
        self, block_id: int, src: int, dst: int,
        on_done: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Migrate a replica from ``src`` to ``dst`` (make-before-break).

        The block is first copied to ``dst``; only after the copy lands is
        the ``src`` replica deleted, so availability never dips.  Rack
        spread is validated before starting.  The copy runs as a
        migration chain of :meth:`_copy_replica`: a failed copy *rolls
        back* for free (the source replica was never touched) and, while
        :attr:`retry_policy` admits it, is *re-targeted* at the best
        alternate destination after a backoff.
        """
        meta = self.blockmap.meta(block_id)
        locations = self.blockmap.locations_view(block_id)
        if src not in locations:
            raise DfsError(f"block {block_id} has no replica on {src}")
        if self.integrity.is_quarantined(block_id, src):
            # Migrating a corrupt replica would clone its corruption.
            return False
        if dst in locations or not self.can_store(dst, block_id):
            return False
        if (block_id, dst) in self._inflight:
            return False
        kept = self._racks_kept(block_id, src)
        if len(kept) + (self.topology.rack_of[dst] not in kept) \
                < meta.rack_spread:
            return False
        if (self.admission is not None
                and not self.admission.admit("migration", self.now)):
            # Token bucket empty (scaled by client pressure): migration
            # traffic yields; the caller may retry next period.
            self.migrations_deferred += 1
            return False
        src_queue = self.datanodes[src].service_queue
        if (src_queue is not None and src_queue.offer(
                self.now, Priority.MIGRATION) is None):
            self.migrations_shed += 1
            return False
        self._copy_replica(self._migration, block_id, src, dst, on_done,
                           set())
        return True

    def _racks_kept(self, block_id: int, src: int) -> Set[int]:
        """Racks still holding ``block_id`` once ``src`` drops it."""
        rack_of = self.topology.rack_of
        return {
            rack_of[n] for n in self.blockmap.locations_view(block_id)
            if n != src
        }

    def _migration_failed(
        self, block_id: int, src: int, dst: int, failed_dsts: Set[int],
        retrying: bool,
    ) -> None:
        # Make-before-break means rollback is free: the source replica
        # was never removed; only the copy is discarded.
        failed_dsts.add(dst)
        self.migration_rollbacks += 1
        if _REG.enabled:
            _MIGRATION_ROLLBACKS.inc()
        _LOG.warning(
            "migration of block %d from %d to %d rolled back",
            block_id, src, dst,
        )

    def _migration_repick(
        self, block_id: int, src: int, failed_dsts: Set[int],
    ) -> Optional[Tuple[int, int]]:
        """The same source and an alternate destination, or None."""
        if (block_id not in self.blockmap
                or src not in self.blockmap.locations_view(block_id)
                or not self.datanodes[src].alive):
            return None  # the move is moot; replication repair owns the block
        dst = self._pick_migration_target(
            block_id, self.blockmap.meta(block_id), src, failed_dsts
        )
        if dst is None:
            _LOG.warning(
                "migration of block %d off %d abandoned: "
                "no alternate destination", block_id, src,
            )
            return None
        self.migration_retargets += 1
        if _REG.enabled:
            _MIGRATION_RETARGETS.inc()
        return src, dst

    def _migration_landed(self, block_id: int, src: int) -> None:
        if src in self.blockmap.locations_view(block_id):
            self.blockmap.remove_location(block_id, src)
            self._lazy.discard(block_id, src)
            src_dn = self.datanodes[src]
            if src_dn.alive and src_dn.holds(block_id):
                src_dn.erase(block_id)
        self.moves_completed += 1
        if _REG.enabled:
            _MIGRATIONS.inc()

    def _pick_migration_target(
        self, block_id: int, meta: BlockMeta, src: int,
        exclude: Set[int],
    ) -> Optional[int]:
        """Least-loaded destination for moving ``block_id`` off ``src``.

        The same walk as :meth:`_pick_replication_target`, also skipping
        ``exclude`` and any node that would break the rack spread.
        """
        holders = self.blockmap.locations_view(block_id)
        inflight = self._inflight.nodes_of(block_id)
        datanodes = self.datanodes
        rack_of = self.topology.rack_of
        kept = self._racks_kept(block_id, src)
        for node in self._targets.nodes():
            if (node in holders or node in exclude or node in inflight
                    or datanodes[node].holds(block_id)):
                continue
            if len(kept) + (rack_of[node] not in kept) >= meta.rack_spread:
                return node
        return None

    def decommission_node(self, node: int) -> int:
        """Gracefully drain ``node``: migrate all its replicas elsewhere.

        The node stops accepting new replicas immediately; existing
        replicas are migrated make-before-break (lazily deletable ones
        are simply evicted).  Returns the number of migrations started;
        in timed mode call again until :meth:`is_decommissioned` reports
        completion, mirroring HDFS's iterative decommission monitor.
        """
        self.topology.check_machine(node)
        if node not in self._decommissioning:
            if _REG.enabled:
                _NODE_EVENTS.labels(event="decommission").inc()
            _LOG.info("decommissioning datanode %d", node)
        self._decommissioning.add(node)
        self._targets.patch(node)
        started = 0
        for block_id in list(self.blockmap.blocks_on(node)):
            if (block_id, node) in self._lazy:
                self._evict_lazy(block_id, node)
                continue
            meta = self.blockmap.meta(block_id)
            target = self._pick_replication_target(block_id, meta)
            if target is not None and self.move_block(block_id, node, target):
                started += 1
                continue
            # The global pick may break the rack spread (the draining
            # node can be its rack's sole holder); retry within-rack.
            candidates = [
                m for m in self.rack_targets(self.topology.rack_of[node])
                if self.can_store(m, block_id)
            ]
            for candidate in candidates:
                if self.move_block(block_id, node, candidate):
                    started += 1
                    break
        return started

    def is_decommissioned(self, node: int) -> bool:
        """Whether a draining node no longer stores any replica."""
        return (
            node in self._decommissioning
            and not self.blockmap.blocks_on(node)
        )

    def recommission_node(self, node: int) -> None:
        """Return a draining or drained node to normal service."""
        self._decommissioning.discard(node)
        self._targets.patch(node)

    def check_replication(self) -> int:
        """Queue and start repair for under-replicated / -spread blocks.

        Blocks are pushed onto a priority queue keyed by live replica
        count (most-under-replicated first — the blocks closest to data
        loss recover first) and the queue is drained up to
        :attr:`replication_throttle` concurrent transfers.  Returns the
        number of replication transfers started.  Called after failures
        and periodically by the heartbeat service.
        """
        live = self.live_nodes()
        under_replicated = list(self.blockmap.under_replicated(live))
        for block_id in under_replicated:
            self._enqueue_replication(block_id)
        # Blocks with quarantined replicas look fully replicated to the
        # block map; their verified deficit queues them here, and blocks
        # already repaired get their corrupt replicas purged.
        for block_id in sorted(self.integrity.open_blocks()):
            self._sweep_corrupt(block_id)
            if (block_id in self.blockmap
                    and self._replication_deficit(block_id, live) > 0):
                self._enqueue_replication(block_id)
        under_spread = list(self.blockmap.under_spread(live))
        for block_id in under_spread:
            meta = self.blockmap.meta(block_id)
            if self.blockmap.rack_spread(block_id) >= meta.rack_spread:
                continue
            self._enqueue_replication(block_id)
        if under_replicated and self._under_since is None:
            self._under_since = self.now
            if _TRACER.enabled:
                # The episode outlives this event; closed by whichever
                # callback restores full replication.
                self._recovery_span = _TRACER.begin(
                    "dfs.recovery", sim_time=self.now,
                    under_replicated=len(under_replicated),
                )
        elif not under_replicated and self._under_since is not None:
            self._close_recovery_episode()
        if _REG.enabled:
            _UNDER_REPLICATED.set(len(under_replicated))
            _UNDER_SPREAD.set(len(under_spread))
        started = self._drain_replication_queue()
        if started:
            _LOG.info(
                "replication check started=%d under_replicated=%d "
                "under_spread=%d queued=%d",
                started, len(under_replicated), len(under_spread),
                len(self._queued),
            )
        return started

    def _enqueue_replication(self, block_id: int) -> None:
        """Queue a block for repair, keyed by how exposed it is."""
        if block_id in self._queued or block_id not in self.blockmap:
            return
        live_count = len(self.verified_locations(block_id))
        self._queue_seq += 1
        heapq.heappush(
            self._repl_queue, (live_count, self._queue_seq, block_id)
        )
        self._queued.add(block_id)

    def _throttled(self) -> bool:
        """Whether the re-replication concurrency budget is spent."""
        return (
            self.replication_throttle is not None
            and self._repl_inflight >= self.replication_throttle
        )

    def _replication_deficit(self, block_id: int, live: Set[int]) -> int:
        """Copies still needed, counting in-flight transfers as made."""
        meta = self.blockmap.meta(block_id)
        # Only verified live replicas count towards the target: a
        # quarantined replica is physically present but must be
        # replaced, so it contributes to the deficit instead.
        live_count = sum(
            1 for n in self.blockmap.live_locations(block_id, live)
            if not self.integrity.is_quarantined(block_id, n)
        )
        inflight = (len(self._inflight.nodes_of(block_id))
                    + self._retry_pending.get(block_id, 0))
        missing = meta.replication_factor - live_count - inflight
        if (missing <= 0 and inflight == 0
                and self.blockmap.rack_spread(block_id) < meta.rack_spread):
            missing = 1
        return max(0, missing)

    def _drain_replication_queue(self) -> int:
        """Start queued repairs while the throttle has headroom."""
        if self._draining:
            return 0  # re-entrant call (a sync transfer completed)
        self._draining = True
        started = 0
        seen: Set[int] = set()
        try:
            while self._repl_queue and not self._throttled():
                if (self.admission is not None
                        and not self.admission.admit(
                            "replication", self.now)):
                    # Out of background tokens: stop draining; queued
                    # blocks keep their place for the next drain.
                    self.replications_deferred += 1
                    break
                _, _, block_id = heapq.heappop(self._repl_queue)
                self._queued.discard(block_id)
                if block_id in seen or block_id not in self.blockmap:
                    continue
                seen.add(block_id)
                missing = self._replication_deficit(
                    block_id, self.live_nodes()
                )
                for _ in range(missing):
                    if self._throttled():
                        break
                    if not self.replicate_block(block_id):
                        break
                    started += 1
                if (self._throttled()
                        and block_id in self.blockmap
                        and self._replication_deficit(
                            block_id, self.live_nodes()) > 0):
                    self._enqueue_replication(block_id)
        finally:
            self._draining = False
        if _REG.enabled:
            _REPL_QUEUE_DEPTH.set(len(self._queued))
        return started

    def _note_recovery_progress(self) -> None:
        """Close the under-replication episode once repair is done."""
        if self._under_since is None:
            return
        for _ in self.blockmap.under_replicated(self.live_nodes()):
            return  # still exposed
        self._close_recovery_episode()

    def _close_recovery_episode(self) -> None:
        if self._under_since is None:
            return
        elapsed = self.now - self._under_since
        self._under_since = None
        self.recovery_times.append(elapsed)
        if _REG.enabled:
            _RECOVERY_SECONDS.observe(elapsed)
        if self._recovery_span is not None:
            self._recovery_span.set(recovery_seconds=elapsed)
            _TRACER.finish(self._recovery_span, end_sim=self.now)
            self._recovery_span = None
        _LOG.info("cluster fully replicated again after %.1fs", elapsed)

    def audit(self) -> None:
        """Cross-check every piece of namenode state; raise on drift.

        Verifies that the block map, the datanode disks, the lazy set
        and the namespace agree, and that the lazy ledger, the in-flight
        index and the target index (with its cached rack sums, rack
        orders and rejecting set) equal their from-scratch
        recomputation.  Used by the fuzz tests after every random
        operation batch.
        """
        self._lazy.audit()
        self._inflight.audit()
        self._targets.audit()
        for block_id in self.blockmap.block_ids():
            meta = self.blockmap.meta(block_id)
            assert meta.file_id in self._files_by_id, (
                f"block {block_id} references unknown file {meta.file_id}"
            )
            for node in self.blockmap.locations(block_id):
                assert self.datanodes[node].holds(block_id), (
                    f"location drift: block {block_id} on node {node}"
                )
        for dn in self.datanodes:
            assert dn.used_blocks <= dn.capacity_blocks, (
                f"node {dn.node_id} over capacity"
            )
            if not dn.alive:
                continue
            for block_id in dn.blocks():
                if block_id in self.blockmap:
                    assert dn.node_id in self.blockmap.locations(block_id), (
                        f"unreported replica: block {block_id} on "
                        f"{dn.node_id}"
                    )
        for block_id, node in self._lazy:
            assert block_id in self.blockmap, (
                f"lazy entry for deleted block {block_id}"
            )
            assert node in self.blockmap.locations(block_id), (
                f"lazy entry without a location: {block_id}@{node}"
            )
            assert not self.integrity.is_quarantined(block_id, node), (
                f"quarantined replica marked lazy: {block_id}@{node}"
            )
        for block_id, node in self.integrity.quarantined():
            assert block_id in self.blockmap, (
                f"quarantine entry for deleted block {block_id}"
            )
            assert self.datanodes[node].holds(block_id), (
                f"quarantine entry without a replica: {block_id}@{node}"
            )
        seen_ids = set()
        for path, file_id in self.namespace.walk_files("/"):
            assert file_id in self._files_by_id, (
                f"namespace references unknown file id {file_id}"
            )
            assert self._files_by_id[file_id].path == path, (
                f"stale path for file {file_id}: "
                f"{self._files_by_id[file_id].path} != {path}"
            )
            seen_ids.add(file_id)
        assert seen_ids == set(self._files_by_id), (
            "files_by_id and namespace disagree"
        )
        for meta in self._files_by_id.values():
            for block_id in meta.block_ids:
                assert block_id in self.blockmap, (
                    f"file {meta.path} references unregistered block "
                    f"{block_id}"
                )

    def _write_replica(
        self, meta: BlockMeta, node: int, source: Optional[int]
    ) -> None:
        """Write one replica during file creation (pipeline hop)."""
        dn = self.datanodes[node]
        if not dn.alive:
            raise DatanodeUnavailableError(f"datanode {node} is down")
        self._ensure_space(node)
        dn.store(meta.block_id, meta.size)
        self.blockmap.add_location(meta.block_id, node)
        if source is not None:
            # The pipeline hop costs network time but the metadata commit
            # is synchronous (the paper's write path: the client blocks
            # until all replicas are written).
            self.transfers.transfer(meta.size, source, node, lambda: None)
