"""Datanode: per-machine block storage and liveness.

"Each datanode is responsible for storing the actual data blocks on each
machine, and handling incoming read and write requests.  Each datanode
also periodically sends a heartbeat message to the namenode to report
machine and block status."  The heartbeat protocol itself lives in
:mod:`repro.dfs.heartbeat`; this class is the storage container with
capacity accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Optional, Set

from repro.dfs.integrity import (
    ReplicaIntegrity,
    corruption_mask,
    replica_checksum,
)
from repro.errors import CapacityExceededError, ChecksumError, DfsError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overload.queueing import BoundedServiceQueue

__all__ = ["Datanode"]


class Datanode:
    """Storage state of one datanode."""

    def __init__(self, node_id: int, capacity_blocks: int) -> None:
        if capacity_blocks < 0:
            raise DfsError("capacity must be non-negative")
        self.node_id = node_id
        self.capacity_blocks = capacity_blocks
        self.alive = True
        self.last_heartbeat = 0.0
        # Gray-failure service-rate multiplier: 1.0 = healthy, > 1 means
        # the node still beats and serves but everything takes longer.
        self.slowdown = 1.0
        # Bounded service queue installed by the overload-protection
        # wiring; None means requests are served without queueing.
        self.service_queue: Optional["BoundedServiceQueue"] = None
        # Invoked whenever ``alive`` actually flips.  The namenode
        # installs its membership-epoch bump here so even "silent"
        # crashes (fault injection flipping liveness directly on the
        # datanode) invalidate membership-derived caches.
        self.on_liveness_change: Optional[Callable[[], None]] = None
        # Invoked with ``node_id`` whenever ``used_blocks`` changes
        # (store, erase, wipe); the namenode re-keys this node in its
        # replica-target index.
        self.on_usage_change: Optional[Callable[[int], None]] = None
        self._blocks: Set[int] = set()
        # Per-replica checksum state; every stored block has an entry.
        self._integrity: Dict[int, ReplicaIntegrity] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    @property
    def used_blocks(self) -> int:
        """Replicas currently stored."""
        return len(self._blocks)

    @property
    def free_blocks(self) -> int:
        """Remaining block slots."""
        return self.capacity_blocks - len(self._blocks)

    @property
    def degraded(self) -> bool:
        """Whether the node is in a gray state (slow but alive)."""
        return self.alive and self.slowdown > 1.0

    def queue_saturation(self, now: float) -> float:
        """Occupancy of the bounded service queue (0 without one)."""
        if self.service_queue is None:
            return 0.0
        return self.service_queue.saturation(now)

    @property
    def disk_utilization(self) -> float:
        """Fraction of capacity in use (what the HDFS balancer equalizes)."""
        if self.capacity_blocks == 0:
            return 1.0
        return len(self._blocks) / self.capacity_blocks

    def blocks(self) -> FrozenSet[int]:
        """Snapshot of stored block ids (the heartbeat block report)."""
        return frozenset(self._blocks)

    def holds(self, block_id: int) -> bool:
        """Whether this node stores a replica of ``block_id``."""
        return block_id in self._blocks

    def store(
        self,
        block_id: int,
        size: int = 0,
        generation: int = 0,
        checksum: Optional[int] = None,
    ) -> None:
        """Write a replica onto local disk.

        The stored checksum defaults to the correct one for
        ``(block_id, generation)``; passing ``checksum`` explicitly
        models a write that was already damaged in flight.
        """
        if not self.alive:
            raise DfsError(f"datanode {self.node_id} is down")
        if block_id in self._blocks:
            raise DfsError(
                f"datanode {self.node_id} already stores block {block_id}"
            )
        if len(self._blocks) >= self.capacity_blocks:
            raise CapacityExceededError(f"datanode {self.node_id} disk full")
        self._blocks.add(block_id)
        if checksum is None:
            checksum = replica_checksum(block_id, generation)
        self._integrity[block_id] = ReplicaIntegrity(
            generation=generation, checksum=checksum
        )
        self.bytes_written += size
        if self.on_usage_change is not None:
            self.on_usage_change(self.node_id)

    def erase(self, block_id: int) -> None:
        """Delete a replica from local disk."""
        if not self.alive:
            raise DfsError(f"datanode {self.node_id} is down")
        if block_id not in self._blocks:
            raise DfsError(
                f"datanode {self.node_id} does not store block {block_id}"
            )
        self._blocks.discard(block_id)
        self._integrity.pop(block_id, None)
        if self.on_usage_change is not None:
            self.on_usage_change(self.node_id)

    def read(self, block_id: int, size: int = 0, verify: bool = False) -> None:
        """Serve a read of a stored replica (accounting only).

        With ``verify=True`` the read checks the stored checksum and
        raises :class:`~repro.errors.ChecksumError` on a mismatch —
        corrupt bytes are never silently returned.
        """
        if not self.alive:
            raise DfsError(f"datanode {self.node_id} is down")
        if block_id not in self._blocks:
            raise DfsError(
                f"datanode {self.node_id} does not store block {block_id}"
            )
        if verify and not self.verify_replica(block_id):
            raise ChecksumError(
                f"datanode {self.node_id} replica of block {block_id} "
                f"failed checksum verification"
            )
        self.bytes_read += size

    # -- integrity ------------------------------------------------------------

    def integrity(self, block_id: int) -> ReplicaIntegrity:
        """The integrity record of a stored replica."""
        try:
            return self._integrity[block_id]
        except KeyError:
            raise DfsError(
                f"datanode {self.node_id} does not store block {block_id}"
            ) from None

    def verify_replica(self, block_id: int) -> bool:
        """Whether the stored checksum matches the expected one."""
        rec = self.integrity(block_id)
        return rec.checksum == replica_checksum(block_id, rec.generation)

    def corrupt_replica(
        self, block_id: int, at: float = 0.0, kind: str = "bit-rot"
    ) -> None:
        """Silently damage a stored replica in place.

        Disk rot does not care whether the node is serving, so this
        works on dead nodes too.  ``at`` stamps when the damage
        happened (sim time) for detection-latency accounting; the first
        corruption of a replica wins, repeated hits just rot further.
        """
        rec = self.integrity(block_id)
        # Absolute assignment, not an XOR of the current value: rotting
        # an already-rotten replica must keep it rotten, never restore
        # the expected checksum by accident.
        rec.checksum = (
            replica_checksum(block_id, rec.generation)
            ^ corruption_mask(kind)
        )
        if rec.corrupted_at is None:
            rec.corrupted_at = at
            rec.corruption = kind

    def torn_write(self, block_id: int, at: float = 0.0) -> None:
        """Model a torn write: a partially persisted replica update.

        The generation stamp advances (the write "happened") but the
        stored checksum stays at the old generation's value, so
        verification against the new generation fails.
        """
        rec = self.integrity(block_id)
        rec.generation += 1
        if rec.corrupted_at is None:
            rec.corrupted_at = at
            rec.corruption = "torn-write"

    def crash(self) -> None:
        """Simulate a failure: the node stops serving but keeps its disk.

        HDFS datanodes that come back after a failure re-report their
        blocks, so stored replicas survive a crash/recover cycle.
        """
        if self.alive:
            self.alive = False
            if self.on_liveness_change is not None:
                self.on_liveness_change()

    def recover(self) -> None:
        """Bring the node back online with its disk contents intact."""
        self.slowdown = 1.0
        if not self.alive:
            self.alive = True
            if self.on_liveness_change is not None:
                self.on_liveness_change()

    def wipe(self) -> None:
        """Permanently lose the disk contents (hardware replacement).

        Wiping only empties the disk — it deliberately does *not*
        change liveness.  A dead node stays dead until :meth:`recover`;
        resurrecting here would bring a node back while the namenode
        still maps blocks to it (use
        :meth:`repro.dfs.namenode.Namenode.wipe_node` to wipe, retract
        locations, and rejoin in one consistent step).
        """
        self._blocks.clear()
        self._integrity.clear()
        self.slowdown = 1.0
        if self.on_usage_change is not None:
            self.on_usage_change(self.node_id)
