"""The namenode's block map: block -> replica locations.

"The namenode maintains the metadata of the file system, which stores the
directory structure, file descriptions and a block map which identifies
the location of each block replica in the cluster."  Aurora additionally
extends the block map to record per-block popularity; here that extension
lives in :mod:`repro.monitor` and the block map stays a pure location
index with rack-spread queries.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

from repro.cluster.topology import ClusterTopology
from repro.dfs.block import BlockMeta
from repro.errors import BlockNotFoundError, DfsError

__all__ = ["BlockMap"]


class BlockMap:
    """Forward and reverse index of block replica locations."""

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self._meta: Dict[int, BlockMeta] = {}
        self._locations: Dict[int, Set[int]] = {}
        self._stored: List[Set[int]] = [set() for _ in topology.machines]
        # Blocks whose placement-affecting state (locations, existence,
        # replication target) changed since the last drain_dirty().
        # Consumed by the incremental placement-snapshot cache.
        self._dirty: Set[int] = set()

    # -- registration -------------------------------------------------------

    def register(self, meta: BlockMeta) -> None:
        """Add a new block to the namespace (no replicas yet)."""
        if meta.block_id in self._meta:
            raise DfsError(f"block {meta.block_id} already registered")
        self._meta[meta.block_id] = meta
        self._locations[meta.block_id] = set()
        self._dirty.add(meta.block_id)

    def unregister(self, block_id: int) -> None:
        """Remove a block and all its location records (file deletion)."""
        self.meta(block_id)  # existence check
        for node in self._locations.pop(block_id):
            self._stored[node].discard(block_id)
        del self._meta[block_id]
        self._dirty.add(block_id)

    def meta(self, block_id: int) -> BlockMeta:
        """The block's metadata record."""
        try:
            return self._meta[block_id]
        except KeyError:
            raise BlockNotFoundError(f"unknown block {block_id}") from None

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._meta

    def block_ids(self) -> Iterable[int]:
        """All registered block ids."""
        return self._meta.keys()

    @property
    def num_blocks(self) -> int:
        """Number of registered blocks."""
        return len(self._meta)

    # -- locations ------------------------------------------------------------

    def add_location(self, block_id: int, node: int) -> None:
        """Record a replica of ``block_id`` on datanode ``node``."""
        self.topology.check_machine(node)
        locations = self._locations_for(block_id)
        if node in locations:
            raise DfsError(f"block {block_id} already has a replica on {node}")
        locations.add(node)
        self._stored[node].add(block_id)
        self._dirty.add(block_id)

    def remove_location(self, block_id: int, node: int) -> None:
        """Delete the replica record of ``block_id`` on ``node``."""
        locations = self._locations_for(block_id)
        if node not in locations:
            raise DfsError(f"block {block_id} has no replica on node {node}")
        locations.discard(node)
        self._stored[node].discard(block_id)
        self._dirty.add(block_id)

    def mark_dirty(self, block_id: int) -> None:
        """Flag a placement-affecting change made outside the block map.

        The namenode calls this when it mutates metadata the snapshot
        cache depends on (e.g. a block's replication target).
        """
        self._dirty.add(block_id)

    def drain_dirty(self) -> Set[int]:
        """Return and clear the set of blocks dirtied since the last drain."""
        dirty, self._dirty = self._dirty, set()
        return dirty

    def locations(self, block_id: int) -> FrozenSet[int]:
        """Datanodes currently recorded as holding ``block_id``."""
        return frozenset(self._locations_for(block_id))

    def locations_view(self, block_id: int) -> Set[int]:
        """The live location set of ``block_id`` — no defensive copy.

        Callers must treat the result as read-only and must not hold it
        across block-map mutations; use :meth:`locations` for a stable
        snapshot.
        """
        return self._locations_for(block_id)

    def live_locations(self, block_id: int, live: Set[int]) -> FrozenSet[int]:
        """Locations restricted to the given set of live datanodes."""
        return frozenset(self._locations_for(block_id) & live)

    def blocks_on(self, node: int) -> FrozenSet[int]:
        """Blocks with a replica on datanode ``node``."""
        self.topology.check_machine(node)
        return frozenset(self._stored[node])

    def replica_count(self, block_id: int) -> int:
        """Current replica count of ``block_id``."""
        return len(self._locations_for(block_id))

    def rack_spread(self, block_id: int) -> int:
        """Distinct racks currently holding a replica of ``block_id``."""
        rack_of = self.topology.rack_of
        return len({rack_of[node] for node in self._locations_for(block_id)})

    def used_capacity(self, node: int) -> int:
        """Replicas stored on ``node``."""
        self.topology.check_machine(node)
        return len(self._stored[node])

    # -- health queries -------------------------------------------------------

    def under_replicated(self, live: Set[int]) -> List[int]:
        """Blocks whose live replica count is below their target factor."""
        result = []
        for block_id, meta in self._meta.items():
            if len(self._locations[block_id] & live) < meta.replication_factor:
                result.append(block_id)
        return result

    def under_spread(self, live: Set[int]) -> List[int]:
        """Blocks whose live rack spread is below their target."""
        rack_of = self.topology.rack_of
        result = []
        for block_id, meta in self._meta.items():
            live_racks = {
                rack_of[node] for node in self._locations[block_id] & live
            }
            if len(live_racks) < meta.rack_spread:
                result.append(block_id)
        return result

    def over_replicated(self) -> List[int]:
        """Blocks with more replicas than their target factor."""
        return [
            block_id
            for block_id, meta in self._meta.items()
            if len(self._locations[block_id]) > meta.replication_factor
        ]

    def is_available(self, block_id: int, live: Set[int]) -> bool:
        """Whether at least one live replica of ``block_id`` exists."""
        return bool(self._locations_for(block_id) & live)

    def _locations_for(self, block_id: int) -> Set[int]:
        try:
            return self._locations[block_id]
        except KeyError:
            raise BlockNotFoundError(f"unknown block {block_id}") from None
