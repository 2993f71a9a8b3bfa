"""Indexes behind the namenode's replica-target selection.

Re-replication, factor increases, migration retargets, decommission
drains and the placement of a new block all ask one question: which
node receives the next copy of this block?  Answering it by walking
every live node, and by filtering every lazy and in-flight pair, makes
one copy cost O(cluster).  The two
structures here keep the answer up to date instead:

* :class:`PairIndex` — a set of ``(block_id, node)`` pairs indexed by
  block and by node.  The namenode keeps two: the *lazy ledger*
  (replicas above their block's target, evictable when their node needs
  space) and the *in-flight index* (copies on their way to a target).
* :class:`TargetIndex` — the nodes able to accept a replica, kept in
  ``(load, node_id)`` order, together with the load vector that defines
  that order, and the per-rack views the placement policies read.

Neither structure knows why its contents change; the namenode tells
them (see the invalidation contract on :class:`TargetIndex`), and
:meth:`repro.dfs.namenode.Namenode.audit` recomputes both from scratch.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import DfsError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.topology import ClusterTopology
    from repro.dfs.datanode import Datanode

__all__ = ["PairIndex", "TargetIndex"]

_EMPTY: FrozenSet[int] = frozenset()


class PairIndex:
    """A set of ``(block_id, node)`` pairs, indexed by block and by node.

    ``on_node_change(node)`` fires when a node gains its first pair or
    loses its last one — the only change a per-node predicate such as
    "has a lazy replica to evict" can observe.
    """

    def __init__(
        self, on_node_change: Optional[Callable[[int], None]] = None
    ) -> None:
        self._by_block: Dict[int, Set[int]] = {}
        self._by_node: Dict[int, Set[int]] = {}
        self.on_node_change = on_node_change

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        block_id, node = pair
        nodes = self._by_block.get(block_id)
        return nodes is not None and node in nodes

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for block_id, nodes in self._by_block.items():
            for node in nodes:
                yield block_id, node

    def add(self, block_id: int, node: int) -> None:
        """Insert the pair (no-op when present)."""
        nodes = self._by_block.setdefault(block_id, set())
        if node in nodes:
            return
        nodes.add(node)
        blocks = self._by_node.get(node)
        if blocks is not None:
            blocks.add(block_id)
            return
        self._by_node[node] = {block_id}
        if self.on_node_change is not None:
            self.on_node_change(node)

    def discard(self, block_id: int, node: int) -> None:
        """Remove the pair (no-op when absent)."""
        nodes = self._by_block.get(block_id)
        if nodes is None or node not in nodes:
            return
        nodes.discard(node)
        if not nodes:
            del self._by_block[block_id]
        blocks = self._by_node[node]
        blocks.discard(block_id)
        if blocks:
            return
        del self._by_node[node]
        if self.on_node_change is not None:
            self.on_node_change(node)

    def nodes_of(self, block_id: int) -> AbstractSet[int]:
        """Nodes paired with ``block_id`` (read-only view)."""
        return self._by_block.get(block_id, _EMPTY)

    def blocks_on(self, node: int) -> AbstractSet[int]:
        """Blocks paired with ``node`` (read-only view)."""
        return self._by_node.get(node, _EMPTY)

    def pairs(self) -> Set[Tuple[int, int]]:
        """Snapshot of every pair."""
        return set(self)

    def audit(self) -> None:
        """Assert the two indexes describe the same pair set."""
        by_node = {
            (block_id, node)
            for node, blocks in self._by_node.items()
            for block_id in blocks
        }
        assert by_node == self.pairs(), "pair index: block/node views differ"
        assert all(self._by_block.values()) and all(self._by_node.values()), (
            "pair index: empty bucket kept"
        )




def _rekey(
    order: List[Tuple[float, int]],
    keys: Dict[int, Tuple[float, int]],
    node: int,
    new: Optional[Tuple[float, int]],
) -> None:
    """Move ``node`` to key ``new`` (``None``: out) in a sorted order."""
    old = keys.get(node)
    if new == old:
        return
    if old is not None:
        del order[bisect_left(order, old)]
        del keys[node]
    if new is not None:
        insort(order, new)
        keys[node] = new


class TargetIndex:
    """Nodes that can accept a replica, in ``(load, node_id)`` order.

    It owns the load metric placement decisions minimise:
    ``vector[node] + disk_weight * used_blocks`` once a vector is set,
    else ``float(used_blocks)``.  ``accepts(node)`` decides membership
    (for the namenode: alive, not decommissioning, and either a free
    slot or a lazy replica to evict).

    The placement policies read three per-rack views of the same state:
    :meth:`rack_load` (a rack's summed load), :meth:`rack_nodes` (a
    rack's accepting nodes in index order) and :meth:`rejecting` (the
    nodes ``accepts`` turns down).  Each is built on its first read and
    kept up to date until the next invalidation; while unbuilt, a patch
    only marks the node's rack sum for recomputation.  A rack sum is
    never patched by a delta: it is recomputed with the same expression
    a scan uses, so it stays bit-identical to the scan's float sum.

    Invalidation contract — the owner must call :meth:`invalidate` when
    any node's liveness flips, and :meth:`patch` whenever one node's
    disk usage, decommission mark or lazy-replica presence changes.
    :meth:`set_vector` invalidates the load-keyed structures by itself.
    An invalidated index rebuilds on its next read, so a burst of
    membership changes costs one sort.
    """

    def __init__(
        self,
        datanodes: Sequence["Datanode"],
        accepts: Callable[[int], bool],
        topology: "ClusterTopology",
    ) -> None:
        self.datanodes = datanodes
        self._accepts = accepts
        self._topology = topology
        self._vector: Optional[List[float]] = None
        self._disk_weight = 0.0
        self._order: List[Tuple[float, int]] = []
        self._keys: Dict[int, Tuple[float, int]] = {}
        self._stale = True
        # Per-rack views; None marks a rack sum to recompute or a rack
        # order not built yet.  _rack_keys holds the key of every node
        # in a built rack order.
        self._rack_sums: List[Optional[float]] = []
        self._rack_orders: List[Optional[List[Tuple[float, int]]]] = []
        self._rack_keys: Dict[int, Tuple[float, int]] = {}
        self._drop_rack_views()
        self._rejecting: Optional[Set[int]] = None

    def set_vector(
        self, vector: Optional[Sequence[float]], disk_weight: float = 0.0
    ) -> None:
        """Install a per-node load vector (``None`` = disk usage only)."""
        if vector is not None and len(vector) != len(self.datanodes):
            raise DfsError(
                f"load vector has {len(vector)} entries for "
                f"{len(self.datanodes)} datanodes"
            )
        self._vector = None if vector is None else [float(v) for v in vector]
        self._disk_weight = float(disk_weight)
        self._stale = True
        # Membership does not depend on load, so the rejecting set stays.
        self._drop_rack_views()

    def load(self, node: int) -> float:
        """The load of ``node`` under the current vector."""
        used = self.datanodes[node].used_blocks
        vector = self._vector
        if vector is None:
            return float(used)
        return vector[node] + self._disk_weight * used

    def invalidate(self) -> None:
        """Drop every order and view; the next read rebuilds it."""
        self._stale = True
        self._drop_rack_views()
        self._rejecting = None

    def _drop_rack_views(self) -> None:
        num_racks = self._topology.num_racks
        self._rack_sums = [None] * num_racks
        self._rack_orders = [None] * num_racks
        self._rack_keys = {}

    def patch(self, node: int) -> None:
        """Re-key one node after its load or membership changed."""
        rack = self._topology.rack_of[node]
        self._rack_sums[rack] = None
        rack_order = self._rack_orders[rack]
        rejecting = self._rejecting
        if self._stale and rack_order is None and rejecting is None:
            return
        accepting = self._accepts(node)
        key = (self.load(node), node) if accepting else None
        if not self._stale:
            _rekey(self._order, self._keys, node, key)
        if rack_order is not None:
            _rekey(rack_order, self._rack_keys, node, key)
        if rejecting is not None:
            if accepting:
                rejecting.discard(node)
            else:
                rejecting.add(node)

    def nodes(self) -> Iterator[int]:
        """Accepting nodes, least loaded first, ties to the lowest id.

        Callers must not mutate namenode state while iterating.
        """
        if self._stale:
            self._keys = {
                node: (self.load(node), node)
                for node in range(len(self.datanodes))
                if self._accepts(node)
            }
            self._order = sorted(self._keys.values())
            self._stale = False
        for _load, node in self._order:
            yield node

    def rack_load(self, rack: int) -> float:
        """Summed load of every machine in ``rack``, live or not."""
        total = self._rack_sums[rack]
        if total is None:
            total = self._scan_rack_load(rack)
            self._rack_sums[rack] = total
        return total

    def _scan_rack_load(self, rack: int) -> float:
        """:meth:`load` summed over ``rack``, evaluated inline.

        The same terms in the same member order as summing ``load(node)``,
        so the float sum is bit-identical to it.
        """
        datanodes = self.datanodes
        members = self._topology.machines_in_rack(rack)
        vector = self._vector
        if vector is None:
            return sum(float(datanodes[node].used_blocks) for node in members)
        weight = self._disk_weight
        return sum(
            vector[node] + weight * datanodes[node].used_blocks
            for node in members
        )

    def _scan_rack_order(self, rack: int) -> List[Tuple[float, int]]:
        accepts, load = self._accepts, self.load
        return sorted(
            (load(node), node)
            for node in self._topology.machines_in_rack(rack)
            if accepts(node)
        )

    def rack_nodes(self, rack: int) -> Iterator[int]:
        """The accepting nodes of ``rack``, in :meth:`nodes` order.

        Callers must not mutate namenode state while iterating.
        """
        order = self._rack_orders[rack]
        if order is None:
            order = self._scan_rack_order(rack)
            self._rack_orders[rack] = order
            self._rack_keys.update((key[1], key) for key in order)
        for _load, node in order:
            yield node

    def rejecting(self) -> AbstractSet[int]:
        """Nodes that cannot accept any replica (read-only view)."""
        if self._rejecting is None:
            accepts = self._accepts
            self._rejecting = {
                node for node in range(len(self.datanodes))
                if not accepts(node)
            }
        return self._rejecting

    def audit(self) -> None:
        """Assert every built order and view equals a fresh scan."""
        if not self._stale:
            expected = sorted(
                (self.load(node), node)
                for node in range(len(self.datanodes))
                if self._accepts(node)
            )
            assert self._order == expected, "target index: order drift"
            assert sorted(self._keys.values()) == expected, (
                "target index: key drift"
            )
        load = self.load
        for rack, total in enumerate(self._rack_sums):
            if total is not None:
                # Against load() itself, which the inline scan repeats.
                assert total == sum(
                    load(node) for node in self._topology.machines_in_rack(rack)
                ), f"target index: rack {rack} load drift"
        rack_keys: Dict[int, Tuple[float, int]] = {}
        for rack, order in enumerate(self._rack_orders):
            if order is None:
                continue
            expected = self._scan_rack_order(rack)
            assert order == expected, f"target index: rack {rack} order drift"
            rack_keys.update((key[1], key) for key in expected)
        assert self._rack_keys == rack_keys, "target index: rack key drift"
        if self._rejecting is not None:
            assert self._rejecting == {
                node for node in range(len(self.datanodes))
                if not self._accepts(node)
            }, "target index: rejecting-set drift"
