"""Indexes behind the namenode's replica-target selection.

Re-replication, factor increases, migration retargets and decommission
drains all ask one question: which node receives the next copy of this
block?  Answering it by walking every live node, and by filtering every
lazy and in-flight pair, makes one copy cost O(cluster).  The two
structures here keep the answer up to date instead:

* :class:`PairIndex` — a set of ``(block_id, node)`` pairs indexed by
  block and by node.  The namenode keeps two: the *lazy ledger*
  (replicas above their block's target, evictable when their node needs
  space) and the *in-flight index* (copies on their way to a target).
* :class:`TargetIndex` — the nodes able to accept a replica, kept in
  ``(load, node_id)`` order, together with the load vector that defines
  that order.

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


class TargetIndex:
    """Nodes that can accept a replica, in ``(load, node_id)`` order.

    It owns the load metric placement decisions minimise:
    ``vector[node] + disk_weight * used_blocks`` once a vector is set,
    else ``float(used_blocks)``.  ``accepts(node)`` decides membership
    (for the namenode: alive, not decommissioning, and either a free
    slot or a lazy replica to evict).

    Invalidation contract — the owner must call :meth:`invalidate` when
    any node's liveness flips, and :meth:`patch` whenever one node's
    disk usage, decommission mark or lazy-replica presence changes.
    :meth:`set_vector` invalidates by itself.  An invalidated index
    rebuilds on its next read, so a burst of membership changes costs
    one sort.
    """

    def __init__(
        self, datanodes: Sequence["Datanode"], accepts: Callable[[int], bool]
    ) -> None:
        self.datanodes = datanodes
        self._accepts = accepts
        self._vector: Optional[List[float]] = None
        self._disk_weight = 0.0
        self._order: List[Tuple[float, int]] = []
        self._keys: Dict[int, Tuple[float, int]] = {}
        self._stale = True

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

    def load(self, node: int) -> float:
        """The load of ``node`` under the current vector."""
        used = self.datanodes[node].used_blocks
        vector = self._vector
        if vector is None:
            return float(used)
        return vector[node] + self._disk_weight * used

    def invalidate(self) -> None:
        """Drop the order; the next read rebuilds it."""
        self._stale = True

    def patch(self, node: int) -> None:
        """Re-key one node after its load or membership changed."""
        if self._stale:
            return
        old = self._keys.get(node)
        new = (self.load(node), node) if self._accepts(node) else None
        if new == old:
            return
        order = self._order
        if old is not None:
            del order[bisect_left(order, old)]
            del self._keys[node]
        if new is not None:
            insort(order, new)
            self._keys[node] = new

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

    def audit(self) -> None:
        """Assert a live order equals one recomputed from scratch."""
        if self._stale:
            return
        expected = sorted(
            (self.load(node), node)
            for node in range(len(self.datanodes))
            if self._accepts(node)
        )
        assert self._order == expected, "target index: order drift"
        assert sorted(self._keys.values()) == expected, (
            "target index: key drift"
        )
