"""Pluggable block placement policies for the namenode.

Two policies ship with the simulator:

* :class:`DefaultHdfsPolicy` — stock HDFS behaviour per the paper's
  footnote 1: a task-written block keeps its first replica local and
  places the remaining replicas on random machines in one different
  rack; other blocks land on random machines across the required number
  of racks.
* :class:`LoadAwarePolicy` — Aurora's block placement controller
  (Algorithm 4): first replica writer-local or on the least-loaded
  machine of the least-loaded rack; one replica per next least-loaded
  rack up to ``rho_i``; remaining replicas on the least-loaded machines
  within the chosen racks.

Policies see the namenode through the narrow :class:`PlacementContext`
protocol so they can be unit-tested against fakes.  The namenode serves
the per-rack questions from its target index
(:class:`repro.dfs.targets.TargetIndex`), so placing a block costs the
nodes it inspects, not one load or capacity probe per machine.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import (
    AbstractSet,
    Iterable,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.dfs.block import BlockMeta
from repro.errors import CapacityExceededError

__all__ = ["PlacementContext", "BlockPlacementPolicy", "DefaultHdfsPolicy",
           "LoadAwarePolicy"]


@runtime_checkable
class PlacementContext(Protocol):
    """What a placement policy may ask of the namenode."""

    @property
    def topology(self):  # -> ClusterTopology
        """The cluster topology."""
        ...  # pragma: no cover - protocol definition

    def can_store(self, node: int, block_id: int) -> bool:
        """Whether ``node`` is live and can accept a replica of the block."""
        ...  # pragma: no cover - protocol definition

    def node_load(self, node: int) -> float:
        """The load metric the load-aware policy minimizes."""
        ...  # pragma: no cover - protocol definition

    def rack_load(self, rack: int) -> float:
        """``sum(node_load(n) for n in topology.machines_in_rack(rack))``,
        bit for bit."""
        ...  # pragma: no cover - protocol definition

    def rack_targets(self, rack: int) -> Iterable[int]:
        """Nodes of ``rack`` that could store some block, in
        ``(node_load, node_id)`` order; ``can_store`` then fails only
        for a node that holds the block."""
        ...  # pragma: no cover - protocol definition

    def blocked_nodes(self, block_id: int) -> AbstractSet[int]:
        """The nodes where ``can_store(node, block_id)`` is false."""
        ...  # pragma: no cover - protocol definition


@runtime_checkable
class BlockPlacementPolicy(Protocol):
    """Chooses replica targets for a new block."""

    def choose_targets(
        self,
        context: PlacementContext,
        meta: BlockMeta,
        writer: Optional[int] = None,
    ) -> List[int]:
        """Target datanodes for all ``replication_factor`` replicas."""
        ...  # pragma: no cover - protocol definition


class DefaultHdfsPolicy:
    """Stock HDFS random placement (footnote 1 of the paper).

    For ``k`` replicas over ``rho`` racks: the first replica is
    writer-local when possible (else a random feasible machine); the
    remaining racks are drawn uniformly at random; replicas fill the
    chosen racks randomly, each rack receiving at least one.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng or random.Random(0)

    def choose_targets(
        self,
        context: PlacementContext,
        meta: BlockMeta,
        writer: Optional[int] = None,
    ) -> List[int]:
        """Random targets honouring the rack-spread requirement.

        Every draw picks from the candidate list a scan with
        ``can_store`` would build, in the same order, so the RNG walks
        the same sequence; the lists come from
        ``context.blocked_nodes`` instead of one probe per machine.
        """
        topo = context.topology
        block_id = meta.block_id
        blocked = context.blocked_nodes(block_id)
        # Racks with no node left to take the block.
        blocked_in_rack = Counter(topo.rack_of[node] for node in blocked)
        chosen: List[int] = []
        chosen_racks: List[int] = []

        def feasible_in_rack(rack: int) -> List[int]:
            return [
                node
                for node in topo.machines_in_rack(rack)
                if node not in chosen and node not in blocked
            ]

        def has_room(rack: int) -> bool:
            # Only for racks outside chosen_racks, which hold no chosen
            # node: every chosen node's rack joins chosen_racks.
            return blocked_in_rack[rack] < len(topo.machines_in_rack(rack))

        first: Optional[int] = None
        if writer is not None and context.can_store(writer, block_id):
            first = writer
        if first is None:
            candidates = (
                [node for node in topo.machines if node not in blocked]
                if blocked else topo.machines
            )
            if not candidates:
                raise CapacityExceededError(
                    f"no datanode can host block {block_id}"
                )
            first = self._rng.choice(candidates)
        chosen.append(first)
        chosen_racks.append(topo.rack_of[first])

        # Draw the remaining racks uniformly among those with space.
        while len(chosen_racks) < meta.rack_spread:
            options = [
                rack for rack in topo.racks
                if rack not in chosen_racks and has_room(rack)
            ]
            if not options:
                raise CapacityExceededError(
                    f"cannot spread block {block_id} over "
                    f"{meta.rack_spread} racks"
                )
            rack = self._rng.choice(options)
            chosen.append(self._rng.choice(feasible_in_rack(rack)))
            chosen_racks.append(rack)

        # Fill the rest randomly inside the chosen racks (HDFS keeps all
        # replicas within the selected racks), spilling over if full.
        while len(chosen) < meta.replication_factor:
            pool = [
                node
                for rack in chosen_racks
                for node in feasible_in_rack(rack)
            ]
            if not pool:
                pool = [
                    node for node in topo.machines
                    if node not in chosen and node not in blocked
                ]
            if not pool:
                raise CapacityExceededError(
                    f"cluster cannot host {meta.replication_factor} replicas "
                    f"of block {block_id}"
                )
            pick = self._rng.choice(pool)
            chosen.append(pick)
            if topo.rack_of[pick] not in chosen_racks:
                chosen_racks.append(topo.rack_of[pick])
        return chosen


class LoadAwarePolicy:
    """Aurora's greedy initial placement (Algorithm 4).

    Identical structure to :func:`repro.core.initial_placement.place_block`
    but driven by the namenode's live load metric instead of a
    :class:`~repro.core.placement.PlacementState`.
    """

    def choose_targets(
        self,
        context: PlacementContext,
        meta: BlockMeta,
        writer: Optional[int] = None,
    ) -> List[int]:
        """Greedy lowest-load targets honouring the rack spread."""
        topo = context.topology
        block_id = meta.block_id
        chosen: List[int] = []
        chosen_racks: List[int] = []

        def best_in_rack(rack: int) -> Optional[int]:
            # The rack's order is by (load, id): its first free node is
            # the scan's min by load, ties to the lowest id.
            for node in context.rack_targets(rack):
                if node not in chosen and context.can_store(node, block_id):
                    return node
            return None

        def racks_by_load(exclude: List[int]) -> List[int]:
            racks = [rack for rack in topo.racks if rack not in exclude]
            racks.sort(key=context.rack_load)
            return racks

        first: Optional[int] = None
        if writer is not None and context.can_store(writer, block_id):
            first = writer
        if first is None:
            for rack in racks_by_load([]):
                first = best_in_rack(rack)
                if first is not None:
                    break
        if first is None:
            raise CapacityExceededError(
                f"no datanode can host block {block_id}"
            )
        chosen.append(first)
        chosen_racks.append(topo.rack_of[first])

        while len(chosen_racks) < meta.rack_spread:
            placed = False
            for rack in racks_by_load(chosen_racks):
                node = best_in_rack(rack)
                if node is None:
                    continue
                chosen.append(node)
                chosen_racks.append(rack)
                placed = True
                break
            if not placed:
                raise CapacityExceededError(
                    f"cannot spread block {block_id} over "
                    f"{meta.rack_spread} racks"
                )

        while len(chosen) < meta.replication_factor:
            candidates = [
                node for rack in chosen_racks
                for node in [best_in_rack(rack)] if node is not None
            ]
            if not candidates:
                for rack in racks_by_load(chosen_racks):
                    node = best_in_rack(rack)
                    if node is not None:
                        candidates.append(node)
                        chosen_racks.append(rack)
                        break
            if not candidates:
                raise CapacityExceededError(
                    f"cluster cannot host {meta.replication_factor} replicas "
                    f"of block {block_id}"
                )
            chosen.append(min(candidates, key=context.node_load))
        return chosen
