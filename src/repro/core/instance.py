"""Problem instances for the three block placement variants.

The paper studies three integer programs (Section III), all minimizing the
maximum popularity-weighted machine load ``lambda``:

* **BP-Node** — per-block replication factor ``k_i`` is given; the only
  fault-tolerance constraint is node-level (at most one replica of a block
  per machine) plus machine capacities.
* **BP-Rack** — additionally every block must be spread over at least
  ``rho_i`` racks.
* **BP-Replicate** — the solver also chooses ``k_i`` subject to
  ``k_i >= k_low_i`` and a global replication budget ``sum_i k_i <= beta``;
  each replica of block ``i`` carries popularity ``P_i / k_i``.

:class:`PlacementProblem` captures all three variants; the variant is
derived from which constraints are active (:meth:`PlacementProblem.variant`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence

from repro.cluster.topology import ClusterTopology
from repro.errors import InvalidProblemError, UnknownBlockError

__all__ = ["BlockSpec", "PlacementProblem", "ProblemVariant"]


class ProblemVariant(enum.Enum):
    """Which of the paper's three ILPs an instance corresponds to."""

    BP_NODE = "bp-node"
    BP_RACK = "bp-rack"
    BP_REPLICATE = "bp-replicate"


@dataclass(frozen=True)
class BlockSpec:
    """Static description of one file block.

    Parameters
    ----------
    block_id:
        Dense integer id of the block.
    popularity:
        Total popularity ``P_i``: the number of accesses to the block's
        content over the measurement period ``T``.
    replication_factor:
        Node-level replication factor ``k_i``.  For BP-Node and BP-Rack
        this is the fixed replica count; for BP-Replicate it is the
        *minimum* count ``k_low_i`` required for reliability.
    rack_spread:
        Rack-level fault-tolerance requirement ``rho_i``: the minimum
        number of distinct racks that must hold a replica.  ``1`` disables
        the rack constraint (BP-Node).
    """

    block_id: int
    popularity: float
    replication_factor: int = 3
    rack_spread: int = 1

    def __post_init__(self) -> None:
        if self.block_id < 0:
            raise InvalidProblemError("block_id must be non-negative")
        if self.popularity < 0:
            raise InvalidProblemError(
                f"block {self.block_id}: popularity must be non-negative"
            )
        if self.replication_factor < 1:
            raise InvalidProblemError(
                f"block {self.block_id}: replication_factor must be >= 1"
            )
        if not 1 <= self.rack_spread <= self.replication_factor:
            raise InvalidProblemError(
                f"block {self.block_id}: rack_spread must be in "
                f"[1, replication_factor] (got {self.rack_spread})"
            )

    @property
    def per_replica_popularity(self) -> float:
        """Popularity share ``p_i = P_i / k_i`` carried by each replica."""
        return self.popularity / self.replication_factor

    def with_replication_factor(self, factor: int) -> "BlockSpec":
        """Copy of this spec with a different node-level factor."""
        return BlockSpec(
            block_id=self.block_id,
            popularity=self.popularity,
            replication_factor=factor,
            rack_spread=min(self.rack_spread, factor),
        )


@dataclass(frozen=True)
class PlacementProblem:
    """One instance of the block placement problem.

    Parameters
    ----------
    topology:
        The cluster of machines and racks.
    blocks:
        The block specifications; ids must be unique.
    replication_budget:
        The total budget ``beta`` on ``sum_i k_i`` for BP-Replicate, or
        ``None`` when replication factors are fixed (BP-Node / BP-Rack).
    """

    topology: ClusterTopology
    blocks: tuple
    replication_budget: Optional[int] = None
    _by_id: Mapping[int, BlockSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        num_machines = self.topology.num_machines
        num_racks = self.topology.num_racks
        # One walk: a duplicate id anywhere outranks the first block whose
        # factor or spread does not fit, so that block is only remembered.
        by_id: Dict[int, BlockSpec] = {}
        misfit: Optional[BlockSpec] = None
        total_replicas = 0
        for spec in blocks:
            block_id = spec.block_id
            if block_id in by_id:
                raise InvalidProblemError(f"duplicate block id {block_id}")
            by_id[block_id] = spec
            factor = spec.replication_factor
            total_replicas += factor
            if misfit is None and (
                factor > num_machines or spec.rack_spread > num_racks
            ):
                misfit = spec
        object.__setattr__(self, "_by_id", by_id)
        if misfit is not None:
            if misfit.replication_factor > num_machines:
                raise InvalidProblemError(
                    f"block {misfit.block_id}: replication factor "
                    f"{misfit.replication_factor} exceeds machine count "
                    f"{num_machines}"
                )
            raise InvalidProblemError(
                f"block {misfit.block_id}: rack spread {misfit.rack_spread} "
                f"exceeds rack count {num_racks}"
            )
        if self.replication_budget is not None:
            if self.replication_budget < total_replicas:
                raise InvalidProblemError(
                    f"replication budget {self.replication_budget} is below the "
                    f"minimum replica count {total_replicas}"
                )
        if total_replicas > self.topology.total_capacity():
            raise InvalidProblemError(
                f"total replicas {total_replicas} exceed cluster capacity "
                f"{self.topology.total_capacity()}"
            )

    # -- accessors ---------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Number of distinct blocks ``|B|``."""
        return len(self.blocks)

    def block(self, block_id: int) -> BlockSpec:
        """Look up a block spec by id."""
        try:
            return self._by_id[block_id]
        except KeyError:
            raise UnknownBlockError(f"unknown block id {block_id}") from None

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._by_id

    def __iter__(self) -> Iterator[BlockSpec]:
        return iter(self.blocks)

    def block_ids(self) -> Iterable[int]:
        """All block ids in instance order."""
        return (spec.block_id for spec in self.blocks)

    def variant(self) -> ProblemVariant:
        """Classify the instance into one of the paper's three ILPs."""
        if self.replication_budget is not None:
            return ProblemVariant.BP_REPLICATE
        if any(spec.rack_spread > 1 for spec in self.blocks):
            return ProblemVariant.BP_RACK
        return ProblemVariant.BP_NODE

    def total_popularity(self) -> float:
        """Sum of total block popularities ``sum_i P_i``.

        This is invariant under replication: replicas share their block's
        popularity, so the cluster-wide load mass never changes.
        """
        return sum(spec.popularity for spec in self.blocks)

    def max_per_replica_popularity(self) -> float:
        """``p_max``: the largest per-replica popularity in the instance."""
        if not self.blocks:
            return 0.0
        return max(spec.per_replica_popularity for spec in self.blocks)

    def minimum_total_replicas(self) -> int:
        """Sum of the (minimum) replication factors over all blocks."""
        return sum(spec.replication_factor for spec in self.blocks)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_popularities(
        cls,
        topology: ClusterTopology,
        popularities: Sequence[float],
        replication_factor: int = 3,
        rack_spread: int = 1,
        replication_budget: Optional[int] = None,
    ) -> "PlacementProblem":
        """Build an instance with uniform ``k_i`` and ``rho_i`` settings."""
        blocks = tuple(
            BlockSpec(
                block_id=i,
                popularity=float(p),
                replication_factor=replication_factor,
                rack_spread=rack_spread,
            )
            for i, p in enumerate(popularities)
        )
        return cls(
            topology=topology, blocks=blocks, replication_budget=replication_budget
        )
