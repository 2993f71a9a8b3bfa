"""Mutable placement state with incremental load bookkeeping.

:class:`PlacementState` tracks, for one :class:`~repro.core.instance.PlacementProblem`,
which machines hold a replica of each block, and maintains derived
quantities incrementally:

* per-machine popularity load ``L_m = sum_i p_i x_im`` where the share is
  ``p_i = P_i / (current replica count of i)`` — the paper's model in which
  a block's popularity is divided evenly among its replicas;
* per-rack total load;
* per-block rack spread (number of distinct racks holding a replica);
* per-machine used capacity.

All local-search operations of the paper (``Move``, ``Swap``, ``RackMove``,
``RackSwap``) and the replication-factor changes of Algorithm 5 reduce to
:meth:`add_replica`, :meth:`remove_replica`, :meth:`move` and :meth:`swap`.

The state also maintains the search indices the local search
(:mod:`repro.core.local_search`) reads, so it runs incrementally instead
of rescanning the cluster in Python per iteration:

* **Load extremes** — the global extremes (:meth:`cost`,
  :meth:`argmax_machine`, ...) are ``O(M)`` numpy reductions over the
  dense load vector.  The per-rack extremes of Algorithm 2 are cached in
  four ``(R,)`` columns served by :meth:`rack_extremes`: a load change
  marks its rack dirty, and the next query rescans only dirty racks.
  Ties go to the lowest machine id, the first-index convention of
  ``argmax``/``argmin`` that the reference solver's scans use, so both
  solvers pick the same machine when loads tie.
* **Share indices** — one sorted ``(share, block_id)`` list per machine,
  delta-updated on every mutation (including the share changes a
  replication-factor change inflicts on *all* holders of a block).
* **Machine epochs** — an ``(M,)`` int64 column, bumped for a machine
  whenever anything that could affect a local-search probe touching it
  changes: its load, its block set, or the share/rack-spread of any
  block it holds (hence every mutation bumps *all* holders of the
  touched block).  The search engine keys its exhausted-pair memos on
  these epochs and compares whole epoch vectors at once.

Holder sets stay sparse: a block has a handful of replicas, and a dense
``M x B`` incidence matrix would not fit at 10k machines.

Loads are floats updated incrementally; :meth:`recompute` rebuilds them
from scratch and runs automatically every ``_RECOMPUTE_INTERVAL`` mutations
to bound floating-point drift.  :meth:`audit` verifies every invariant and
is used heavily by the test suite.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.core.instance import PlacementProblem
from repro.errors import (
    CapacityExceededError,
    InfeasibleOperationError,
    ReplicaConstraintError,
    UnknownBlockError,
)

__all__ = ["PlacementState"]

_RECOMPUTE_INTERVAL = 65536


class PlacementState:
    """Assignment of block replicas to machines, with incremental loads."""

    def __init__(self, problem: PlacementProblem) -> None:
        self.problem = problem
        topo = problem.topology
        self._machines_of: Dict[int, Set[int]] = {
            spec.block_id: set() for spec in problem
        }
        self._blocks_on: List[Set[int]] = [set() for _ in topo.machines]
        self._loads = np.zeros(topo.num_machines, dtype=np.float64)
        self._rack_loads = np.zeros(topo.num_racks, dtype=np.float64)
        self._rack_holders: Dict[int, Dict[int, int]] = {
            spec.block_id: {} for spec in problem
        }
        self._mutations = 0
        # Search indices (see module docstring).
        self._share_index: List[List[Tuple[float, int]]] = [
            [] for _ in topo.machines
        ]
        self._machine_epoch = np.zeros(topo.num_machines, dtype=np.int64)
        self._rack_members: List[np.ndarray] = [
            np.asarray(topo.machines_in_rack(rack), dtype=np.intp)
            for rack in topo.racks
        ]
        self._ext_high = np.zeros(topo.num_racks, dtype=np.int64)
        self._ext_low = np.zeros(topo.num_racks, dtype=np.int64)
        self._ext_hot = np.zeros(topo.num_racks, dtype=np.float64)
        self._ext_cold = np.zeros(topo.num_racks, dtype=np.float64)
        self._ext_dirty: Set[int] = set(topo.racks)

    # -- basic queries -------------------------------------------------------

    @property
    def topology(self):
        """The cluster topology of the underlying problem."""
        return self.problem.topology

    def machines_of(self, block_id: int) -> FrozenSet[int]:
        """Machines currently holding a replica of ``block_id``."""
        return frozenset(self._machines_for(block_id))

    def blocks_on(self, machine: int) -> FrozenSet[int]:
        """Blocks with a replica on ``machine`` (immutable copy).

        Allocates a fresh ``frozenset`` per call; hot paths that only
        need membership tests or iteration should use
        :meth:`blocks_on_view` instead.
        """
        self.topology.check_machine(machine)
        return frozenset(self._blocks_on[machine])

    def blocks_on_view(self, machine: int) -> Set[int]:
        """Zero-copy view of the blocks on ``machine``.

        Returns the internal set — callers must treat it as read-only
        and must not hold it across mutations they expect snapshot
        semantics from.  Use :meth:`blocks_on` for an immutable copy.
        """
        self.topology.check_machine(machine)
        return self._blocks_on[machine]

    def share_index(self, machine: int) -> Sequence[Tuple[float, int]]:
        """The machine's persistent sorted ``(share, block_id)`` index.

        Kept exact across mutations by delta updates; shares stored are
        bit-identical to :meth:`share` of each resident block.  Returns
        the internal list — read-only for callers.
        """
        self.topology.check_machine(machine)
        return self._share_index[machine]

    def machine_epoch(self, machine: int) -> int:
        """Change epoch of ``machine`` (see module docstring).

        Monotonically increasing; unchanged iff no mutation since the
        last reading could alter the outcome of a local-search probe
        with ``machine`` as an endpoint.
        """
        return int(self._machine_epoch[machine])

    def has_replica(self, block_id: int, machine: int) -> bool:
        """Whether ``machine`` holds a replica of ``block_id``."""
        return machine in self._machines_for(block_id)

    def replica_count(self, block_id: int) -> int:
        """Current number of replicas of ``block_id``."""
        return len(self._machines_for(block_id))

    def rack_spread(self, block_id: int) -> int:
        """Number of distinct racks holding a replica of ``block_id``."""
        return len(self._rack_holders_for(block_id))

    def share(self, block_id: int) -> float:
        """Per-replica popularity ``P_i / count`` with the current count.

        Zero when the block currently has no replicas.
        """
        count = self.replica_count(block_id)
        if count == 0:
            return 0.0
        return self.problem.block(block_id).popularity / count

    def used_capacity(self, machine: int) -> int:
        """Number of replicas currently stored on ``machine``."""
        self.topology.check_machine(machine)
        return len(self._blocks_on[machine])

    def free_capacity(self, machine: int) -> int:
        """Remaining block slots on ``machine``."""
        return self.topology.capacity_of(machine) - self.used_capacity(machine)

    def is_full(self, machine: int) -> bool:
        """Whether ``machine`` has no free block slots."""
        return self.free_capacity(machine) <= 0

    # -- load queries ----------------------------------------------------------

    def load(self, machine: int) -> float:
        """Popularity-weighted load ``L_m`` of ``machine``."""
        self.topology.check_machine(machine)
        return float(self._loads[machine])

    def loads(self) -> np.ndarray:
        """Copy of the per-machine load vector."""
        return self._loads.copy()

    def cost(self) -> float:
        """Objective value ``lambda = max_m L_m``."""
        return float(self._loads.max())

    def min_load(self) -> float:
        """Smallest machine load in the cluster."""
        return float(self._loads.min())

    def argmax_machine(self) -> int:
        """The machine with the highest load (lowest id on ties)."""
        return int(self._loads.argmax())

    def argmin_machine(self) -> int:
        """The machine with the lowest load (lowest id on ties)."""
        return int(self._loads.argmin())

    def rack_load(self, rack: int) -> float:
        """Total load of the machines in ``rack``."""
        return float(self._rack_loads[rack])

    def rack_loads(self) -> np.ndarray:
        """Copy of the per-rack total load vector."""
        return self._rack_loads.copy()

    def argmax_machine_in_rack(self, rack: int) -> int:
        """The highest-loaded machine within ``rack`` (lowest id on ties)."""
        self.topology.machines_in_rack(rack)  # validates the rack id
        return int(self.rack_extremes()[0][rack])

    def argmin_machine_in_rack(self, rack: int) -> int:
        """The lowest-loaded machine within ``rack`` (lowest id on ties)."""
        self.topology.machines_in_rack(rack)  # validates the rack id
        return int(self.rack_extremes()[1][rack])

    def rack_extremes(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(high_machine, low_machine, hottest, coldest)`` for every rack.

        The machine columns hold each rack's hottest and coldest machine
        (lowest id on ties); the load columns hold their loads,
        bit-identical to :meth:`load` of those machines.  Only racks
        whose loads changed since the last call are rescanned.  Returns
        the internal arrays: read-only, and stale after the next
        mutation.
        """
        dirty = self._ext_dirty
        if dirty:
            loads = self._loads
            for rack in dirty:
                members = self._rack_members[rack]
                segment = loads[members]
                hi = int(segment.argmax())
                lo = int(segment.argmin())
                self._ext_high[rack] = members[hi]
                self._ext_low[rack] = members[lo]
                self._ext_hot[rack] = segment[hi]
                self._ext_cold[rack] = segment[lo]
            dirty.clear()
        return self._ext_high, self._ext_low, self._ext_hot, self._ext_cold

    # -- feasibility predicates --------------------------------------------------

    def can_add(self, block_id: int, machine: int) -> bool:
        """Whether a new replica of ``block_id`` fits on ``machine``.

        True iff the machine has a free slot and does not already hold the
        block (node-level fault tolerance: ``x_im`` is binary).
        """
        self.topology.check_machine(machine)
        if self.has_replica(block_id, machine):
            return False
        return not self.is_full(machine)

    def can_remove(self, block_id: int, machine: int, enforce_min: bool = True) -> bool:
        """Whether a replica may be deleted from ``machine``.

        With ``enforce_min`` the deletion must keep the block at or above
        its node-level replication factor and rack spread requirement.
        """
        if not self.has_replica(block_id, machine):
            return False
        if not enforce_min:
            return True
        spec = self.problem.block(block_id)
        if self.replica_count(block_id) - 1 < spec.replication_factor:
            return False
        return self._spread_after_remove(block_id, machine) >= spec.rack_spread

    def can_move(self, block_id: int, src: int, dst: int) -> bool:
        """Whether ``Move(src, block, dst)`` is feasible.

        Feasible iff ``src`` holds the block, ``dst`` does not, ``dst`` has
        a free slot, and the block's rack spread stays at or above
        ``rho_i`` after the move.
        """
        if src == dst:
            return False
        if not self.has_replica(block_id, src):
            return False
        if not self.can_add(block_id, dst):
            return False
        return self.move_keeps_spread(block_id, src, dst)

    def can_swap(self, block_i: int, machine_m: int, block_j: int, machine_n: int) -> bool:
        """Whether ``Swap(m, i, n, j)`` is feasible.

        Swapping exchanges one replica of ``block_i`` on ``machine_m`` with
        one replica of ``block_j`` on ``machine_n``; capacities are
        unaffected, but both blocks must remain single-copy per machine and
        keep their rack spreads.
        """
        if machine_m == machine_n or block_i == block_j:
            return False
        if not self.has_replica(block_i, machine_m):
            return False
        if not self.has_replica(block_j, machine_n):
            return False
        if self.has_replica(block_i, machine_n) or self.has_replica(block_j, machine_m):
            return False
        if not self.move_keeps_spread(block_i, machine_m, machine_n):
            return False
        return self.move_keeps_spread(block_j, machine_n, machine_m)

    def move_keeps_spread(self, block_id: int, src: int, dst: int) -> bool:
        """Whether relocating one replica ``src -> dst`` keeps ``rho_i``.

        This is exactly the rack clause of :meth:`can_move` /
        :meth:`can_swap`.  The local search calls it directly for
        candidates whose membership preconditions already hold by
        construction (the block is on ``src`` and absent from ``dst``),
        skipping the redundant replica lookups.
        """
        rack_of = self.topology.rack_of
        src_rack = rack_of[src]
        dst_rack = rack_of[dst]
        holders = self._rack_holders_for(block_id)
        spread = len(holders)
        if src_rack != dst_rack:
            if holders.get(src_rack, 0) == 1:
                spread -= 1
            if dst_rack not in holders:
                spread += 1
        return spread >= self.problem.block(block_id).rack_spread

    # -- mutations ---------------------------------------------------------------

    def add_replica(self, block_id: int, machine: int) -> None:
        """Create a replica of ``block_id`` on ``machine``.

        Adding a replica dilutes the block's per-replica popularity from
        ``P/c`` to ``P/(c+1)``, so the load of every existing holder drops.
        """
        if not self.can_add(block_id, machine):
            if self.has_replica(block_id, machine):
                raise ReplicaConstraintError(
                    f"machine {machine} already holds block {block_id}"
                )
            raise CapacityExceededError(f"machine {machine} is full")
        machines = self._machines_for(block_id)
        popularity = self.problem.block(block_id).popularity
        old_count = len(machines)
        new_share = popularity / (old_count + 1)
        if old_count:
            old_share = popularity / old_count
            dilution = old_share - new_share
            for holder in machines:
                self._shift_load(holder, -dilution)
            self._reshare_block(block_id, machines, old_share, new_share)
        machines.add(machine)
        self._blocks_on[machine].add(block_id)
        self._shift_load(machine, new_share)
        self._index_insert(machine, new_share, block_id)
        rack = self.topology.rack_of[machine]
        holders = self._rack_holders_for(block_id)
        holders[rack] = holders.get(rack, 0) + 1
        self._bump_epochs(machines)
        self._tick()

    def remove_replica(
        self, block_id: int, machine: int, enforce_min: bool = True
    ) -> None:
        """Delete the replica of ``block_id`` stored on ``machine``.

        Removal concentrates the block's popularity on the survivors.  Set
        ``enforce_min=False`` to bypass the replication-factor and
        rack-spread checks (used when simulating failures and lazy
        deletion).
        """
        if not self.can_remove(block_id, machine, enforce_min=enforce_min):
            if not self.has_replica(block_id, machine):
                raise ReplicaConstraintError(
                    f"machine {machine} does not hold block {block_id}"
                )
            raise ReplicaConstraintError(
                f"removing block {block_id} from machine {machine} would "
                "violate its replication or rack-spread requirement"
            )
        machines = self._machines_for(block_id)
        popularity = self.problem.block(block_id).popularity
        old_count = len(machines)
        old_share = popularity / old_count
        machines.discard(machine)
        self._blocks_on[machine].discard(block_id)
        self._shift_load(machine, -old_share)
        self._index_discard(machine, old_share, block_id)
        new_count = old_count - 1
        if new_count:
            new_share = popularity / new_count
            concentration = new_share - old_share
            for holder in machines:
                self._shift_load(holder, concentration)
            self._reshare_block(block_id, machines, old_share, new_share)
        rack = self.topology.rack_of[machine]
        holders = self._rack_holders_for(block_id)
        holders[rack] -= 1
        if holders[rack] == 0:
            del holders[rack]
        self._bump_epochs(machines)
        self._machine_epoch[machine] += 1
        self._tick()

    def move(self, block_id: int, src: int, dst: int) -> None:
        """Apply ``Move(src, block, dst)``: relocate one replica.

        The replica count is unchanged, so only the two machines' loads
        shift by the block's share.
        """
        if not self.can_move(block_id, src, dst):
            raise InfeasibleOperationError(
                f"Move(block={block_id}, src={src}, dst={dst}) is infeasible"
            )
        share = self.share(block_id)
        machines = self._machines_for(block_id)
        machines.discard(src)
        machines.add(dst)
        self._blocks_on[src].discard(block_id)
        self._blocks_on[dst].add(block_id)
        self._shift_load(src, -share)
        self._shift_load(dst, share)
        self._index_discard(src, share, block_id)
        self._index_insert(dst, share, block_id)
        self._transfer_rack_holder(block_id, src, dst)
        # A move can change the block's rack spread, which affects
        # feasibility of probes on *every* holder — bump them all.
        self._bump_epochs(machines)
        self._machine_epoch[src] += 1
        self._tick()

    def swap(self, block_i: int, machine_m: int, block_j: int, machine_n: int) -> None:
        """Apply ``Swap(m, i, n, j)``: exchange two replicas across machines."""
        if not self.can_swap(block_i, machine_m, block_j, machine_n):
            raise InfeasibleOperationError(
                f"Swap(m={machine_m}, i={block_i}, n={machine_n}, j={block_j}) "
                "is infeasible"
            )
        share_i = self.share(block_i)
        share_j = self.share(block_j)
        holders_i = self._machines_for(block_i)
        holders_j = self._machines_for(block_j)
        holders_i.discard(machine_m)
        holders_i.add(machine_n)
        holders_j.discard(machine_n)
        holders_j.add(machine_m)
        self._blocks_on[machine_m].discard(block_i)
        self._blocks_on[machine_m].add(block_j)
        self._blocks_on[machine_n].discard(block_j)
        self._blocks_on[machine_n].add(block_i)
        self._shift_load(machine_m, share_j - share_i)
        self._shift_load(machine_n, share_i - share_j)
        self._index_discard(machine_m, share_i, block_i)
        self._index_insert(machine_m, share_j, block_j)
        self._index_discard(machine_n, share_j, block_j)
        self._index_insert(machine_n, share_i, block_i)
        self._transfer_rack_holder(block_i, machine_m, machine_n)
        self._transfer_rack_holder(block_j, machine_n, machine_m)
        self._bump_epochs(holders_i)
        self._bump_epochs(holders_j)
        self._tick()

    # -- bulk helpers -------------------------------------------------------------

    def copy(self) -> "PlacementState":
        """Exact deep copy of the state (shares the immutable problem).

        Loads, epochs and the mutation counter are carried over, so the
        copy runs its periodic :meth:`recompute` at the same mutations as
        the original: driven by the same operations, both stay
        bit-identical.
        """
        clone = type(self)(self.problem)
        for block_id, machines in self._machines_of.items():
            clone._machines_of[block_id] = set(machines)
        clone._blocks_on = [set(blocks) for blocks in self._blocks_on]
        clone._loads = self._loads.copy()
        clone._rack_loads = self._rack_loads.copy()
        clone._rack_holders = {
            block_id: dict(holders)
            for block_id, holders in self._rack_holders.items()
        }
        clone._share_index = [list(index) for index in self._share_index]
        clone._machine_epoch = self._machine_epoch.copy()
        clone._mutations = self._mutations
        return clone

    def to_assignment(self) -> Dict[int, FrozenSet[int]]:
        """Snapshot mapping each block id to its holder set."""
        return {
            block_id: frozenset(machines)
            for block_id, machines in self._machines_of.items()
        }

    @classmethod
    def from_assignment(
        cls, problem: PlacementProblem, assignment: Mapping[int, Iterable[int]]
    ) -> "PlacementState":
        """Rebuild a state from a block-to-machines mapping.

        Built in bulk: holder sets, rack counters, loads and share
        indices are constructed directly at their final values (loads
        via the same final-share accumulation :meth:`recompute` uses)
        instead of replaying one :meth:`add_replica` per replica, which
        re-dilutes every prior holder and re-sorts share indices on each
        add.  Validation matches the incremental path: unknown blocks,
        duplicate holders and capacity overruns raise the same errors.
        """
        state = cls(problem)
        topo = problem.topology
        rack_of = topo.rack_of
        blocks_on = state._blocks_on
        for block_id, machines in assignment.items():
            holders = state._machines_for(block_id)
            rack_holders = state._rack_holders[block_id]
            for machine in machines:
                topo.check_machine(machine)
                if machine in holders:
                    raise ReplicaConstraintError(
                        f"machine {machine} already holds block {block_id}"
                    )
                if len(blocks_on[machine]) >= topo.capacity_of(machine):
                    raise CapacityExceededError(f"machine {machine} is full")
                holders.add(machine)
                blocks_on[machine].add(block_id)
                rack = rack_of[machine]
                rack_holders[rack] = rack_holders.get(rack, 0) + 1
        loads = state._loads
        rack_loads = state._rack_loads
        share_index = state._share_index
        for block_id, holders in state._machines_of.items():
            if not holders:
                continue
            share = problem.block(block_id).popularity / len(holders)
            for machine in holders:
                loads[machine] += share
                rack_loads[rack_of[machine]] += share
                share_index[machine].append((share, block_id))
        for index in share_index:
            index.sort()
        return state

    def recompute(self) -> None:
        """Rebuild loads from scratch, clearing floating-point drift.

        Load values can shift by a few ulps, so every rack's cached
        extremes are marked stale and every machine epoch is bumped
        (invalidating any exhausted-pair memo held by a search engine).
        """
        self._loads[:] = 0.0
        self._rack_loads[:] = 0.0
        rack_of = self.topology.rack_of
        for block_id, machines in self._machines_of.items():
            if not machines:
                continue
            share = self.problem.block(block_id).popularity / len(machines)
            for machine in machines:
                self._loads[machine] += share
                self._rack_loads[rack_of[machine]] += share
        self._machine_epoch += 1
        self._ext_dirty.update(self.topology.racks)

    def is_fully_replicated(self) -> bool:
        """Whether every block meets its node and rack requirements."""
        for spec in self.problem:
            if self.replica_count(spec.block_id) < spec.replication_factor:
                return False
            if self.rack_spread(spec.block_id) < spec.rack_spread:
                return False
        return True

    def under_replicated_blocks(self) -> List[int]:
        """Blocks with fewer replicas than their replication factor."""
        return [
            spec.block_id
            for spec in self.problem
            if self.replica_count(spec.block_id) < spec.replication_factor
        ]

    def audit(self) -> None:
        """Verify every structural invariant; raise ``AssertionError`` on drift.

        Checks the forward and reverse replica indexes agree, capacities
        are respected, rack holder counters and share indices are exact,
        the cached per-rack extremes match a scan, and incremental loads
        match a from-scratch recomputation.
        """
        for block_id, machines in self._machines_of.items():
            for machine in machines:
                assert block_id in self._blocks_on[machine], (
                    f"index mismatch: block {block_id} missing on machine {machine}"
                )
        for machine, blocks in enumerate(self._blocks_on):
            assert len(blocks) <= self.topology.capacity_of(machine), (
                f"machine {machine} over capacity"
            )
            for block_id in blocks:
                assert machine in self._machines_of[block_id], (
                    f"reverse index mismatch: machine {machine}, block {block_id}"
                )
        for block_id, machines in self._machines_of.items():
            expected: Dict[int, int] = {}
            for machine in machines:
                rack = self.topology.rack_of[machine]
                expected[rack] = expected.get(rack, 0) + 1
            assert expected == self._rack_holders[block_id], (
                f"rack holder drift for block {block_id}"
            )
        for machine in self.topology.machines:
            expected_index = sorted(
                (self.share(block_id), block_id)
                for block_id in self._blocks_on[machine]
            )
            assert expected_index == self._share_index[machine], (
                f"share index drift on machine {machine}"
            )
        loads = self._loads
        high, low, hot, cold = self.rack_extremes()
        for rack in self.topology.racks:
            members = self.topology.machines_in_rack(rack)
            hottest = max(members, key=lambda m: loads[m])
            coldest = min(members, key=lambda m: loads[m])
            assert high[rack] == hottest and hot[rack] == loads[hottest], (
                f"rack {rack} hottest-machine cache drift"
            )
            assert low[rack] == coldest and cold[rack] == loads[coldest], (
                f"rack {rack} coldest-machine cache drift"
            )
        snapshot = self._loads.copy()
        rack_snapshot = self._rack_loads.copy()
        self.recompute()
        assert np.allclose(snapshot, self._loads, atol=1e-6), "machine load drift"
        assert np.allclose(rack_snapshot, self._rack_loads, atol=1e-6), (
            "rack load drift"
        )

    # -- memory accounting ---------------------------------------------------------

    def state_bytes(self) -> int:
        """Approximate resident bytes of the placement state's structures.

        Sums ``sys.getsizeof`` of every array and container the state
        owns (each counted once; the problem and topology are shared and
        not counted) plus a flat per-entry estimate for the
        ``(share, block_id)`` tuples the share indices point at.  It is
        an *estimate* — small-int interning and allocator slack are not
        modeled — but it is deterministic, which is what the
        ``repro_core_state_bytes`` gauge needs to compare footprints.
        """
        getsizeof = sys.getsizeof
        arrays = (
            self._loads, self._rack_loads, self._machine_epoch,
            self._ext_high, self._ext_low, self._ext_hot, self._ext_cold,
            *self._rack_members,
        )
        total = sum(getsizeof(array) for array in arrays)
        total += getsizeof(self._rack_members) + getsizeof(self._ext_dirty)
        total += getsizeof(self._machines_of) + sum(
            getsizeof(s) for s in self._machines_of.values()
        )
        total += getsizeof(self._blocks_on) + sum(
            getsizeof(s) for s in self._blocks_on
        )
        total += getsizeof(self._rack_holders) + sum(
            getsizeof(d) for d in self._rack_holders.values()
        )
        # Share indices: list backing store + one (float, int) tuple
        # object (~72 bytes) per entry.
        total += getsizeof(self._share_index) + sum(
            getsizeof(ix) + 72 * len(ix) for ix in self._share_index
        )
        return total

    # -- internals -----------------------------------------------------------------

    def _machines_for(self, block_id: int) -> Set[int]:
        try:
            return self._machines_of[block_id]
        except KeyError:
            raise UnknownBlockError(f"unknown block id {block_id}") from None

    def _rack_holders_for(self, block_id: int) -> Dict[int, int]:
        try:
            return self._rack_holders[block_id]
        except KeyError:
            raise UnknownBlockError(f"unknown block id {block_id}") from None

    def _shift_load(self, machine: int, delta: float) -> None:
        rack = self.topology.rack_of[machine]
        self._loads[machine] += delta
        self._rack_loads[rack] += delta
        self._ext_dirty.add(rack)

    def _bump_epochs(self, machines: Iterable[int]) -> None:
        epochs = self._machine_epoch
        for machine in machines:
            epochs[machine] += 1

    def _index_insert(self, machine: int, share: float, block_id: int) -> None:
        insort(self._share_index[machine], (share, block_id))

    def _index_discard(self, machine: int, share: float, block_id: int) -> None:
        index = self._share_index[machine]
        entry = (share, block_id)
        i = bisect_left(index, entry)
        if i < len(index) and index[i] == entry:
            del index[i]
        else:  # exact-share invariant violated; fail loudly via ValueError
            index.remove(entry)

    def _reshare_block(
        self, block_id: int, holders: Iterable[int], old_share: float, new_share: float
    ) -> None:
        """Replace ``block_id``'s index entry on every holder."""
        for holder in holders:
            self._index_discard(holder, old_share, block_id)
            self._index_insert(holder, new_share, block_id)

    def _transfer_rack_holder(self, block_id: int, src: int, dst: int) -> None:
        src_rack = self.topology.rack_of[src]
        dst_rack = self.topology.rack_of[dst]
        if src_rack == dst_rack:
            return
        holders = self._rack_holders_for(block_id)
        holders[src_rack] -= 1
        if holders[src_rack] == 0:
            del holders[src_rack]
        holders[dst_rack] = holders.get(dst_rack, 0) + 1

    def _spread_after_remove(self, block_id: int, machine: int) -> int:
        holders = self._rack_holders_for(block_id)
        rack = self.topology.rack_of[machine]
        spread = len(holders)
        if holders.get(rack, 0) == 1:
            spread -= 1
        return spread

    def _spread_after_move(self, block_id: int, src: int, dst: int) -> int:
        holders = self._rack_holders_for(block_id)
        src_rack = self.topology.rack_of[src]
        dst_rack = self.topology.rack_of[dst]
        if src_rack == dst_rack:
            return len(holders)
        spread = len(holders)
        if holders.get(src_rack, 0) == 1:
            spread -= 1
        if holders.get(dst_rack, 0) == 0:
            spread += 1
        return spread

    def _tick(self) -> None:
        self._mutations += 1
        if self._mutations % _RECOMPUTE_INTERVAL == 0:
            self.recompute()
