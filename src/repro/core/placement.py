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

**Cold build, first-touch indexes.**  Each Aurora period rebuilds the
state from an assignment (:meth:`from_assignment`), yet one search reads
the holders of only a few thousand blocks and the share index of only a
few hundred machines.  So the build is bulk numpy work and makes no
Python container per block or per machine: the loads, rack loads and a
dense per-machine used-slot column are ``np.bincount`` accumulations,
and every replica goes into two CSRs (compressed sparse rows: flat
columns plus row offsets).  The *block CSR* lists each block's holders,
blocks in problem order; the *machine CSR* holds flat ``(share,
block_id)`` columns sorted by machine, share and block.  A block's
holder set is built from its block CSR row, and a machine's block set
and share list from its machine CSR row, the first time anything reads
or mutates them; a block's per-rack holder counts are built from its
holder set the first time anything reads them.  Until then a CSR row is
exactly the block's or machine's current state, because every mutation
materialises the blocks and machines it touches first.  The CSR arrays
are read-only and shared by :meth:`copy`; the lazy containers are plain
lists, sets and dicts with no reference back to the state, so a dropped
state is freed by reference counting alone.  ``__init__`` runs the same
path with empty CSRs.

Loads are floats updated incrementally; :meth:`recompute` rebuilds them
from scratch with the build's own accumulation (so the two are
bit-identical by construction) and runs automatically every
``_RECOMPUTE_INTERVAL`` mutations to bound floating-point drift.
:meth:`audit` verifies every invariant, for materialised and
not-yet-materialised indexes alike, and is used heavily by the test
suite.
"""

from __future__ import annotations

import copy
import sys
from bisect import bisect_left, insort
from itertools import chain, repeat
from operator import attrgetter
from typing import (
    Collection, Dict, FrozenSet, Iterable, Iterator, List, Mapping,
    NoReturn, Optional, Sequence, Set, Tuple,
)

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

_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]

_BLOCK_ID = attrgetter("block_id")
_POPULARITY = attrgetter("popularity")


def _block_rows(problem: PlacementProblem) -> Dict[int, int]:
    """``{block_id: row}`` in problem order, keyed by the specs' own ids."""
    blocks = problem.blocks
    return dict(zip(map(_BLOCK_ID, blocks), range(len(blocks))))


def _replica_columns(
    problem: PlacementProblem, holder_rows: Sequence[Collection[int]]
) -> _Columns:
    """``(counts, machines, shares)`` of every block's holders.

    ``holder_rows`` lists each block's holders in problem order.
    ``counts`` and ``shares`` have one entry per block in that order;
    ``machines`` lists every replica's holder, block by block.  Building
    the machine column raises on holder ids that are not machine indexes.
    """
    blocks = problem.blocks
    counts = np.fromiter(map(len, holder_rows), np.intp, len(holder_rows))
    machines = np.fromiter(
        chain.from_iterable(holder_rows), np.intp, int(counts.sum())
    )
    popularity = np.fromiter(
        map(_POPULARITY, blocks), np.float64, len(blocks)
    )
    # The same IEEE division as share(): popularity / count.
    shares = np.divide(
        popularity, counts, out=np.zeros_like(popularity), where=counts > 0
    )
    return counts, machines, shares


def _validated_columns(
    problem: PlacementProblem,
    assignment: Mapping[int, Collection[int]],
    block_rows: Mapping[int, int],
    holder_rows: Sequence[Collection[int]],
) -> Optional[_Columns]:
    """The replica columns of ``holder_rows`` (``assignment``'s
    collections in problem order), or ``None`` if any replica of
    ``assignment`` is invalid."""
    if not assignment.keys() <= block_rows.keys():
        return None  # an unknown block
    try:
        columns = _replica_columns(problem, holder_rows)
    except (OverflowError, TypeError, ValueError):
        return None  # a holder id that is no machine index
    machines = columns[1]
    num_machines = problem.topology.num_machines
    if machines.size and not (
        0 <= machines.min() and machines.max() < num_machines
    ):
        return None  # an unknown machine
    used = np.bincount(machines, minlength=num_machines)
    if (used > np.asarray(problem.topology.capacities)).any():
        return None  # a machine over capacity
    return columns  # a machine listed twice in one block: see _install


class _SpreadFloors(dict):
    """``{block_id: rho_i}``, each filled from the problem on first read.

    Its entries depend only on the immutable problem, so copies of a
    state share one memo.
    """

    __slots__ = ("_problem",)

    def __init__(self, problem: PlacementProblem) -> None:
        super().__init__()
        self._problem = problem

    def __missing__(self, block_id: int) -> int:
        floor = self[block_id] = self._problem.block(block_id).rack_spread
        return floor


class PlacementState:
    """Assignment of block replicas to machines, with incremental loads."""

    def __init__(self, problem: PlacementProblem) -> None:
        block_rows = _block_rows(problem)
        self._install(
            problem, block_rows,
            _replica_columns(problem, [()] * len(block_rows)),
        )

    def _install(
        self,
        problem: PlacementProblem,
        block_rows: Dict[int, int],
        columns: _Columns,
    ) -> bool:
        """Set up every structure from the replica columns.

        ``block_rows`` is ``_block_rows(problem)`` and ``columns`` the
        validated ``_replica_columns`` of the holders, whose machine
        column becomes the block CSR.  The loads, rack loads and
        used-slot column are accumulated in bulk; the machine CSR is
        sorted by machine, then share, then block id — the order of each
        machine's share index — with the ``(share, block)`` order
        computed once per block and the replicas sorted on one composite
        integer key.  That key is unique per ``(block, machine)`` cell,
        so two equal keys mean a block lists one machine twice: the
        state is then invalid and ``False`` is returned.
        """
        self.problem = problem
        topo = problem.topology
        num_machines, num_racks = topo.num_machines, topo.num_racks
        # Read-only, like the CSRs, and shared by copies.
        self._block_row = block_rows
        # Per-block holder sets, built from the block CSR on first touch.
        self._machines_of: Dict[int, Set[int]] = {}
        # Per-block {rack: holders} counts, built on first read.
        self._rack_holders: Dict[int, Dict[int, int]] = {}
        # Shared by copies, like the block-row map.
        self._spread_floor = _SpreadFloors(problem)
        self._mutations = 0
        self._machine_epoch = np.zeros(num_machines, dtype=np.int64)
        self._rack_members: List[np.ndarray] = [
            np.asarray(topo.machines_in_rack(rack), dtype=np.intp)
            for rack in topo.racks
        ]
        self._ext_high = np.zeros(num_racks, dtype=np.int64)
        self._ext_low = np.zeros(num_racks, dtype=np.int64)
        self._ext_hot = np.zeros(num_racks, dtype=np.float64)
        self._ext_cold = np.zeros(num_racks, dtype=np.float64)
        self._ext_dirty: Set[int] = set(topo.racks)
        counts, machines, shares = columns
        num_blocks = counts.size
        self._holder_start = np.zeros(num_blocks + 1, dtype=np.intp)
        np.cumsum(counts, out=self._holder_start[1:])
        self._holder_machine = machines
        self._loads = np.empty(num_machines, dtype=np.float64)
        self._rack_loads = np.empty(num_racks, dtype=np.float64)
        self._accumulate_loads(counts, machines, shares)
        used = np.bincount(machines, minlength=num_machines)
        # A list: the search reads and bumps single slots, which is
        # several times cheaper on a list than on an array.
        self._used: List[int] = used.tolist()
        # Rank the blocks by (share, block_id), then sort the replicas on
        # machine * B + rank: unique keys for a valid assignment, so one
        # plain argsort.  The id column holds the specs' own id objects
        # (object dtype): indexes materialised from it then hold the very
        # ints the holder map and the problem are keyed by, so dict and
        # set lookups match on identity.
        block_ids = np.fromiter(block_rows, object, num_blocks)
        rank = np.empty(num_blocks, dtype=np.int64)
        rank[np.lexsort((block_ids.astype(np.int64), shares))] = np.arange(
            num_blocks
        )
        keys = machines * num_blocks + np.repeat(rank, counts)
        order = np.argsort(keys)
        keys = keys[order]
        start = np.zeros(num_machines + 1, dtype=np.intp)
        np.cumsum(used, out=start[1:])
        self._csr_start = start
        self._csr_share = np.repeat(shares, counts)[order]
        self._csr_block = np.repeat(block_ids, counts)[order]
        for array in self._csr_arrays():
            array.flags.writeable = False
        # First-touch per-machine indexes (see _blocks_of / _index_of).
        self._blocks_on: List[Optional[Set[int]]] = [None] * num_machines
        self._share_index: List[Optional[List[Tuple[float, int]]]] = (
            [None] * num_machines
        )
        return not (keys[1:] == keys[:-1]).any()

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
        return frozenset(self._blocks_of(machine))

    def blocks_on_view(self, machine: int) -> Set[int]:
        """Zero-copy view of the blocks on ``machine``.

        Returns the internal set — callers must treat it as read-only
        and must not hold it across mutations they expect snapshot
        semantics from.  Use :meth:`blocks_on` for an immutable copy.
        """
        self.topology.check_machine(machine)
        return self._blocks_of(machine)

    def share_index(self, machine: int) -> Sequence[Tuple[float, int]]:
        """The machine's persistent sorted ``(share, block_id)`` index.

        Kept exact across mutations by delta updates; shares stored are
        bit-identical to :meth:`share` of each resident block.  Returns
        the internal list — read-only for callers.
        """
        self.topology.check_machine(machine)
        return self._index_of(machine)

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
        return self._used[machine]

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
        :meth:`can_swap`, for any block and machine pair.  The local
        search, whose candidates meet the membership preconditions by
        construction, uses :meth:`_relocation_keeps_spread` instead.
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

    def _relocation_keeps_spread(self, block_id: int, src: int, dst: int) -> bool:
        """:meth:`move_keeps_spread` for a block on ``src`` and absent
        from ``dst``, the local search's candidates.

        Under those preconditions a block with ``rho_i = 1`` always keeps
        its spread, since the replica that lands on ``dst`` holds a rack,
        so only blocks with ``rho_i > 1`` pay for the rack arithmetic,
        in which ``src``'s rack is known to hold the block.  ``rho_i``
        comes from a per-block memo, not a spec lookup.
        """
        floor = self._spread_floor[block_id]
        if floor == 1:
            return True
        rack_of = self.topology.rack_of
        src_rack = rack_of[src]
        dst_rack = rack_of[dst]
        holders = self._rack_holders_for(block_id)
        spread = len(holders)
        if src_rack != dst_rack:
            if holders[src_rack] == 1:
                spread -= 1
            if dst_rack not in holders:
                spread += 1
        return spread >= floor

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
        self._blocks_of(machine).add(block_id)
        self._used[machine] += 1
        self._shift_load(machine, new_share)
        self._index_insert(machine, new_share, block_id)
        self._count_rack_holder(block_id, machine, 1)
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
        self._blocks_of(machine).discard(block_id)
        self._used[machine] -= 1
        self._shift_load(machine, -old_share)
        self._index_discard(machine, old_share, block_id)
        new_count = old_count - 1
        if new_count:
            new_share = popularity / new_count
            concentration = new_share - old_share
            for holder in machines:
                self._shift_load(holder, concentration)
            self._reshare_block(block_id, machines, old_share, new_share)
        self._count_rack_holder(block_id, machine, -1)
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
        self._blocks_of(src).discard(block_id)
        self._blocks_of(dst).add(block_id)
        self._used[src] -= 1
        self._used[dst] += 1
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
        blocks_m = self._blocks_of(machine_m)
        blocks_m.discard(block_i)
        blocks_m.add(block_j)
        blocks_n = self._blocks_of(machine_n)
        blocks_n.discard(block_j)
        blocks_n.add(block_i)
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
        bit-identical.  The read-only CSRs, block-row map, spread-floor
        memo and rack-member arrays are shared; only the indexes
        materialised so far (holder sets included) are copied.
        """
        clone = copy.copy(self)
        clone._machines_of = {
            block_id: set(machines)
            for block_id, machines in self._machines_of.items()
        }
        clone._rack_holders = {
            block_id: dict(holders)
            for block_id, holders in self._rack_holders.items()
        }
        clone._blocks_on = [
            None if blocks is None else set(blocks) for blocks in self._blocks_on
        ]
        clone._share_index = [
            None if index is None else list(index) for index in self._share_index
        ]
        for name in ("_loads", "_rack_loads", "_used", "_machine_epoch",
                     "_ext_high", "_ext_low", "_ext_hot", "_ext_cold",
                     "_ext_dirty"):
            setattr(clone, name, getattr(self, name).copy())
        return clone

    def to_assignment(self) -> Dict[int, FrozenSet[int]]:
        """Snapshot mapping each block id to its holder set."""
        return dict(zip(self._block_row, map(frozenset, self._holder_rows())))

    @classmethod
    def from_assignment(
        cls, problem: PlacementProblem, assignment: Mapping[int, Collection[int]]
    ) -> "PlacementState":
        """Rebuild a state from a block-to-machines mapping.

        Built in bulk (see the module docstring): the machine column of
        every replica is read straight from the caller's collections,
        blocks in problem order, then range-checked, counted against the
        capacities with one ``np.bincount``, kept as the block CSR and
        indexed into the machine CSR, whose sort also finds a machine
        listed twice in one block.  Holder sets are built on first
        touch, and the state keeps no reference to ``assignment`` or its
        collections.  This replaces replaying one :meth:`add_replica` per
        replica, which re-dilutes every prior holder and re-sorts share
        indices on each add.  Invalid input raises exactly what that
        replay raises, for the first offending replica in assignment
        order: unknown blocks, unknown machines, duplicate holders and
        capacity overruns.
        """
        block_rows = _block_rows(problem)
        holder_rows = list(map(assignment.get, block_rows, repeat(())))
        columns = _validated_columns(
            problem, assignment, block_rows, holder_rows
        )
        state = cls.__new__(cls)
        if columns is None or not state._install(problem, block_rows, columns):
            cls._raise_first_error(problem, assignment)
        return state

    @classmethod
    def _raise_first_error(
        cls, problem: PlacementProblem, assignment: Mapping[int, Collection[int]]
    ) -> NoReturn:
        """Replay ``assignment`` one replica at a time to raise its first error."""
        state = cls(problem)
        for block_id, machines in assignment.items():
            state._machines_for(block_id)
            for machine in machines:
                state.add_replica(block_id, machine)
        raise AssertionError("bulk validation rejected a valid assignment")

    def recompute(self) -> None:
        """Rebuild loads from scratch, clearing floating-point drift.

        Load values can shift by a few ulps, so every rack's cached
        extremes are marked stale and every machine epoch is bumped
        (invalidating any exhausted-pair memo held by a search engine).
        """
        counts, machines, shares = _replica_columns(
            self.problem, list(self._holder_rows())
        )
        self._accumulate_loads(counts, machines, shares)
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

        Rebuilds every machine's block set from the holders of every
        block (its materialised set, else its block CSR row) and checks
        against it, for materialised and unmaterialised machines alike:
        the block set, the used-slot column and capacity, and the share
        index.  Also checks the materialised rack holder counters, that
        the CSRs are read-only, that the cached per-rack extremes match a
        scan, and that incremental loads match a from-scratch
        recomputation.
        """
        self._audit_machines()
        topo = self.topology
        for block_id, holders in self._rack_holders.items():
            expected_racks: Dict[int, int] = {}
            for machine in self._machines_of[block_id]:
                rack = topo.rack_of[machine]
                expected_racks[rack] = expected_racks.get(rack, 0) + 1
            assert expected_racks == holders, (
                f"rack holder drift for block {block_id}"
            )
        loads = self._loads
        high, low, hot, cold = self.rack_extremes()
        for rack in topo.racks:
            members = topo.machines_in_rack(rack)
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

    def _audit_machines(self) -> None:
        """:meth:`audit`'s per-machine checks, against the block sets
        rebuilt from every block's holders.  A method of its own, so those
        sets are freed before :meth:`audit` recomputes the loads."""
        topo = self.topology
        expected_blocks: List[Set[int]] = [set() for _ in topo.machines]
        # share() of every block, without building its holder set.
        share_of: Dict[int, float] = {}
        for spec, machines in zip(self.problem.blocks, self._holder_rows()):
            block_id = spec.block_id
            if machines:
                share_of[block_id] = spec.popularity / len(machines)
            for machine in machines:
                expected_blocks[machine].add(block_id)
        for array in self._csr_arrays():
            assert not array.flags.writeable, "CSR array is writeable"
        for machine, expected in enumerate(expected_blocks):
            shares, blocks = self._csr_row(machine)
            actual = self._blocks_on[machine]
            if actual is None:
                actual = set(blocks)
            assert actual == expected, f"block set drift on machine {machine}"
            assert self._used[machine] == len(expected), (
                f"used-slot drift on machine {machine}"
            )
            assert len(expected) <= topo.capacity_of(machine), (
                f"machine {machine} over capacity"
            )
            index = self._share_index[machine]
            if index is None:
                index = list(zip(shares, blocks))
            assert index == sorted(
                (share_of[block_id], block_id) for block_id in expected
            ), f"share index drift on machine {machine}"

    # -- memory accounting ---------------------------------------------------------

    def state_bytes(self) -> int:
        """Approximate resident bytes of the placement state's structures.

        Sums ``sys.getsizeof`` of every array and container the state
        owns (each counted once; the problem, the topology and the
        spread-floor memo of problem data are shared and not counted),
        including the CSR arrays and the block-row map but only the
        per-machine and per-block indexes materialised so far, plus a
        flat per-entry estimate for the ``(share, block_id)``
        tuples the materialised share indices point at.  It is an
        *estimate* — small-int interning and allocator slack are not
        modeled — but it is deterministic, which is what the
        ``repro_core_state_bytes`` gauge needs to compare footprints.
        """
        getsizeof = sys.getsizeof
        arrays = (
            self._loads, self._rack_loads, self._machine_epoch, self._used,
            self._ext_high, self._ext_low, self._ext_hot, self._ext_cold,
            *self._csr_arrays(), *self._rack_members,
        )
        total = sum(getsizeof(array) for array in arrays)
        total += getsizeof(self._rack_members) + getsizeof(self._ext_dirty)
        total += getsizeof(self._block_row)
        total += getsizeof(self._machines_of) + sum(
            getsizeof(s) for s in self._machines_of.values()
        )
        total += getsizeof(self._rack_holders) + sum(
            getsizeof(d) for d in self._rack_holders.values()
        )
        total += getsizeof(self._blocks_on) + sum(
            getsizeof(s) for s in self._blocks_on if s is not None
        )
        # Share indices: list backing store + one (float, int) tuple
        # object (~72 bytes) per entry.
        total += getsizeof(self._share_index) + sum(
            getsizeof(ix) + 72 * len(ix)
            for ix in self._share_index if ix is not None
        )
        return total

    # -- internals -----------------------------------------------------------------

    def _accumulate_loads(
        self, counts: np.ndarray, machines: np.ndarray, shares: np.ndarray
    ) -> None:
        """Set the loads to the replica shares summed in problem order.

        ``np.bincount`` adds its weights one by one in input order, the
        order a per-replica Python loop would, so a build and every later
        :meth:`recompute` give bit-identical loads.
        """
        topo = self.topology
        shares = np.repeat(shares, counts)
        self._loads[:] = np.bincount(
            machines, weights=shares, minlength=topo.num_machines
        )
        racks = np.asarray(topo.rack_of, dtype=np.intp)[machines]
        self._rack_loads[:] = np.bincount(
            racks, weights=shares, minlength=topo.num_racks
        )

    def _csr_arrays(self) -> Tuple[np.ndarray, ...]:
        """The read-only arrays of the block and machine CSRs."""
        return (
            self._holder_start, self._holder_machine,
            self._csr_start, self._csr_share, self._csr_block,
        )

    def _holder_rows(self) -> Iterator[Collection[int]]:
        """Every block's holders in problem order: its materialised set
        where one exists, else its block CSR row."""
        machines = self._holder_machine
        bounds = self._holder_start.tolist()
        built = self._machines_of
        for block_id, start, stop in zip(self._block_row, bounds, bounds[1:]):
            holders = built.get(block_id)
            yield machines[start:stop].tolist() if holders is None else holders

    def _csr_row(self, machine: int) -> Tuple[List[float], List[int]]:
        """The machine's ``(shares, block_ids)`` as built, sorted."""
        start, stop = self._csr_start[machine], self._csr_start[machine + 1]
        return (
            self._csr_share[start:stop].tolist(),
            self._csr_block[start:stop].tolist(),
        )

    def _blocks_of(self, machine: int) -> Set[int]:
        """The machine's block set, built from its CSR row on first touch."""
        blocks = self._blocks_on[machine]
        if blocks is None:
            blocks = self._blocks_on[machine] = set(self._csr_row(machine)[1])
        return blocks

    def _index_of(self, machine: int) -> List[Tuple[float, int]]:
        """The machine's share index, built from its CSR row on first touch."""
        index = self._share_index[machine]
        if index is None:
            index = self._share_index[machine] = list(
                zip(*self._csr_row(machine))
            )
        return index

    def _machines_for(self, block_id: int) -> Set[int]:
        """The block's holder set, built from its CSR row on first touch."""
        try:
            return self._machines_of[block_id]
        except KeyError:
            pass
        try:
            row = self._block_row[block_id]
        except KeyError:
            raise UnknownBlockError(f"unknown block id {block_id}") from None
        start, stop = self._holder_start[row:row + 2].tolist()
        machines = self._machines_of[block_id] = set(
            self._holder_machine[start:stop].tolist()
        )
        return machines

    def _rack_holders_for(self, block_id: int) -> Dict[int, int]:
        """The block's ``{rack: holders}`` counts, built on first read."""
        try:
            return self._rack_holders[block_id]
        except KeyError:
            pass
        rack_of = self.topology.rack_of
        counts: Dict[int, int] = {}
        for machine in self._machines_for(block_id):
            rack = rack_of[machine]
            counts[rack] = counts.get(rack, 0) + 1
        self._rack_holders[block_id] = counts
        return counts

    def _count_rack_holder(self, block_id: int, machine: int, delta: int) -> None:
        """Patch built rack-holder counts; unbuilt ones derive from the holder set."""
        counts = self._rack_holders.get(block_id)
        if counts is None:
            return
        rack = self.topology.rack_of[machine]
        count = counts.get(rack, 0) + delta
        if count:
            counts[rack] = count
        else:
            del counts[rack]

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
        insort(self._index_of(machine), (share, block_id))

    def _index_discard(self, machine: int, share: float, block_id: int) -> None:
        index = self._index_of(machine)
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
        rack_of = self.topology.rack_of
        if rack_of[src] != rack_of[dst]:
            self._count_rack_holder(block_id, src, -1)
            self._count_rack_holder(block_id, dst, 1)

    def _spread_after_remove(self, block_id: int, machine: int) -> int:
        holders = self._rack_holders_for(block_id)
        rack = self.topology.rack_of[machine]
        spread = len(holders)
        if holders.get(rack, 0) == 1:
            spread -= 1
        return spread

    def _tick(self) -> None:
        self._mutations += 1
        if self._mutations % _RECOMPUTE_INTERVAL == 0:
            self.recompute()
