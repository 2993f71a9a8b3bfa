"""Reference (naive) implementations of Algorithms 1, 2 and 3.

This module is a frozen transcription of the local search exactly as the
paper states it, with no incremental machinery: machine and rack extremes
are found by scanning the load vector, exclusive-block candidate lists
are rebuilt and re-sorted per machine pair, and the global objective is
recomputed every iteration.  It exists for two reasons:

* **Differential testing** — the incremental engine in
  :mod:`repro.core.local_search` must produce *identical* operation
  sequences (hence identical placements and final costs) to this module
  on every instance; ``tests/core/test_differential.py`` pins that.
* **Benchmarking** — the solver-scale study
  (:func:`repro.experiments.scale.run_solver_scale_study`, ``repro scale
  --solver``) measures the incremental engine's speedup against this
  baseline.

The only intentional difference from the historical solver is the
inter-rack pair ordering: pairs are ranked by the load gap between the
source rack's hottest machine and the destination rack's coldest machine
(and both directions of each rack pair are probed).  The historical
ranking by *total* rack load let a large rack of lightly-loaded machines
outrank a small rack containing the true hottest machine, leaving that
machine's load stranded; both solvers carry the fix so they stay in lock
step.  See ``docs/performance.md``.

It also keeps the heap transcription of Algorithm 3,
:func:`reference_compute_replication_factors`: one lazily refreshed
max-heap of receivers and one min-heap of donors, both ``heapify``-ed
from a tuple per block.  :func:`repro.core.rep_factor.compute_replication_factors`
must pop in exactly its order and return identical results, which
``tests/core/test_rep_factor.py`` pins.

Deliberately NOT exported from :mod:`repro.core` — production callers
should use :func:`repro.core.local_search.balance_node_level` /
:func:`repro.core.local_search.balance_rack_aware` /
:func:`repro.core.rep_factor.compute_replication_factors`.
"""

from __future__ import annotations

import bisect
import heapq
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.admissibility import AdmissibilityPolicy, AlwaysAdmissible
from repro.core.local_search import SearchStats
from repro.core.operations import MoveOp, Operation, SwapOp
from repro.core.placement import PlacementState
from repro.core.rep_factor import RepFactorResult, max_share
from repro.errors import InvalidProblemError

__all__ = [
    "reference_balance_node_level",
    "reference_balance_rack_aware",
    "reference_compute_replication_factors",
    "reference_find_operation_between",
]

_TOLERANCE = 1e-12


def _argmax_machine(state: PlacementState) -> int:
    """Highest-loaded machine by direct scan (first index on ties)."""
    return int(state.loads().argmax())


def _argmin_machine(state: PlacementState) -> int:
    """Lowest-loaded machine by direct scan (first index on ties)."""
    return int(state.loads().argmin())


def _argmax_in_rack(state: PlacementState, rack: int) -> int:
    """Hottest machine of ``rack`` by direct scan."""
    members = state.topology.machines_in_rack(rack)
    return max(members, key=state.load)


def _argmin_in_rack(state: PlacementState, rack: int) -> int:
    """Coldest machine of ``rack`` by direct scan."""
    members = state.topology.machines_in_rack(rack)
    return min(members, key=state.load)


def _exclusive_blocks(
    state: PlacementState, machine: int, other: int
) -> List[Tuple[float, int]]:
    """Blocks on ``machine`` but not on ``other``, as sorted (share, id)."""
    other_blocks = state.blocks_on(other)
    pairs = [
        (state.share(block_id), block_id)
        for block_id in state.blocks_on(machine)
        if block_id not in other_blocks
    ]
    pairs.sort()
    return pairs


def _find_swap_partner(
    state: PlacementState,
    policy: AdmissibilityPolicy,
    global_cost: float,
    block_i: int,
    share_i: float,
    src: int,
    dst: int,
    dst_candidates: List[Tuple[float, int]],
    gap: float,
    stats: Optional[SearchStats] = None,
) -> Optional[SwapOp]:
    """Best feasible, admissible swap partner for ``block_i`` on ``dst``.

    A swap transfers net load ``share_i - share_j`` from ``src`` to
    ``dst``; it strictly improves the pair cost iff ``share_j`` lies in
    the open window ``(share_i - gap, share_i)``.  The pair cost after is
    minimized at ``share_j = share_i - gap/2``, so candidates are probed
    outward from that ideal value.
    """
    if not dst_candidates:
        return None
    ideal = share_i - gap / 2.0
    lower = share_i - gap
    center = bisect.bisect_left(dst_candidates, (ideal, -1))
    left = center - 1
    right = center
    num = len(dst_candidates)
    while left >= 0 or right < num:
        candidates = []
        if left >= 0:
            candidates.append(dst_candidates[left])
        if right < num:
            candidates.append(dst_candidates[right])
        # probe the candidate nearest the ideal share first
        candidates.sort(key=lambda pair: abs(pair[0] - ideal))
        for share_j, block_j in candidates:
            if not lower + _TOLERANCE < share_j < share_i - _TOLERANCE:
                continue
            op = SwapOp(block_i=block_i, src=src, block_j=block_j, dst=dst)
            if not op.is_feasible(state):
                continue
            outcome = op.outcome(state)
            if policy.is_admissible(outcome, global_cost):
                return op
            if stats is not None:
                stats.admissibility_rejections += 1
        if left >= 0 and dst_candidates[left][0] <= lower:
            left = -1
        else:
            left -= 1
        if right < num and dst_candidates[right][0] >= share_i:
            right = num
        else:
            right += 1
    return None


def reference_find_operation_between(
    state: PlacementState,
    src: int,
    dst: int,
    policy: AdmissibilityPolicy,
    global_cost: float,
    stats: Optional[SearchStats] = None,
) -> Optional[Operation]:
    """Naive ``Move``/``Swap`` probe: rebuilds both candidate lists."""
    load_src = state.load(src)
    load_dst = state.load(dst)
    gap = load_src - load_dst
    if gap <= _TOLERANCE:
        return None
    src_blocks = _exclusive_blocks(state, src, dst)
    dst_blocks = _exclusive_blocks(state, dst, src)
    for share_i, block_i in reversed(src_blocks):
        if share_i <= _TOLERANCE:
            break
        move = MoveOp(block=block_i, src=src, dst=dst)
        if move.is_feasible(state):
            outcome = move.outcome(state)
            if policy.is_admissible(outcome, global_cost):
                return move
            if stats is not None:
                stats.admissibility_rejections += 1
        swap = _find_swap_partner(
            state,
            policy,
            global_cost,
            block_i,
            share_i,
            src,
            dst,
            dst_blocks,
            gap,
            stats,
        )
        if swap is not None:
            return swap
    return None


def _rack_pairs_by_gap(state: PlacementState) -> List[Tuple[int, int]]:
    """Ordered rack pairs ranked by extreme-machine load gap (naive scans)."""
    racks = state.topology.racks
    if state.topology.num_racks < 2:
        return []
    hottest = [state.load(_argmax_in_rack(state, rack)) for rack in racks]
    coldest = [state.load(_argmin_in_rack(state, rack)) for rack in racks]
    ranked = []
    for src_rack in racks:
        for dst_rack in racks:
            if src_rack == dst_rack:
                continue
            gap = hottest[src_rack] - coldest[dst_rack]
            if gap > _TOLERANCE:
                ranked.append((-gap, src_rack, dst_rack))
    ranked.sort()
    return [(src_rack, dst_rack) for _, src_rack, dst_rack in ranked]


def _find_rack_aware_operation(
    state: PlacementState,
    policy: AdmissibilityPolicy,
    global_cost: float,
    stats: Optional[SearchStats] = None,
) -> Optional[Operation]:
    """One admissible operation for Algorithm 2's combined search space."""
    intra = []
    for rack in state.topology.racks:
        high = _argmax_in_rack(state, rack)
        low = _argmin_in_rack(state, rack)
        gap = state.load(high) - state.load(low)
        if gap > _TOLERANCE:
            intra.append((gap, high, low))
    intra.sort(reverse=True)
    for _, high, low in intra:
        op = reference_find_operation_between(
            state, high, low, policy, global_cost, stats
        )
        if op is not None:
            return op
    for src_rack, dst_rack in _rack_pairs_by_gap(state):
        src = _argmax_in_rack(state, src_rack)
        dst = _argmin_in_rack(state, dst_rack)
        op = reference_find_operation_between(
            state, src, dst, policy, global_cost, stats
        )
        if op is not None:
            return op
    return None


def reference_balance_node_level(
    state: PlacementState,
    policy: Optional[AdmissibilityPolicy] = None,
    max_operations: Optional[int] = None,
    log_operations: bool = False,
) -> SearchStats:
    """Algorithm 1, verbatim: scan extremes, probe, apply, repeat."""
    policy = policy or AlwaysAdmissible()
    started = time.perf_counter()
    stats = SearchStats(initial_cost=state.cost(), final_cost=state.cost())
    while max_operations is None or stats.total_operations < max_operations:
        stats.iterations += 1
        src = _argmax_machine(state)
        dst = _argmin_machine(state)
        op = reference_find_operation_between(
            state, src, dst, policy, state.cost(), stats
        )
        if op is None:
            stats.converged = True
            break
        cross = op.is_cross_rack(state)
        op.apply(state)
        stats.record(op, cross, log_operations)
        if log_operations:
            stats.cost_trajectory.append(state.cost())
    stats.final_cost = state.cost()
    stats.elapsed_seconds = time.perf_counter() - started
    return stats


def reference_balance_rack_aware(
    state: PlacementState,
    policy: Optional[AdmissibilityPolicy] = None,
    max_operations: Optional[int] = None,
    log_operations: bool = False,
) -> SearchStats:
    """Algorithm 2, verbatim: full pair sweep per applied operation."""
    policy = policy or AlwaysAdmissible()
    started = time.perf_counter()
    stats = SearchStats(initial_cost=state.cost(), final_cost=state.cost())
    while max_operations is None or stats.total_operations < max_operations:
        stats.iterations += 1
        op = _find_rack_aware_operation(state, policy, state.cost(), stats)
        if op is None:
            stats.converged = True
            break
        cross = op.is_cross_rack(state)
        op.apply(state)
        stats.record(op, cross, log_operations)
        if log_operations:
            stats.cost_trajectory.append(state.cost())
    stats.final_cost = state.cost()
    stats.elapsed_seconds = time.perf_counter() - started
    return stats


def reference_compute_replication_factors(
    popularities: Mapping[int, float],
    min_factors: Mapping[int, int],
    budget: int,
    num_machines: int,
    initial_factors: Optional[Mapping[int, int]] = None,
    max_iterations: Optional[int] = None,
) -> RepFactorResult:
    """Algorithm 3 over two heapified lists of per-block tuples.

    Same parameters and result as
    :func:`repro.core.rep_factor.compute_replication_factors`, without
    its metrics and logging.
    """
    started = time.perf_counter()
    block_ids = list(popularities)
    if set(min_factors) != set(block_ids):
        raise InvalidProblemError("popularities and min_factors must share keys")
    min_total = sum(min_factors.values())
    if budget < min_total:
        raise InvalidProblemError(
            f"budget {budget} below the minimum replica total {min_total}"
        )
    for block_id in block_ids:
        if min_factors[block_id] < 1:
            raise InvalidProblemError(f"block {block_id}: min factor must be >= 1")
        if min_factors[block_id] > num_machines:
            raise InvalidProblemError(
                f"block {block_id}: min factor exceeds machine count"
            )
        if popularities[block_id] < 0:
            raise InvalidProblemError(
                f"block {block_id}: popularity must be non-negative"
            )

    factors: Dict[int, int] = {}
    for block_id in block_ids:
        start = (initial_factors or min_factors).get(block_id, min_factors[block_id])
        factors[block_id] = max(min_factors[block_id], min(int(start), num_machines))
    used = sum(factors.values())
    if used > budget:
        # Trim the lowest-share blocks back towards their minima until the
        # starting point is feasible.
        trim_order = sorted(
            block_ids, key=lambda b: popularities[b] / factors[b]
        )
        for block_id in trim_order:
            while used > budget and factors[block_id] > min_factors[block_id]:
                factors[block_id] -= 1
                used -= 1
        if used > budget:
            raise InvalidProblemError("initial factors cannot fit the budget")

    # Max-heap on per-replica popularity (receiver side); lazily refreshed.
    def share(block_id: int) -> float:
        return popularities[block_id] / factors[block_id]

    receiver_heap = [(-share(b), b, factors[b]) for b in block_ids]
    heapq.heapify(receiver_heap)
    # Min-heap of donor shares after a hypothetical steal.
    donor_heap = [
        (popularities[b] / (factors[b] - 1), b, factors[b])
        for b in block_ids
        if factors[b] > min_factors[b]
    ]
    heapq.heapify(donor_heap)

    iterations = 0
    grants = 0
    steals = 0
    while max_iterations is None or iterations < max_iterations:
        # Pop the highest-share block that can still receive a replica,
        # skipping stale entries.  Blocks at the machine cap (or with
        # zero popularity) are dropped from consideration: the paper's
        # Lemma 7 lets the leftover budget flow to the next-hottest
        # blocks without affecting optimality.
        receiver = None
        while receiver_heap:
            neg_share, block_id, stamp = heapq.heappop(receiver_heap)
            if stamp != factors[block_id]:
                continue
            if factors[block_id] >= num_machines or neg_share == 0.0:
                continue
            receiver = block_id
            break
        if receiver is None:
            break
        current_max = share(receiver)
        if used < budget:
            factors[receiver] += 1
            used += 1
            iterations += 1
            grants += 1
            _push_block(receiver_heap, donor_heap, popularities, min_factors,
                        factors, receiver)
            continue
        # Budget exhausted: steal from the donor with the smallest
        # post-steal share, provided that share stays strictly below the
        # current maximum.
        donor = None
        while donor_heap:
            post_share, block_id, stamp = heapq.heappop(donor_heap)
            if stamp != factors[block_id] or factors[block_id] <= min_factors[block_id]:
                continue
            if block_id == receiver:
                # A block never donates to itself; re-queue and look deeper.
                requeue = (post_share, block_id, stamp)
                donor = _pop_second_donor(donor_heap, factors, min_factors)
                heapq.heappush(donor_heap, requeue)
                break
            donor = (post_share, block_id)
            break
        if donor is None:
            heapq.heappush(
                receiver_heap, (-current_max, receiver, factors[receiver])
            )
            break
        post_share, donor_id = donor
        if post_share >= current_max:
            # Optimality certificate (Theorem 8): every possible steal
            # raises some block to at least the current maximum.
            heapq.heappush(receiver_heap, (-current_max, receiver, factors[receiver]))
            heapq.heappush(donor_heap, (post_share, donor_id, factors[donor_id]))
            break
        factors[donor_id] -= 1
        factors[receiver] += 1
        iterations += 1
        steals += 1
        _push_block(receiver_heap, donor_heap, popularities, min_factors,
                    factors, donor_id)
        _push_block(receiver_heap, donor_heap, popularities, min_factors,
                    factors, receiver)

    return RepFactorResult(
        factors=factors,
        max_share=max_share(popularities, factors),
        iterations=iterations,
        budget_used=used,
        exhausted_budget=used >= budget,
        grants=grants,
        steals=steals,
        elapsed_seconds=time.perf_counter() - started,
    )


def _push_block(receiver_heap, donor_heap, popularities, min_factors, factors,
                block_id) -> None:
    """Refresh both heaps after ``block_id``'s factor changed."""
    count = factors[block_id]
    heapq.heappush(receiver_heap, (-(popularities[block_id] / count), block_id, count))
    if count > min_factors[block_id]:
        heapq.heappush(
            donor_heap, (popularities[block_id] / (count - 1), block_id, count)
        )


def _pop_second_donor(donor_heap, factors, min_factors):
    """Next valid donor after skipping the heap head, or ``None``."""
    while donor_heap:
        post_share, block_id, stamp = heapq.heappop(donor_heap)
        if stamp != factors[block_id] or factors[block_id] <= min_factors[block_id]:
            continue
        return (post_share, block_id)
    return None
