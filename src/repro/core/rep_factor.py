"""Replication-factor computation: Algorithm 3 / the Rep-Factor program.

Given block popularities ``P_i``, minimum factors ``k_low_i``, the machine
count ``|M|`` and a global replication budget ``beta``, the Rep-Factor
program chooses integer replication factors ``k_i`` minimizing the maximum
per-replica popularity ``max_i P_i / k_i``.

Algorithm 3 of the paper solves Rep-Factor optimally (Theorem 8) by greedy
water-filling: repeatedly take the block with the highest per-replica
popularity and give it one more replica — either from unused budget, or by
stealing a replica from a block ``l`` whose per-replica popularity after
the steal, ``P_l / (k_l - 1)``, does not exceed the current maximum.

Implementation notes
--------------------
* The steal is only performed when it *strictly* lowers the donor below
  the current maximum; at equality the maximum provably cannot be reduced
  further (the optimality condition in the proof of Theorem 8), so the
  algorithm stops.  This guard also guarantees termination: each steal
  strictly shrinks the multiset of shares at the current maximum.
* Factors are capped at ``|M|`` (a block cannot have two replicas on one
  machine).
* The per-block set-up is numpy work over columns in ``popularities``
  order: validation, start factors, the trim and the final maximum
  share.  The receiver and donor queues are each a static run sorted
  once with ``np.lexsort`` plus a small overlay heap for the entries
  pushed after a factor changes, instead of a ``heapify``-ed list of one
  tuple per block; a pop takes the smaller head, compared as the same
  ``(key, block_id, stamp)`` tuples, so the pop order is exactly that of
  one heap.  The heap transcription is kept as a test oracle,
  :func:`repro.core.reference.reference_compute_replication_factors`.
  The Theorem 8 guard above is unchanged.
* :func:`verify_optimal_factors` checks the optimality certificate and is
  used by the tests.
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.instance import PlacementProblem
from repro.errors import InvalidProblemError
from repro.obs.registry import get_registry

_LOG = logging.getLogger(__name__)

# Static queue entries made into tuples at a time (see _Run).
_CHUNK = 1024

_REG = get_registry()
_REPFACTOR_RUNS = _REG.counter(
    "repro_core_repfactor_runs_total",
    "Algorithm 3 (water-filling) invocations, by termination cause",
    ["outcome"],
)
_REPFACTOR_ITERATIONS = _REG.counter(
    "repro_core_repfactor_iterations_total",
    "Greedy water-filling steps performed, split into grants and steals",
    ["kind"],
)
_REPFACTOR_SECONDS = _REG.histogram(
    "repro_core_repfactor_seconds",
    "Wall-clock duration of one Algorithm 3 run",
)

__all__ = [
    "RepFactorResult",
    "compute_replication_factors",
    "factors_for_problem",
    "verify_optimal_factors",
    "max_share",
]


@dataclass(frozen=True)
class RepFactorResult:
    """Solution of the Rep-Factor program.

    ``factors`` maps block id to the chosen ``k_i``; ``iterations`` counts
    the greedy steps (grants plus steals) performed, which Algorithm 5
    caps at ``K``.  ``grants``/``steals`` split those steps by kind and
    ``elapsed_seconds`` is the run's wall-clock duration.
    """

    factors: Dict[int, int]
    max_share: float
    iterations: int
    budget_used: int
    exhausted_budget: bool
    grants: int = 0
    steals: int = 0
    elapsed_seconds: float = 0.0


def max_share(popularities: Mapping[int, float], factors: Mapping[int, int]) -> float:
    """Maximum per-replica popularity ``max_i P_i / k_i`` of an allocation."""
    if not popularities:
        return 0.0
    return max(popularities[i] / factors[i] for i in popularities)


def compute_replication_factors(
    popularities: Mapping[int, float],
    min_factors: Mapping[int, int],
    budget: int,
    num_machines: int,
    initial_factors: Optional[Mapping[int, int]] = None,
    max_iterations: Optional[int] = None,
) -> RepFactorResult:
    """Algorithm 3: optimal replication factors under a global budget.

    Parameters
    ----------
    popularities:
        ``P_i`` per (integer) block id.
    min_factors:
        ``k_low_i`` per block id (node-level reliability requirement).
    budget:
        ``beta`` — upper bound on ``sum_i k_i``.
    num_machines:
        ``|M|`` — upper bound on each ``k_i``.
    initial_factors:
        Starting factors (e.g. the currently deployed ones, for Aurora's
        incremental periods).  Defaults to the minimum factors.  Values
        are clamped into ``[k_low_i, |M|]``.
    max_iterations:
        Optional cap ``K`` on greedy steps, Algorithm 5's
        reconfiguration budget.  When hit, the result is feasible but may
        be sub-optimal (``exhausted_budget`` stays meaningful).
    """
    started = time.perf_counter()
    block_ids = list(popularities)
    num_blocks = len(block_ids)
    if min_factors.keys() != popularities.keys():
        raise InvalidProblemError("popularities and min_factors must share keys")
    mins = np.fromiter(
        map(min_factors.__getitem__, block_ids), np.int64, num_blocks
    )
    min_total = int(mins.sum())
    if budget < min_total:
        raise InvalidProblemError(
            f"budget {budget} below the minimum replica total {min_total}"
        )
    pops = np.fromiter(popularities.values(), np.float64, num_blocks)
    bad = (mins < 1) | (mins > num_machines) | (pops < 0)
    if bad.any():
        row = int(bad.argmax())
        block_id = block_ids[row]
        if mins[row] < 1:
            raise InvalidProblemError(f"block {block_id}: min factor must be >= 1")
        if mins[row] > num_machines:
            raise InvalidProblemError(
                f"block {block_id}: min factor exceeds machine count"
            )
        raise InvalidProblemError(
            f"block {block_id}: popularity must be non-negative"
        )

    factors = _start_factors(block_ids, mins, num_machines, initial_factors)
    used = int(factors.sum())
    if used > budget:
        # Trim the lowest-share blocks back towards their minima until the
        # starting point is feasible: each block in stable share order
        # gives up what the blocks before it left of the excess.
        order = np.argsort(pops / factors, kind="stable")
        slack = (factors - mins)[order]
        taken = np.clip(used - budget - (np.cumsum(slack) - slack), 0, slack)
        factors[order] -= taken
        used -= int(taken.sum())
        if used > budget:
            raise InvalidProblemError("initial factors cannot fit the budget")

    ids = np.fromiter(block_ids, np.int64, num_blocks)
    # Receivers by falling per-replica popularity, donors by rising
    # post-steal share; ties to the lower block id, as tuples order.
    receivers = _Run(-(pops / factors), ids, factors, np.arange(num_blocks))
    donor = factors > mins
    donors = _Run(
        pops[donor] / (factors[donor] - 1), ids[donor], factors[donor],
        np.flatnonzero(donor),
    )
    pop_of, min_of, current = pops.tolist(), mins.tolist(), factors.tolist()

    def push(row: int) -> None:
        """Queue ``row``'s entries after its factor changed."""
        count = current[row]
        popularity = pop_of[row]
        block_id = block_ids[row]
        receivers.push((-(popularity / count), block_id, count, row))
        if count > min_of[row]:
            donors.push((popularity / (count - 1), block_id, count, row))

    def pop_donor() -> Optional[tuple]:
        """The next donor entry that is current and above its minimum."""
        entry = donors.pop()
        while entry is not None:
            _, _, stamp, row = entry
            if stamp == current[row] and stamp > min_of[row]:
                break
            entry = donors.pop()
        return entry

    iterations = 0
    grants = 0
    steals = 0
    while max_iterations is None or iterations < max_iterations:
        # Pop the highest-share block that can still receive a replica,
        # skipping stale entries.  Blocks at the machine cap (or with
        # zero popularity) are dropped from consideration: the paper's
        # Lemma 7 lets the leftover budget flow to the next-hottest
        # blocks without affecting optimality.
        entry = receivers.pop()
        while entry is not None:
            neg_share, _, stamp, row = entry
            if stamp == current[row] and stamp < num_machines and neg_share != 0.0:
                break
            entry = receivers.pop()
        if entry is None:
            break
        receiver = entry[3]
        current_max = pop_of[receiver] / current[receiver]
        if used < budget:
            current[receiver] += 1
            used += 1
            iterations += 1
            grants += 1
            push(receiver)
            continue
        # Budget exhausted: steal from the donor with the smallest
        # post-steal share, provided that share stays strictly below the
        # current maximum.
        entry = pop_donor()
        if entry is not None and entry[3] == receiver:
            # A block never donates to itself; re-queue and look deeper.
            second = pop_donor()
            donors.push(entry)
            entry = second
        if entry is None or entry[0] >= current_max:
            # No donor, or the optimality certificate (Theorem 8): every
            # possible steal raises some block to at least the current
            # maximum.
            break
        donor_row = entry[3]
        current[donor_row] -= 1
        current[receiver] += 1
        iterations += 1
        steals += 1
        push(donor_row)
        push(receiver)

    elapsed = time.perf_counter() - started
    capped = max_iterations is not None and iterations >= max_iterations
    if _REG.enabled:
        _REPFACTOR_RUNS.labels(
            outcome="capped" if capped else "optimal"
        ).inc()
        if grants:
            _REPFACTOR_ITERATIONS.labels(kind="grant").inc(grants)
        if steals:
            _REPFACTOR_ITERATIONS.labels(kind="steal").inc(steals)
        _REPFACTOR_SECONDS.observe(elapsed)
    _LOG.debug(
        "rep-factor done blocks=%d iterations=%d grants=%d steals=%d "
        "budget_used=%d/%d elapsed=%.4fs",
        num_blocks, iterations, grants, steals, used, budget, elapsed,
    )
    final = np.array(current, dtype=np.int64)
    return RepFactorResult(
        factors=dict(zip(block_ids, current)),
        max_share=float((pops / final).max()) if num_blocks else 0.0,
        iterations=iterations,
        budget_used=used,
        exhausted_budget=used >= budget,
        grants=grants,
        steals=steals,
        elapsed_seconds=elapsed,
    )


def _start_factors(
    block_ids: Sequence[int],
    mins: np.ndarray,
    num_machines: int,
    initial_factors: Optional[Mapping[int, int]],
) -> np.ndarray:
    """``max(k_low, min(int(start), |M|))`` per block, ``start`` defaulting
    to ``k_low``; raises what ``int()`` raises on a NaN or infinite start."""
    if not initial_factors:
        return mins.copy()  # validated to lie in [1, |M|]
    starts = np.fromiter(
        map(initial_factors.get, block_ids, mins.tolist()), np.float64,
        len(block_ids),
    )
    finite = np.isfinite(starts)
    if not finite.all():
        int(starts[int(finite.argmin())])
    # Clamping before the cast keeps int()'s truncation for every start.
    return np.maximum(
        mins, np.minimum(np.trunc(starts), num_machines)
    ).astype(np.int64)


class _Run:
    """A min-queue of ``(key, block_id, stamp, row)`` entries.

    The entries given at construction form a static run, sorted once by
    ``(key, block_id)`` with ``np.lexsort`` (block ids are unique, so
    that is their full tuple order) and turned into tuples
    ``_CHUNK`` at a time as the queue reaches them; entries pushed later
    go to a small heap.  :meth:`pop` takes the smaller of the two heads,
    so entries leave in exactly the order one heap holding all of them
    would give.
    """

    __slots__ = ("_columns", "_size", "_chunk", "_chunk_start", "_next",
                 "_heap")

    def __init__(
        self,
        keys: np.ndarray,
        ids: np.ndarray,
        stamps: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        order = np.lexsort((ids, keys))
        self._columns = [column[order] for column in (keys, ids, stamps, rows)]
        self._size = order.size
        self._chunk: List[tuple] = []
        self._chunk_start = -1
        self._next = 0  # static entries taken so far
        self._heap: List[tuple] = []

    def push(self, entry: tuple) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self) -> Optional[tuple]:
        """Remove and return the smallest entry, or ``None`` when empty."""
        heap, index = self._heap, self._next
        if index < self._size:
            start = index - index % _CHUNK
            if start != self._chunk_start:
                self._chunk = list(zip(*(
                    column[start:start + _CHUNK].tolist()
                    for column in self._columns
                )))
                self._chunk_start = start
            head = self._chunk[index - start]
            if not heap or head <= heap[0]:
                self._next = index + 1
                return head
        elif not heap:
            return None
        return heapq.heappop(heap)


def factors_for_problem(
    problem: PlacementProblem,
    initial_factors: Optional[Mapping[int, int]] = None,
    max_iterations: Optional[int] = None,
) -> RepFactorResult:
    """Run Algorithm 3 on a BP-Replicate problem instance."""
    if problem.replication_budget is None:
        raise InvalidProblemError(
            "problem has no replication budget; Rep-Factor applies to "
            "BP-Replicate instances only"
        )
    popularities = {spec.block_id: spec.popularity for spec in problem}
    min_factors = {spec.block_id: spec.replication_factor for spec in problem}
    return compute_replication_factors(
        popularities,
        min_factors,
        budget=problem.replication_budget,
        num_machines=problem.topology.num_machines,
        initial_factors=initial_factors,
        max_iterations=max_iterations,
    )


def verify_optimal_factors(
    popularities: Mapping[int, float],
    min_factors: Mapping[int, int],
    factors: Mapping[int, int],
    budget: int,
    num_machines: int,
    tolerance: float = 1e-9,
) -> bool:
    """Check Algorithm 3's optimality certificate.

    An allocation is optimal iff the max-share block cannot be granted a
    replica from spare budget, and every steal from another block would
    raise that donor to at least the current maximum.
    """
    current = max_share(popularities, factors)
    if current == 0.0:
        return True
    top_blocks = [
        b for b in popularities
        if abs(popularities[b] / factors[b] - current) <= tolerance
    ]
    used = sum(factors.values())
    for top in top_blocks:
        if factors[top] >= num_machines:
            continue
        if used < budget:
            return False
        for donor in popularities:
            if donor == top or factors[donor] <= min_factors[donor]:
                continue
            if popularities[donor] / (factors[donor] - 1) < current - tolerance:
                return False
    return True
