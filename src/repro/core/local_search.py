"""Local-search load balancing: Algorithms 1 and 2, incremental engine.

* :func:`balance_node_level` implements **Algorithm 1** for BP-Node:
  repeatedly take the highest- and lowest-loaded machines ``(m, n)`` and
  perform a ``Move(m, i, n)`` or ``Swap(m, i, n, j)`` that improves the
  solution, until no admissible operation exists.  With the
  :class:`~repro.core.admissibility.AlwaysAdmissible` policy this is a
  2-approximation (Theorem 2 / Corollary 3).
* :func:`balance_rack_aware` implements **Algorithm 2** for BP-Rack: per
  rack it balances the intra-rack extremes, and across rack pairs it
  performs ``RackMove``/``RackSwap`` operations, giving a 4-approximation
  (Theorem 4 / Corollary 5).  Operations never violate a block's
  rack-spread requirement — feasibility is checked by the placement
  state.

Both run on an *incremental engine* that is operation-for-operation
identical to the naive transcription in :mod:`repro.core.reference`
(pinned by ``tests/core/test_differential.py``) but does per-iteration
work proportional to what the last operation changed:

* machine extremes and the global objective are numpy reductions over
  the placement state's load vector, and every rack's extremes come
  from its dirty-rack cache
  (:meth:`~repro.core.placement.PlacementState.rack_extremes`), so
  Algorithm 2 ranks racks with array sorts instead of Python scans;
* candidate blocks are walked directly on the state's persistent
  per-machine ``(share, block_id)`` indices, skipping shared blocks
  inline, instead of rebuilding sorted exclusive lists per machine pair;
* a :class:`_PairPruner` (and, for the intra-rack sweep, the array
  :class:`_IntraRackMemo`) memoizes machine pairs proven exhausted, keyed
  on both endpoints' change epochs and the current objective, so the
  rack-pair sweep only re-probes pairs something actually touched;
* the objective is threaded through the loop and refreshed only after an
  operation is applied — it cannot change otherwise.

Termination: every applied operation strictly reduces ``max(L_m, L_n)``
of its endpoint pair, which strictly decreases the sum of squared machine
loads; with finitely many configurations the search cannot cycle.  A
``max_operations`` cap is still supported for Aurora's budgeted periodic
runs (Algorithm 5).
"""

from __future__ import annotations

import bisect
import heapq
import logging
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.admissibility import (
    AdmissibilityPolicy,
    AlwaysAdmissible,
    RelativeCostPolicy,
    RelativeGapPolicy,
)
from repro.core.operations import MoveOp, Operation, OperationOutcome, SwapOp
from repro.core.placement import PlacementState
from repro.obs.registry import get_registry

__all__ = ["SearchStats", "balance_node_level", "balance_rack_aware"]

_TOLERANCE = 1e-12

_LOG = logging.getLogger(__name__)

_REG = get_registry()
_SEARCH_RUNS = _REG.counter(
    "repro_core_search_runs_total",
    "Local-search runs, by algorithm and whether they converged",
    ["algorithm", "converged"],
)
_SEARCH_OPS = _REG.counter(
    "repro_core_search_operations_total",
    "Applied local-search operations by kind (Algorithms 1/2)",
    ["algorithm", "kind"],
)
_SEARCH_REJECTIONS = _REG.counter(
    "repro_core_search_rejections_total",
    "Feasible operations rejected by the admissibility policy",
    ["algorithm"],
)
_SEARCH_SECONDS = _REG.histogram(
    "repro_core_search_seconds",
    "Wall-clock duration of one local-search run",
    ["algorithm"],
)
_SEARCH_COST_REDUCTION = _REG.histogram(
    "repro_core_search_cost_reduction_ratio",
    "Relative cost reduction (1 - final/initial) achieved per run",
    ["algorithm"],
    buckets=(0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
)
_SEARCH_PAIR_PROBES = _REG.counter(
    "repro_core_search_pair_probes_total",
    "Machine-pair probes by the incremental engine, split by whether the "
    "epoch memo pruned the probe",
    ["algorithm", "outcome"],
)
_STATE_BYTES = _REG.gauge(
    "repro_core_state_bytes",
    "Approximate resident bytes of the placement state's structures, "
    "sampled after each local-search run",
)


def _flush_search_metrics(
    algorithm: str, stats: "SearchStats", state: Optional[PlacementState] = None
) -> None:
    """Publish one run's stats to the registry (one flush per run,

    so the search loop itself stays free of metric calls)."""
    if not _REG.enabled:
        return
    if state is not None:
        _STATE_BYTES.set(state.state_bytes())
    _SEARCH_RUNS.labels(
        algorithm=algorithm, converged=str(stats.converged).lower()
    ).inc()
    for kind, count in stats.operations_by_kind.items():
        if count:
            _SEARCH_OPS.labels(algorithm=algorithm, kind=kind).inc(count)
    if stats.admissibility_rejections:
        _SEARCH_REJECTIONS.labels(algorithm=algorithm).inc(
            stats.admissibility_rejections
        )
    _SEARCH_SECONDS.labels(algorithm=algorithm).observe(stats.elapsed_seconds)
    if stats.pairs_probed:
        _SEARCH_PAIR_PROBES.labels(algorithm=algorithm, outcome="probed").inc(
            stats.pairs_probed
        )
    if stats.pairs_pruned:
        _SEARCH_PAIR_PROBES.labels(algorithm=algorithm, outcome="pruned").inc(
            stats.pairs_pruned
        )
    if stats.initial_cost > 0:
        _SEARCH_COST_REDUCTION.labels(algorithm=algorithm).observe(
            max(0.0, 1.0 - stats.final_cost / stats.initial_cost)
        )


@dataclass
class SearchStats:
    """Outcome of one local-search run.

    ``converged`` is True when the search stopped because no admissible
    operation existed (the paper's natural termination), False when it hit
    the ``max_operations`` cap.

    ``elapsed_seconds`` is the run's wall-clock duration (perf_counter);
    ``admissibility_rejections`` counts feasible operations the epsilon
    policy turned down; ``cost_trajectory`` records the cost after each
    applied operation when ``log_operations`` is on (index-aligned with
    ``operations``).

    ``pairs_probed``/``pairs_pruned`` account the incremental engine's
    machine-pair probes: a *probe* runs the candidate search between a
    pair, a *prune* skips it because the pair was already proven
    exhausted and neither endpoint changed since.
    """

    initial_cost: float
    final_cost: float
    iterations: int = 0
    moves: int = 0
    swaps: int = 0
    cross_rack_moves: int = 0
    cross_rack_swaps: int = 0
    blocks_transferred: int = 0
    converged: bool = False
    operations: List[Operation] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    admissibility_rejections: int = 0
    cost_trajectory: List[float] = field(default_factory=list)
    pairs_probed: int = 0
    pairs_pruned: int = 0

    @property
    def total_operations(self) -> int:
        """Moves plus swaps performed."""
        return self.moves + self.swaps

    @property
    def operations_by_kind(self) -> Dict[str, int]:
        """Applied operations split into the paper's four kinds.

        Cross-rack moves/swaps are the ``RackMove``/``RackSwap`` of
        Algorithm 2; the plain kinds are the intra-rack remainder.
        """
        return {
            "move": self.moves - self.cross_rack_moves,
            "swap": self.swaps - self.cross_rack_swaps,
            "rack_move": self.cross_rack_moves,
            "rack_swap": self.cross_rack_swaps,
        }

    def record(self, op: Operation, cross_rack: bool, log_operations: bool) -> None:
        """Account one applied operation."""
        if isinstance(op, MoveOp):
            self.moves += 1
            if cross_rack:
                self.cross_rack_moves += 1
        else:
            self.swaps += 1
            if cross_rack:
                self.cross_rack_swaps += 1
        self.blocks_transferred += op.blocks_touched
        if log_operations:
            self.operations.append(op)


def _prev_exclusive(index: Sequence[Tuple[float, int]], i: int, skip) -> int:
    """Largest position ``<= i`` whose block is not in ``skip``, else -1."""
    while i >= 0 and index[i][1] in skip:
        i -= 1
    return i


def _next_exclusive(index: Sequence[Tuple[float, int]], i: int, skip) -> int:
    """Smallest position ``>= i`` whose block is not in ``skip``, else len."""
    num = len(index)
    while i < num and index[i][1] in skip:
        i += 1
    return i


# Dispatch tags for the inlined admissibility fast paths below.
_GENERIC, _ALWAYS, _GAP, _COST = 0, 1, 2, 3


def _policy_mode(policy: AdmissibilityPolicy) -> int:
    """Classify ``policy`` for the candidate loops' inlined arithmetic.

    Exact type checks on purpose: a subclass may override
    ``is_admissible``, so anything unrecognized takes the generic path
    through the real policy object.
    """
    cls = type(policy)
    if cls is AlwaysAdmissible:
        return _ALWAYS
    if cls is RelativeGapPolicy:
        return _GAP
    if cls is RelativeCostPolicy:
        return _COST
    return _GENERIC


def _find_swap_partner(
    state: PlacementState,
    policy: AdmissibilityPolicy,
    global_cost: float,
    block_i: int,
    share_i: float,
    src: int,
    dst: int,
    dst_index: Sequence[Tuple[float, int]],
    center: int,
    src_blocks,
    load_src: float,
    load_dst: float,
    mode: int,
    stats: Optional[SearchStats] = None,
) -> Optional[SwapOp]:
    """Best feasible, admissible swap partner for ``block_i`` on ``dst``.

    A swap transfers net load ``share_i - share_j`` from ``src`` to
    ``dst``; it strictly improves the pair cost iff ``share_j`` lies in
    the open window ``(share_i - gap, share_i)``.  The pair cost after is
    minimized at ``share_j = share_i - gap/2``, so candidates are probed
    outward from that ideal value.

    ``dst_index`` is the destination machine's *full* persistent share
    index; blocks shared with ``src`` (``src_blocks``) are stepped over
    in place, which visits exactly the exclusive blocks in the same order
    a rebuilt exclusive list would.  ``center`` is the position of the
    ideal share in ``dst_index`` (``bisect_left`` on ``(ideal, -1)``),
    found by the caller's window check.

    Preconditions held by the caller (and relied on here): ``src`` and
    ``dst`` differ, ``block_i`` is on ``src`` but not on ``dst``, every
    probed ``block_j`` is on ``dst`` but not on ``src``, and some entry
    of ``dst_index`` lies inside the window — so of
    :meth:`~repro.core.placement.PlacementState.can_swap` only the two
    rack-spread clauses remain to be checked.  The ``block_i`` clause
    does not depend on the partner and is checked once up front
    (infeasible candidates are never counted as rejections, so bailing
    out early is stats-neutral); the outcome loads are computed from the
    shares already in hand with the same expressions
    ``SwapOp.outcome`` uses, keeping every float bit-identical.
    """
    keeps_spread = state._relocation_keeps_spread
    if not keeps_spread(block_i, src, dst):
        return None
    gap = load_src - load_dst
    ideal = share_i - gap / 2.0
    lower = share_i - gap
    lower_bar = lower + _TOLERANCE
    upper_bar = share_i - _TOLERANCE
    num = len(dst_index)
    pair_before = load_src if load_src >= load_dst else load_dst
    improve_bar = pair_before - _TOLERANCE
    if mode == _GAP:
        gap_bar = (1.0 - policy.epsilon) * abs(load_src - load_dst) + _TOLERANCE
    elif mode == _COST:
        src_at_max = not (load_src < global_cost - _TOLERANCE)
        cost_bar = (1.0 - policy.epsilon) * global_cost + _TOLERANCE
    rejections = 0
    left = _prev_exclusive(dst_index, center - 1, src_blocks)
    right = _next_exclusive(dst_index, center, src_blocks)
    while left >= 0 or right < num:
        # probe the candidate nearest the ideal share first (ties: left)
        if left < 0:
            candidates = (dst_index[right],)
        elif right >= num:
            candidates = (dst_index[left],)
        elif abs(dst_index[right][0] - ideal) < abs(dst_index[left][0] - ideal):
            candidates = (dst_index[right], dst_index[left])
        else:
            candidates = (dst_index[left], dst_index[right])
        for share_j, block_j in candidates:
            if not lower_bar < share_j < upper_bar:
                continue
            if not keeps_spread(block_j, dst, src):
                continue
            src_after = load_src - share_i + share_j
            dst_after = load_dst + share_i - share_j
            pair_after = src_after if src_after >= dst_after else dst_after
            if mode == _GAP:
                admissible = (
                    pair_after < improve_bar
                    and abs(src_after - dst_after) <= gap_bar
                )
            elif mode == _ALWAYS:
                admissible = pair_after < improve_bar
            elif mode == _COST:
                admissible = (
                    pair_after < improve_bar
                    and src_at_max
                    and pair_after <= cost_bar
                )
            else:
                admissible = policy.is_admissible(
                    OperationOutcome(
                        src_load_before=load_src,
                        dst_load_before=load_dst,
                        src_load_after=src_after,
                        dst_load_after=dst_after,
                    ),
                    global_cost,
                )
            if admissible:
                if rejections and stats is not None:
                    stats.admissibility_rejections += rejections
                return SwapOp(block_i=block_i, src=src, block_j=block_j, dst=dst)
            rejections += 1
        if left >= 0 and dst_index[left][0] <= lower:
            left = -1
        else:
            left = _prev_exclusive(dst_index, left - 1, src_blocks)
        if right < num and dst_index[right][0] >= share_i:
            right = num
        else:
            right = _next_exclusive(dst_index, right + 1, src_blocks)
    if rejections and stats is not None:
        stats.admissibility_rejections += rejections
    return None


def find_operation_between(
    state: PlacementState,
    src: int,
    dst: int,
    policy: AdmissibilityPolicy,
    global_cost: float,
    stats: Optional[SearchStats] = None,
) -> Optional[Operation]:
    """Find an admissible ``Move`` or ``Swap`` from ``src`` towards ``dst``.

    Blocks exclusive to ``src`` are tried in descending share order — the
    paper's proofs reason about the most popular movable block first.
    For each such block a direct move is attempted, then the best swap
    partner on ``dst``.  Returns ``None`` when no admissible operation
    exists between this machine pair.  When ``stats`` is given, feasible
    operations turned down by ``policy`` are counted on it.

    Candidates come straight from the placement state's persistent share
    indices — nothing is copied, rebuilt or sorted per call.  The move
    feasibility check is reduced to its two non-trivial clauses: the
    destination slot (hoisted — capacity cannot change mid-probe) and
    the rack-spread clause; the index walk already guarantees the
    membership preconditions.  Outcome loads and the stock policies'
    admissibility tests are inlined with expressions bit-identical to
    ``MoveOp.outcome`` / ``policy.is_admissible``, so the chosen
    operation and the rejection count match the object-based path
    exactly (pinned by the differential tests).

    Three shortcuts skip work that cannot change that result:

    * *Empty window.*  :func:`_find_swap_partner` returns a partner, or
      counts a rejection, only for a share strictly inside
      ``(share_i - gap, share_i)`` less the tolerance at both ends, the
      window of an improving swap.  The bisect of ``dst``'s full share
      index at the ideal share ``share_i - gap/2``, where the walk
      starts, splits the index there; an entry inside the window below
      the split makes the entry just below it exceed the lower bar, one
      at or above the split makes the entry at it fall short of the
      upper bar.  If neither neighbour does, no entry of the index
      (exclusive or shared) is inside, and the partner walk and its
      spread precheck, which has no side effect on the result, are
      skipped; otherwise the walk reuses the bisect.
    * *Spread floor 1.*  The spread clause goes through
      :meth:`~repro.core.placement.PlacementState._relocation_keeps_spread`,
      which passes a block with ``rho_i = 1`` without rack arithmetic:
      the block is on the source and absent from the destination, so
      after the relocation the destination's rack holds it.
    * *Checked once.*  ``src`` and ``dst`` are validated here; loads,
      share indexes, block sets and free slots are then read through
      the state's unchecked internals.
    """
    check_machine = state.topology.check_machine
    check_machine(src)
    check_machine(dst)
    loads = state._loads
    load_src = float(loads[src])
    load_dst = float(loads[dst])
    gap = load_src - load_dst
    if gap <= _TOLERANCE:
        return None
    src_index = state._index_of(src)
    dst_index = state._index_of(dst)
    src_blocks = state._blocks_of(src)
    dst_blocks = state._blocks_of(dst)
    num_dst = len(dst_index)
    mode = _policy_mode(policy)
    keeps_spread = state._relocation_keeps_spread
    dst_open = state._used[dst] < state.topology.capacities[dst]
    pair_before = load_src if load_src >= load_dst else load_dst
    improve_bar = pair_before - _TOLERANCE
    if mode == _GAP:
        gap_bar = (1.0 - policy.epsilon) * abs(load_src - load_dst) + _TOLERANCE
    elif mode == _COST:
        src_at_max = not (load_src < global_cost - _TOLERANCE)
        cost_bar = (1.0 - policy.epsilon) * global_cost + _TOLERANCE
    for share_i, block_i in reversed(src_index):
        if block_i in dst_blocks:
            continue
        if share_i <= _TOLERANCE:
            break
        if dst_open and keeps_spread(block_i, src, dst):
            src_after = load_src - share_i
            dst_after = load_dst + share_i
            pair_after = src_after if src_after >= dst_after else dst_after
            if mode == _GAP:
                admissible = (
                    pair_after < improve_bar
                    and abs(src_after - dst_after) <= gap_bar
                )
            elif mode == _ALWAYS:
                admissible = pair_after < improve_bar
            elif mode == _COST:
                admissible = (
                    pair_after < improve_bar
                    and src_at_max
                    and pair_after <= cost_bar
                )
            else:
                admissible = policy.is_admissible(
                    OperationOutcome(
                        src_load_before=load_src,
                        dst_load_before=load_dst,
                        src_load_after=src_after,
                        dst_load_after=dst_after,
                    ),
                    global_cost,
                )
            if admissible:
                return MoveOp(block=block_i, src=src, dst=dst)
            if stats is not None:
                stats.admissibility_rejections += 1
        # The ideal share and window bars as _find_swap_partner computes
        # them; the entries next to the ideal are the window's innermost.
        center = bisect.bisect_left(dst_index, (share_i - gap / 2.0, -1))
        if not (
            (center and dst_index[center - 1][0] > (share_i - gap) + _TOLERANCE)
            or (center < num_dst and dst_index[center][0] < share_i - _TOLERANCE)
        ):
            continue
        swap = _find_swap_partner(
            state,
            policy,
            global_cost,
            block_i,
            share_i,
            src,
            dst,
            dst_index,
            center,
            src_blocks,
            load_src,
            load_dst,
            mode,
            stats,
        )
        if swap is not None:
            return swap
    return None


class _PairPruner:
    """Epoch-keyed memo of machine pairs proven to admit no operation.

    A probe of ``(src, dst)`` that returns ``None`` can only start
    returning something once the probe's inputs change, and every such
    input change bumps a machine epoch (see
    :meth:`~repro.core.placement.PlacementState.machine_epoch`): the
    endpoints' loads and block sets, and the share or rack spread of any
    resident block — mutations bump *all* holders of the touched block
    precisely so remote spread changes invalidate this memo.  The epsilon
    policy may also read the global objective, so the memo additionally
    requires it unchanged.

    Rejections the memoized probe counted are replayed into ``stats`` on
    every prune, keeping `SearchStats` identical to the naive solver's.

    The memo is **bounded**: it keeps at most ``max_entries`` pairs and
    evicts least-recently-touched entries beyond that, so a long run on
    a large cluster (up to ``M^2`` distinct extreme pairs) cannot grow
    it without bound.  Eviction is safe by construction — losing an
    entry only forfeits a prune; the re-probe recomputes the identical
    result and rejection count, so the operation sequence and
    `SearchStats` totals are unaffected (pinned by the differential
    suite and the bounded-memory regression test).
    """

    __slots__ = ("_state", "_memo", "_max_entries")

    #: Default cap on memoized pairs (~100 bytes each -> a few MB).
    DEFAULT_MAX_ENTRIES = 65536

    def __init__(
        self, state: PlacementState, max_entries: Optional[int] = None
    ) -> None:
        self._state = state
        self._memo: "OrderedDict[Tuple[int, int], Tuple[int, int, float, int]]" = (
            OrderedDict()
        )
        self._max_entries = (
            self.DEFAULT_MAX_ENTRIES if max_entries is None else max_entries
        )

    def __len__(self) -> int:
        return len(self._memo)

    def find(
        self,
        src: int,
        dst: int,
        policy: AdmissibilityPolicy,
        global_cost: float,
        stats: Optional[SearchStats],
    ) -> Optional[Operation]:
        """Memoizing wrapper around :func:`find_operation_between`."""
        state = self._state
        key = (src, dst)
        src_epoch = state.machine_epoch(src)
        dst_epoch = state.machine_epoch(dst)
        memo = self._memo.get(key)
        if (
            memo is not None
            and memo[0] == src_epoch
            and memo[1] == dst_epoch
            and memo[2] == global_cost
        ):
            self._memo.move_to_end(key)
            if stats is not None:
                stats.pairs_pruned += 1
                stats.admissibility_rejections += memo[3]
            return None
        rejections_before = stats.admissibility_rejections if stats else 0
        if stats is not None:
            stats.pairs_probed += 1
        op = find_operation_between(state, src, dst, policy, global_cost, stats)
        if op is None:
            rejections = (
                stats.admissibility_rejections - rejections_before
                if stats
                else 0
            )
            self._memo[key] = (src_epoch, dst_epoch, global_cost, rejections)
            self._memo.move_to_end(key)
            while len(self._memo) > self._max_entries:
                self._memo.popitem(last=False)
        elif memo is not None:
            # The pair produced an operation again; its stale no-op
            # record would only waste a slot.
            del self._memo[key]
        return op


class _IntraRackMemo:
    """Vectorized exhausted-pair memo for Algorithm 2's intra-rack phase.

    Stores per rack the last extreme pair ``(src, dst)`` proven to admit
    no operation, with both endpoints' epochs and the objective at proof
    time plus the rejections the probe counted — the array analogue of
    one :class:`_PairPruner` entry.  Because the intra sweep probes at
    most one pair per rack per iteration, a flat ``(R,)`` layout
    suffices, and comparing against the current extreme/epoch columns
    yields the hit mask for the *whole* sweep order in a handful of
    numpy scans instead of one dict lookup per rack.

    Memo organisation cannot change the chosen operation or rejection
    totals (the same argument that makes :class:`_PairPruner` eviction
    safe): a missed hit merely re-probes, and the probe recomputes
    exactly the result and rejections a replay would have reported.
    Only the ``pairs_probed``/``pairs_pruned`` split shifts, which the
    differential suite deliberately does not pin.
    """

    __slots__ = ("src", "dst", "src_ep", "dst_ep", "cost", "rej")

    def __init__(self, num_racks: int) -> None:
        self.src = np.full(num_racks, -1, dtype=np.int64)
        self.dst = np.full(num_racks, -1, dtype=np.int64)
        self.src_ep = np.zeros(num_racks, dtype=np.int64)
        self.dst_ep = np.zeros(num_racks, dtype=np.int64)
        # NaN compares unequal to every objective -> no spurious initial hits.
        self.cost = np.full(num_racks, np.nan, dtype=np.float64)
        self.rej = np.zeros(num_racks, dtype=np.int64)


def _sweep_intra_racks(
    state: PlacementState,
    policy: AdmissibilityPolicy,
    memo: _IntraRackMemo,
    order: np.ndarray,
    high_arr: np.ndarray,
    low_arr: np.ndarray,
    global_cost: float,
    stats: Optional[SearchStats],
) -> Optional[Operation]:
    """Probe the intra-rack extreme pairs in ``order``, memo-accelerated.

    Runs of racks whose memo entry is still valid are skipped in bulk
    (their memoized rejections replayed into ``stats``); only racks that
    changed since their exhaustion proof are actually probed.
    """
    src_arr = high_arr[order]
    dst_arr = low_arr[order]
    epochs = state._machine_epoch
    hit = (
        (memo.src[order] == src_arr)
        & (memo.dst[order] == dst_arr)
        & (memo.src_ep[order] == epochs[src_arr])
        & (memo.dst_ep[order] == epochs[dst_arr])
        & (memo.cost[order] == global_cost)
    )
    pos = 0
    for miss in np.nonzero(~hit)[0]:
        miss = int(miss)
        if stats is not None and miss > pos:
            stats.pairs_pruned += miss - pos
            stats.admissibility_rejections += int(
                memo.rej[order[pos:miss]].sum()
            )
        rack = int(order[miss])
        src = int(src_arr[miss])
        dst = int(dst_arr[miss])
        before = stats.admissibility_rejections if stats is not None else 0
        if stats is not None:
            stats.pairs_probed += 1
        op = find_operation_between(state, src, dst, policy, global_cost, stats)
        if op is not None:
            return op
        memo.src[rack] = src
        memo.dst[rack] = dst
        memo.src_ep[rack] = epochs[src]
        memo.dst_ep[rack] = epochs[dst]
        memo.cost[rack] = global_cost
        memo.rej[rack] = (
            stats.admissibility_rejections - before if stats is not None else 0
        )
        pos = miss + 1
    remaining = len(order) - pos
    if stats is not None and remaining > 0:
        stats.pairs_pruned += remaining
        stats.admissibility_rejections += int(memo.rej[order[pos:]].sum())
    return None


def balance_node_level(
    state: PlacementState,
    policy: Optional[AdmissibilityPolicy] = None,
    max_operations: Optional[int] = None,
    log_operations: bool = False,
) -> SearchStats:
    """Algorithm 1: balance loads with moves/swaps between extremes.

    Mutates ``state`` in place and returns the run's
    :class:`SearchStats`.  ``policy`` defaults to
    :class:`~repro.core.admissibility.AlwaysAdmissible` (the verbatim
    algorithm); pass an epsilon policy for Section IV's budgeted variant.
    """
    policy = policy or AlwaysAdmissible()
    started = time.perf_counter()
    pruner = _PairPruner(state)
    current_cost = state.cost()
    stats = SearchStats(initial_cost=current_cost, final_cost=current_cost)
    while max_operations is None or stats.total_operations < max_operations:
        stats.iterations += 1
        src = state.argmax_machine()
        dst = state.argmin_machine()
        op = pruner.find(src, dst, policy, current_cost, stats)
        if op is None:
            stats.converged = True
            break
        cross = op.is_cross_rack(state)
        op.apply(state)
        current_cost = state.cost()
        stats.record(op, cross, log_operations)
        if log_operations:
            stats.cost_trajectory.append(current_cost)
    stats.final_cost = current_cost
    stats.elapsed_seconds = time.perf_counter() - started
    _flush_search_metrics("node", stats, state)
    _LOG.debug(
        "balance_node_level done ops=%d rejections=%d converged=%s "
        "cost=%.6g->%.6g elapsed=%.4fs",
        stats.total_operations, stats.admissibility_rejections,
        stats.converged, stats.initial_cost, stats.final_cost,
        stats.elapsed_seconds,
    )
    return stats


def _ranked_rack_pairs_lazy(
    hottest: np.ndarray, coldest: np.ndarray
) -> Iterator[Tuple[int, int]]:
    """Inter-rack pairs, largest extreme-machine load gap first, lazily.

    ``hottest[r]``/``coldest[r]`` are rack ``r``'s extreme machine loads.
    The gap between the source rack's hottest machine and the
    destination rack's coldest machine bounds what an inter-rack
    operation between the pair's extremes can achieve.  Ranking by
    *total* rack load would let a large rack of lightly-loaded machines
    outrank a small rack containing the true hottest machine, stranding
    its load; see the heterogeneous-rack regression test.  Pairs with no
    positive gap cannot yield an improving operation and are dropped.

    Enumerates ``(src_rack, dst_rack)`` in ascending ``(-gap, src, dst)``
    order — the eager tuple sort of the reference solver's
    ``_rack_pairs_by_gap`` — without materializing the ``R^2`` pair
    matrix: racks are sorted once by hottest (descending) and coldest
    (ascending) load, and a frontier heap walks the implied sorted-sum
    grid (the classic lazy "sorted A + B" enumeration).  Float
    subtraction is monotone, so gaps never increase along a grid row or
    column and every unvisited cell's gap is at most that of some
    frontier cell.  Distinct loads can still round to the *same* gap,
    though, and such tied cells need not reach the frontier in rack-id
    order; so all cells of the current largest gap are drained first and
    yielded sorted by ``(src, dst)``.  Pairs stop at the first
    non-positive gap (everything after is smaller still).

    Most Algorithm 2 iterations consume only the first few pairs before
    finding an operation, so this turns a per-iteration ``O(R^2 log R)``
    Python sort into ``O(k log R)`` for ``k`` consumed pairs.
    """
    num_racks = len(hottest)
    if num_racks < 2:
        return
    by_hot = np.argsort(-hottest, kind="stable")
    by_cold = np.argsort(coldest, kind="stable")
    hot_sorted = hottest[by_hot]
    cold_sorted = coldest[by_cold]

    def cell(i: int, j: int) -> Tuple[float, int, int]:
        return (-(float(hot_sorted[i]) - float(cold_sorted[j])), i, j)

    frontier = [cell(0, 0)]
    while frontier:
        neg_gap = frontier[0][0]
        if -neg_gap <= _TOLERANCE:
            return
        tied = []
        while frontier and frontier[0][0] == neg_gap:
            _, i, j = heapq.heappop(frontier)
            tied.append((int(by_hot[i]), int(by_cold[j])))
            if j + 1 < num_racks:
                heapq.heappush(frontier, cell(i, j + 1))
            if j == 0 and i + 1 < num_racks:
                heapq.heappush(frontier, cell(i + 1, 0))
        tied.sort()
        for src_rack, dst_rack in tied:
            if src_rack != dst_rack:
                yield src_rack, dst_rack


def _find_rack_aware_operation(
    state: PlacementState,
    policy: AdmissibilityPolicy,
    pruner: _PairPruner,
    intra_memo: _IntraRackMemo,
    global_cost: float,
    stats: Optional[SearchStats] = None,
) -> Optional[Operation]:
    """One admissible operation for Algorithm 2's combined search space.

    Every rack's extreme machines and loads come from the state's
    dirty-rack cache.  The intra-rack phase probes each rack's extreme
    pair, worst rack first: the reference solver's descending
    ``(gap, high, low)`` tuple sort, expressed as a lexsort over the
    same columns.  The inter-rack phase then probes rack pairs in
    :func:`_ranked_rack_pairs_lazy` order.  The probe order — and hence
    the chosen operation — is identical to the reference solver's.  No
    state mutation happens between probes, so the extremes read once
    stay valid for the whole call.
    """
    high_arr, low_arr, hottest, coldest = state.rack_extremes()
    gaps = hottest - coldest
    idx = np.nonzero(gaps > _TOLERANCE)[0]
    if len(idx):
        order = idx[np.lexsort((-low_arr[idx], -high_arr[idx], -gaps[idx]))]
        op = _sweep_intra_racks(
            state, policy, intra_memo, order,
            high_arr, low_arr, global_cost, stats,
        )
        if op is not None:
            return op
    for src_rack, dst_rack in _ranked_rack_pairs_lazy(hottest, coldest):
        op = pruner.find(
            int(high_arr[src_rack]), int(low_arr[dst_rack]),
            policy, global_cost, stats,
        )
        if op is not None:
            return op
    return None


def balance_rack_aware(
    state: PlacementState,
    policy: Optional[AdmissibilityPolicy] = None,
    max_operations: Optional[int] = None,
    log_operations: bool = False,
) -> SearchStats:
    """Algorithm 2: rack-aware balancing with all four operations.

    Performs intra-rack moves/swaps between each rack's extremes and
    inter-rack ``RackMove``/``RackSwap`` operations between rack pairs
    until no admissible operation remains.  Every operation preserves each
    block's rack-spread requirement ``rho_i``.
    """
    policy = policy or AlwaysAdmissible()
    started = time.perf_counter()
    pruner = _PairPruner(state)
    intra_memo = _IntraRackMemo(state.topology.num_racks)
    current_cost = state.cost()
    stats = SearchStats(initial_cost=current_cost, final_cost=current_cost)
    while max_operations is None or stats.total_operations < max_operations:
        stats.iterations += 1
        op = _find_rack_aware_operation(
            state, policy, pruner, intra_memo, current_cost, stats
        )
        if op is None:
            stats.converged = True
            break
        cross = op.is_cross_rack(state)
        op.apply(state)
        current_cost = state.cost()
        stats.record(op, cross, log_operations)
        if log_operations:
            stats.cost_trajectory.append(current_cost)
    stats.final_cost = current_cost
    stats.elapsed_seconds = time.perf_counter() - started
    _flush_search_metrics("rack", stats, state)
    _LOG.debug(
        "balance_rack_aware done ops=%d rejections=%d converged=%s "
        "cost=%.6g->%.6g elapsed=%.4fs",
        stats.total_operations, stats.admissibility_rejections,
        stats.converged, stats.initial_cost, stats.final_cost,
        stats.elapsed_seconds,
    )
    return stats
