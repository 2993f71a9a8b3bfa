"""Unit and property tests for Algorithms 1 and 2 (local search)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.admissibility import (
    AlwaysAdmissible,
    RelativeCostPolicy,
    RelativeGapPolicy,
)
from repro.core.bounds import combined_lower_bound
from repro.core.instance import PlacementProblem
from repro.core.local_search import (
    _ranked_rack_pairs_lazy,
    balance_node_level,
    balance_rack_aware,
    find_operation_between,
)
from repro.core.placement import PlacementState
from repro.core.reference import _rack_pairs_by_gap, reference_balance_node_level


def random_state(rng, num_racks, per_rack, num_blocks, k=1, rho=1, capacity=None):
    """A feasible random placement for property tests."""
    capacity = capacity or max(4, (num_blocks * k * 2) // (num_racks * per_rack) + k)
    topo = ClusterTopology.uniform(num_racks, per_rack, capacity)
    pops = [rng.uniform(0.0, 100.0) for _ in range(num_blocks)]
    problem = PlacementProblem.from_popularities(
        topo, pops, replication_factor=k, rack_spread=rho
    )
    state = PlacementState(problem)
    machines = list(topo.machines)
    racks = list(topo.racks)
    for spec in problem:
        # Establish rack spread first, then fill arbitrarily.
        chosen_racks = rng.sample(racks, rho)
        chosen = []
        for rack in chosen_racks:
            options = [
                m for m in topo.machines_in_rack(rack)
                if state.can_add(spec.block_id, m)
            ]
            machine = rng.choice(options)
            state.add_replica(spec.block_id, machine)
            chosen.append(machine)
        while state.replica_count(spec.block_id) < k:
            options = [m for m in machines if state.can_add(spec.block_id, m)]
            state.add_replica(spec.block_id, rng.choice(options))
    return state


class TestAlgorithm1:
    def test_balances_trivial_two_machine_instance(self):
        topo = ClusterTopology.uniform(2, 1, capacity=10)
        problem = PlacementProblem.from_popularities(
            topo, [4.0, 4.0], replication_factor=1
        )
        state = PlacementState(problem)
        state.add_replica(0, 0)
        state.add_replica(1, 0)
        stats = balance_node_level(state)
        assert stats.converged
        assert state.load(0) == pytest.approx(4.0)
        assert state.load(1) == pytest.approx(4.0)
        assert stats.moves == 1

    def test_never_increases_cost(self):
        rng = random.Random(7)
        state = random_state(rng, num_racks=2, per_rack=4, num_blocks=30, k=2)
        before = state.cost()
        stats = balance_node_level(state)
        assert state.cost() <= before + 1e-9
        assert stats.final_cost == pytest.approx(state.cost())
        state.audit()

    def test_respects_max_operations(self):
        rng = random.Random(3)
        state = random_state(rng, num_racks=2, per_rack=5, num_blocks=40, k=1)
        stats = balance_node_level(state, max_operations=2)
        assert stats.total_operations <= 2

    def test_preserves_replica_counts(self):
        rng = random.Random(11)
        state = random_state(rng, num_racks=3, per_rack=3, num_blocks=25, k=2)
        counts = {b: state.replica_count(b) for b in range(25)}
        balance_node_level(state)
        assert counts == {b: state.replica_count(b) for b in range(25)}

    def test_theorem2_additive_bound(self):
        # SOL <= OPT + p_max <= (avg + p_max) is implied; check against
        # the certified lower bound: SOL <= LB + p_max >= OPT + p_max.
        rng = random.Random(23)
        for seed in range(5):
            rng = random.Random(seed)
            state = random_state(rng, num_racks=1, per_rack=6, num_blocks=40, k=1)
            balance_node_level(state)
            problem = state.problem
            p_max = problem.max_per_replica_popularity()
            lower = combined_lower_bound(problem)
            assert state.cost() <= 2 * lower + 1e-6
            assert state.cost() <= lower + p_max + 1e-6

    def test_swap_used_when_destination_full(self):
        topo = ClusterTopology.uniform(1, 2, capacity=2)
        problem = PlacementProblem.from_popularities(
            topo, [10.0, 1.0, 1.0, 2.0], replication_factor=1
        )
        state = PlacementState(problem)
        state.add_replica(0, 0)  # load 10
        state.add_replica(3, 0)  # load 12 on machine 0 (full)
        state.add_replica(1, 1)
        state.add_replica(2, 1)  # load 2 on machine 1 (full)
        stats = balance_node_level(state)
        assert stats.swaps >= 1
        assert stats.moves == 0
        assert state.cost() < 12.0

    def test_stats_record_operation_log(self):
        rng = random.Random(5)
        state = random_state(rng, num_racks=2, per_rack=3, num_blocks=20, k=1)
        stats = balance_node_level(state, log_operations=True)
        assert len(stats.operations) == stats.total_operations

    def test_converges_on_empty_problem(self):
        topo = ClusterTopology.uniform(1, 2, capacity=2)
        problem = PlacementProblem(topology=topo, blocks=())
        state = PlacementState(problem)
        stats = balance_node_level(state)
        assert stats.converged
        assert stats.total_operations == 0


class TestAlgorithm2:
    def test_preserves_rack_spread(self):
        rng = random.Random(17)
        state = random_state(
            rng, num_racks=3, per_rack=3, num_blocks=30, k=3, rho=2
        )
        balance_rack_aware(state)
        for spec in state.problem:
            assert state.rack_spread(spec.block_id) >= spec.rack_spread
        state.audit()

    def test_never_increases_cost(self):
        rng = random.Random(29)
        state = random_state(
            rng, num_racks=4, per_rack=2, num_blocks=30, k=2, rho=2
        )
        before = state.cost()
        stats = balance_rack_aware(state)
        assert state.cost() <= before + 1e-9
        assert stats.converged

    def test_theorem4_additive_bound(self):
        for seed in range(5):
            rng = random.Random(seed + 100)
            state = random_state(
                rng, num_racks=3, per_rack=3, num_blocks=40, k=3, rho=2
            )
            balance_rack_aware(state)
            problem = state.problem
            lower = combined_lower_bound(problem)
            p_max = problem.max_per_replica_popularity()
            assert state.cost() <= lower + 3 * p_max + 1e-6
            assert state.cost() <= 4 * lower + 1e-6

    def test_beats_or_matches_node_level_respecting_racks(self):
        # Algorithm 2 includes Algorithm 1's moves, so from the same start
        # it should reach at least as balanced a configuration.
        rng = random.Random(41)
        state_a = random_state(
            rng, num_racks=3, per_rack=3, num_blocks=30, k=3, rho=2
        )
        state_b = state_a.copy()
        balance_rack_aware(state_a)
        # Intra-rack-only comparison: run Algorithm 1 but verify rack
        # constraints still hold afterwards (it uses feasibility checks).
        balance_node_level(state_b)
        for spec in state_b.problem:
            assert state_b.rack_spread(spec.block_id) >= spec.rack_spread
        assert state_a.cost() <= state_b.cost() + 1e-6


class TestEpsilonTradeOff:
    def test_larger_epsilon_moves_fewer_blocks(self):
        results = {}
        for epsilon in (0.1, 0.6, 0.9):
            rng = random.Random(55)
            state = random_state(rng, num_racks=2, per_rack=5,
                                 num_blocks=60, k=1)
            stats = balance_node_level(state, RelativeGapPolicy(epsilon))
            results[epsilon] = stats
        assert (
            results[0.1].blocks_transferred
            >= results[0.6].blocks_transferred
            >= results[0.9].blocks_transferred
        )
        assert results[0.1].final_cost <= results[0.9].final_cost + 1e-9

    def test_epsilon_zero_policy_equals_default(self):
        rng = random.Random(71)
        state_a = random_state(rng, num_racks=2, per_rack=4, num_blocks=30, k=1)
        state_b = state_a.copy()
        stats_a = balance_node_level(state_a, AlwaysAdmissible())
        stats_b = balance_node_level(state_b, RelativeGapPolicy(0.0))
        assert stats_a.final_cost == pytest.approx(stats_b.final_cost)


class TestFindOperationBetween:
    def test_returns_none_when_balanced(self):
        topo = ClusterTopology.uniform(1, 2, capacity=5)
        problem = PlacementProblem.from_popularities(
            topo, [3.0, 3.0], replication_factor=1
        )
        state = PlacementState(problem)
        state.add_replica(0, 0)
        state.add_replica(1, 1)
        assert find_operation_between(
            state, 0, 1, AlwaysAdmissible(), state.cost()
        ) is None

    def test_skips_shared_blocks(self):
        # A block on both machines contributes equally; only exclusive
        # blocks are candidates.
        topo = ClusterTopology.uniform(1, 2, capacity=5)
        problem = PlacementProblem.from_popularities(
            topo, [8.0, 3.0, 1.0], replication_factor=1
        )
        state = PlacementState(problem)
        state.add_replica(0, 0)
        state.add_replica(0, 1)  # temporarily over-replicated, shared
        state.add_replica(1, 0)
        state.add_replica(2, 0)
        op = find_operation_between(state, 0, 1, AlwaysAdmissible(), state.cost())
        assert op is not None
        # The shared block 0 must not be selected; the highest-share
        # exclusive block (1) is preferred.
        assert getattr(op, "block", getattr(op, "block_i", None)) == 1


class TestSwapWindowBoundaries:
    """The swap window ``(share_i - gap, share_i)`` is open on both ends.

    A partner exactly at ``share_i`` trades equal shares (no change); a
    partner exactly at ``share_i - gap`` swaps the machines' loads
    outright (no strict improvement).  Both must be rejected without an
    operation.
    """

    @staticmethod
    def _full_two_machine_state(popularities, placement):
        topo = ClusterTopology.uniform(1, 2, capacity=2)
        problem = PlacementProblem.from_popularities(
            topo, popularities, replication_factor=1
        )
        state = PlacementState(problem)
        for block, machine in placement.items():
            state.add_replica(block, machine)
        return state

    def test_candidates_exactly_on_both_boundaries_are_rejected(self):
        # Machine 0: shares {6, 4} (load 10); machine 1: shares {6, 2}
        # (load 8); gap 2.  Both machines are full, so moves are out.
        # For block share 6 the window is (4, 6): partner 6 sits exactly
        # at share_i, partner 2 is below.  For block share 4 the window
        # is (2, 4): partner 6 is above, partner 2 sits exactly at
        # share_i - gap.  No admissible operation may be returned.
        state = self._full_two_machine_state(
            [6.0, 4.0, 6.0, 2.0], {0: 0, 1: 0, 2: 1, 3: 1}
        )
        assert state.cost() == pytest.approx(10.0)
        op = find_operation_between(
            state, 0, 1, AlwaysAdmissible(), state.cost()
        )
        assert op is None
        stats = balance_node_level(state)
        assert stats.converged
        assert stats.total_operations == 0

    def test_candidate_strictly_inside_window_is_taken(self):
        # Machine 0: shares {6, 4} (load 10); machine 1: shares {5, 3.5}
        # (load 8.5); gap 1.5.  For block share 6 the window is
        # (4.5, 6) and partner 5 lies strictly inside: the swap must be
        # found and shave the pair maximum from 10 to 9.5.
        state = self._full_two_machine_state(
            [6.0, 4.0, 5.0, 3.5], {0: 0, 1: 0, 2: 1, 3: 1}
        )
        op = find_operation_between(
            state, 0, 1, AlwaysAdmissible(), state.cost()
        )
        assert op is not None
        assert op.block_i == 0 and op.block_j == 2
        op.apply(state)
        assert state.cost() == pytest.approx(9.5)


class TestRackPairOrdering:
    """Regression: rack pairs must rank by extreme-machine gap.

    The old ordering ranked racks by *total* load and only generated
    heavier-to-lighter pairs, so a large rack of lightly-loaded machines
    outranked — and shadowed — a small rack containing the true hottest
    machine.
    """

    @staticmethod
    def _ranked_pairs(state):
        _, _, hottest, coldest = state.rack_extremes()
        return list(_ranked_rack_pairs_lazy(hottest, coldest))

    @staticmethod
    def _heterogeneous_state():
        # Rack 0: three machines at load 5 (total 15).  Rack 1: one
        # machine at load 12 (total 12).  Total-load ranking sees rack 0
        # as the heavy rack; the true hottest machine is in rack 1.
        topo = ClusterTopology.from_rack_sizes([3, 1], capacity=16)
        pops = [5.0, 5.0, 5.0, 3.0, 3.0, 3.0, 3.0]
        problem = PlacementProblem.from_popularities(
            topo, pops, replication_factor=1
        )
        state = PlacementState(problem)
        for block in (0, 1, 2):
            state.add_replica(block, block)
        for block in (3, 4, 5, 6):
            state.add_replica(block, 3)
        return state

    def test_pairs_ranked_by_extreme_machine_gap(self):
        state = self._heterogeneous_state()
        pairs = self._ranked_pairs(state)
        # Hot-machine rack first: gap 12 - 5 = 7 beats any pair out of
        # rack 0 (5 - 12 < 0 is dropped entirely).
        assert pairs[0] == (1, 0)
        assert (0, 1) not in pairs

    def test_hot_machine_in_small_rack_gets_drained(self):
        state = self._heterogeneous_state()
        assert state.cost() == pytest.approx(12.0)
        stats = balance_rack_aware(state)
        assert stats.converged
        # The old total-load ordering never probed rack 1 as a source,
        # converging at cost 12; the fix must spread its load.
        assert state.cost() < 12.0 - 1e-9
        assert state.cost() <= 8.0 + 1e-9
        state.audit()

    def test_single_rack_has_no_pairs(self):
        rng = random.Random(2)
        state = random_state(rng, num_racks=1, per_rack=3, num_blocks=10)
        assert self._ranked_pairs(state) == []

    def test_gaps_rounding_to_a_tie_follow_rack_order(self):
        # 336.6 - 0.0 and 336.6 - (-1.4e-14) round to the same float,
        # but rack 2 sorts before rack 1 by coldest load.
        drift = -1.4210854715202004e-14
        loads = np.array([336.60747359894333, 0.0, drift])
        assert loads[0] - loads[1] == loads[0] - loads[2]
        pairs = list(_ranked_rack_pairs_lazy(loads, loads))
        assert pairs[:2] == [(0, 1), (0, 2)]

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 20),
        num_racks=st.integers(min_value=1, max_value=6),
        per_rack=st.integers(min_value=1, max_value=3),
        mutations=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_lazy_order_matches_reference_sort(
        self, seed, num_racks, per_rack, mutations
    ):
        """The lazy enumeration is the reference's eager sort, tie for tie."""
        rng = random.Random(seed)
        state = random_state(
            rng, num_racks=num_racks, per_rack=per_rack, num_blocks=12,
            capacity=12,
        )
        # Equal popularities make equal loads, exercising the tie-breaks.
        if seed % 2:
            state = PlacementState.from_assignment(
                PlacementProblem.from_popularities(
                    state.topology, [6.0] * 12, replication_factor=1
                ),
                state.to_assignment(),
            )
        blocks = [spec.block_id for spec in state.problem]
        for _ in range(mutations):
            block = rng.choice(blocks)
            src = next(iter(state.machines_of(block)))
            dst = rng.randrange(state.topology.num_machines)
            if state.can_move(block, src, dst):
                state.move(block, src, dst)
        assert self._ranked_pairs(state) == _rack_pairs_by_gap(state)


class _RecordingPolicy:
    """Wraps a policy, logging every admissibility decision it makes."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def is_admissible(self, outcome, global_cost):
        verdict = self.inner.is_admissible(outcome, global_cost)
        self.calls.append((outcome, global_cost, verdict))
        return verdict


class TestCachedObjectiveThreading:
    def test_admissibility_decisions_identical_to_per_iteration_recompute(self):
        # The incremental engine computes the objective once per applied
        # operation and threads it through; the reference recomputes it
        # every iteration.  Every (outcome, global_cost, verdict) triple
        # the policy sees must be identical, or the cached value leaked
        # staleness into an admissibility decision.
        rng = random.Random(13)
        state_inc = random_state(
            rng, num_racks=2, per_rack=4, num_blocks=50, k=2
        )
        state_ref = state_inc.copy()
        recorder_inc = _RecordingPolicy(RelativeCostPolicy(0.1))
        recorder_ref = _RecordingPolicy(RelativeCostPolicy(0.1))
        stats_inc = balance_node_level(state_inc, policy=recorder_inc)
        stats_ref = reference_balance_node_level(state_ref, policy=recorder_ref)
        assert recorder_inc.calls == recorder_ref.calls
        assert stats_inc.final_cost == stats_ref.final_cost
        assert (
            stats_inc.admissibility_rejections
            == stats_ref.admissibility_rejections
        )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_blocks=st.integers(2, 40),
    per_rack=st.integers(2, 5),
    num_racks=st.integers(1, 4),
)
def test_property_node_level_invariants(seed, num_blocks, per_rack, num_racks):
    """Algorithm 1 never worsens, terminates and preserves constraints."""
    rng = random.Random(seed)
    k = rng.randint(1, min(3, num_racks * per_rack))
    rho = rng.randint(1, min(k, num_racks))
    state = random_state(rng, num_racks, per_rack, num_blocks, k=k, rho=rho)
    total_before = sum(state.replica_count(b) for b in range(num_blocks))
    cost_before = state.cost()
    stats = balance_node_level(state)
    assert stats.converged
    assert state.cost() <= cost_before + 1e-9
    assert sum(state.replica_count(b) for b in range(num_blocks)) == total_before
    for spec in state.problem:
        assert state.rack_spread(spec.block_id) >= spec.rack_spread
        assert state.replica_count(spec.block_id) == spec.replication_factor
    for machine in state.topology.machines:
        assert state.used_capacity(machine) <= state.topology.capacity_of(machine)
    state.audit()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_blocks=st.integers(2, 40),
    per_rack=st.integers(2, 5),
    num_racks=st.integers(1, 4),
)
def test_property_local_search_invariants(seed, num_blocks, per_rack, num_racks):
    """Local search preserves all replicas/constraints and never worsens."""
    rng = random.Random(seed)
    k = rng.randint(1, min(3, num_racks * per_rack))
    rho = rng.randint(1, min(k, num_racks))
    state = random_state(rng, num_racks, per_rack, num_blocks, k=k, rho=rho)
    total_before = sum(state.replica_count(b) for b in range(num_blocks))
    cost_before = state.cost()
    stats = balance_rack_aware(state)
    assert stats.converged
    assert state.cost() <= cost_before + 1e-9
    assert sum(state.replica_count(b) for b in range(num_blocks)) == total_before
    for spec in state.problem:
        assert state.rack_spread(spec.block_id) >= spec.rack_spread
        assert state.replica_count(spec.block_id) == spec.replication_factor
    for machine in state.topology.machines:
        assert state.used_capacity(machine) <= state.topology.capacity_of(machine)
    state.audit()


class TestPairPrunerBounded:
    """The exhausted-pair memo must stay bounded and eviction must be free.

    Losing a memo entry only forfeits a prune — the re-probe recomputes
    the identical result and rejection count — so a tiny cap must leave
    the operation sequence and every ``SearchStats`` total except the
    probed/pruned split unchanged.
    """

    def _pruner_workout(self, max_entries):
        from repro.core.local_search import SearchStats, _PairPruner

        state = random_state(
            random.Random(11), num_racks=3, per_rack=4, num_blocks=60,
            k=2, rho=2,
        )
        pruner = _PairPruner(state, max_entries=max_entries)
        stats = SearchStats(initial_cost=state.cost(), final_cost=0.0)
        machines = list(state.topology.machines)
        cost = state.cost()
        for src in machines:
            for dst in machines:
                if src != dst:
                    pruner.find(src, dst, AlwaysAdmissible(), cost, stats)
        return pruner, stats

    def test_memo_never_exceeds_cap(self):
        pruner, _ = self._pruner_workout(max_entries=7)
        assert len(pruner) <= 7

    def test_unbounded_default_is_capped_too(self):
        from repro.core.local_search import _PairPruner

        pruner, _ = self._pruner_workout(max_entries=None)
        assert len(pruner) <= _PairPruner.DEFAULT_MAX_ENTRIES

    def test_tiny_cap_changes_no_search_outcome(self):
        """Full searches with cap=1 vs uncapped: identical everything."""
        from repro.core import local_search as ls

        state_capped = random_state(
            random.Random(12), num_racks=4, per_rack=3, num_blocks=70,
            k=2, rho=2,
        )
        state_free = state_capped.copy()
        original = ls._PairPruner.DEFAULT_MAX_ENTRIES
        ls._PairPruner.DEFAULT_MAX_ENTRIES = 1
        try:
            capped = balance_rack_aware(state_capped, log_operations=True)
        finally:
            ls._PairPruner.DEFAULT_MAX_ENTRIES = original
        free = balance_rack_aware(state_free, log_operations=True)
        assert capped.operations == free.operations
        assert capped.final_cost == free.final_cost
        assert capped.iterations == free.iterations
        assert (
            capped.admissibility_rejections == free.admissibility_rejections
        )
        assert state_capped.to_assignment() == state_free.to_assignment()
        # The split may shift (fewer prunes, more probes) but the total
        # pair visits are conserved.
        assert (
            capped.pairs_probed + capped.pairs_pruned
            == free.pairs_probed + free.pairs_pruned
        )
        assert capped.pairs_pruned <= free.pairs_pruned
