"""Unit tests for :class:`repro.core.placement.PlacementState`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.instance import BlockSpec, PlacementProblem
from repro.core.placement import PlacementState
from repro.errors import (
    CapacityExceededError,
    InfeasibleOperationError,
    ReplicaConstraintError,
    ReproError,
    UnknownBlockError,
    UnknownMachineError,
)


def make_problem(num_racks=2, per_rack=3, capacity=10, pops=(6.0, 3.0, 1.0),
                 k=2, rho=1, budget=None):
    topo = ClusterTopology.uniform(num_racks, per_rack, capacity)
    return PlacementProblem.from_popularities(
        topo, pops, replication_factor=k, rack_spread=rho,
        replication_budget=budget,
    )


class TestBasicBookkeeping:
    def test_empty_state_has_zero_loads(self):
        state = PlacementState(make_problem())
        assert state.cost() == 0.0
        assert state.min_load() == 0.0
        assert state.replica_count(0) == 0
        assert state.rack_spread(0) == 0

    def test_add_replica_updates_load_and_indexes(self):
        state = PlacementState(make_problem())
        state.add_replica(0, 0)
        assert state.has_replica(0, 0)
        assert state.load(0) == pytest.approx(6.0)
        assert state.replica_count(0) == 1
        assert 0 in state.blocks_on(0)
        assert 0 in state.machines_of(0)

    def test_share_dilutes_with_replica_count(self):
        state = PlacementState(make_problem())
        state.add_replica(0, 0)
        assert state.share(0) == pytest.approx(6.0)
        state.add_replica(0, 1)
        assert state.share(0) == pytest.approx(3.0)
        assert state.load(0) == pytest.approx(3.0)
        assert state.load(1) == pytest.approx(3.0)

    def test_remove_replica_concentrates_popularity(self):
        state = PlacementState(make_problem(k=1))
        state.add_replica(0, 0)
        state.add_replica(0, 1)
        state.remove_replica(0, 1)
        assert state.load(0) == pytest.approx(6.0)
        assert state.load(1) == pytest.approx(0.0)
        assert state.replica_count(0) == 1

    def test_rack_spread_tracks_distinct_racks(self):
        state = PlacementState(make_problem(num_racks=3, per_rack=2, k=3))
        state.add_replica(0, 0)  # rack 0
        state.add_replica(0, 1)  # rack 0
        assert state.rack_spread(0) == 1
        state.add_replica(0, 2)  # rack 1
        assert state.rack_spread(0) == 2

    def test_rack_load_aggregates_machine_loads(self):
        state = PlacementState(make_problem(num_racks=2, per_rack=2))
        state.add_replica(0, 0)
        state.add_replica(1, 1)
        assert state.rack_load(0) == pytest.approx(state.load(0) + state.load(1))
        assert state.rack_load(1) == pytest.approx(0.0)

    def test_unknown_block_raises(self):
        state = PlacementState(make_problem())
        with pytest.raises(UnknownBlockError):
            state.machines_of(999)
        with pytest.raises(UnknownBlockError):
            state.share(999)


class TestFeasibilityChecks:
    def test_cannot_add_duplicate_replica(self):
        state = PlacementState(make_problem())
        state.add_replica(0, 0)
        assert not state.can_add(0, 0)
        with pytest.raises(ReplicaConstraintError):
            state.add_replica(0, 0)

    def test_capacity_limit_enforced(self):
        problem = make_problem(num_racks=1, per_rack=2, capacity=1,
                               pops=(1.0, 1.0), k=1)
        state = PlacementState(problem)
        state.add_replica(0, 0)
        assert state.is_full(0)
        assert not state.can_add(1, 0)
        with pytest.raises(CapacityExceededError):
            state.add_replica(1, 0)

    def test_remove_respects_replication_minimum(self):
        state = PlacementState(make_problem(k=2))
        state.add_replica(0, 0)
        state.add_replica(0, 1)
        assert not state.can_remove(0, 0)
        assert state.can_remove(0, 0, enforce_min=False)
        with pytest.raises(ReplicaConstraintError):
            state.remove_replica(0, 0)

    def test_remove_respects_rack_spread(self):
        problem = make_problem(num_racks=2, per_rack=2, pops=(4.0,), k=3, rho=2)
        state = PlacementState(problem)
        state.add_replica(0, 0)
        state.add_replica(0, 1)
        state.add_replica(0, 2)  # rack 1, sole holder there
        # With exactly k=3 replicas no removal is allowed at all.
        assert not state.can_remove(0, 0)
        # With 4 replicas, removing a rack-0 replica is fine, but removing
        # the sole rack-1 replica would break the spread requirement.
        state.add_replica(0, 3)
        assert state.can_remove(0, 0)
        assert state.can_remove(0, 2)  # machine 3 also holds in rack 1
        state.remove_replica(0, 3, enforce_min=False)
        assert not state.can_remove(0, 2)

    def test_can_move_rules(self):
        state = PlacementState(make_problem(num_racks=2, per_rack=2, rho=2, k=2))
        state.add_replica(0, 0)  # rack 0
        state.add_replica(0, 2)  # rack 1
        # Moving the rack-1 replica into rack 0 would break spread 2.
        assert not state.can_move(0, 2, 1)
        # Moving within rack 1 preserves spread.
        assert state.can_move(0, 2, 3)
        # Cannot move onto a machine already holding the block.
        assert not state.can_move(0, 2, 0)
        # Source must hold the block.
        assert not state.can_move(0, 1, 3)
        assert not state.can_move(0, 0, 0)

    def test_can_swap_rules(self):
        problem = make_problem(num_racks=2, per_rack=2, pops=(4.0, 2.0),
                               k=2, rho=2)
        state = PlacementState(problem)
        state.add_replica(0, 0)
        state.add_replica(0, 2)
        state.add_replica(1, 1)
        state.add_replica(1, 3)
        # Intra-rack swap keeps both spreads intact.
        assert state.can_swap(0, 0, 1, 1)
        # Cross-rack swap of block 0 to machine 3 would collapse block 0
        # onto rack 1 only, violating rho=2.
        assert not state.can_swap(0, 0, 1, 3)
        # Swapping a block with itself or the same machine is rejected.
        assert not state.can_swap(0, 0, 0, 2)
        assert not state.can_swap(0, 0, 1, 0)

    def test_spread_clause_public_and_search_forms(self):
        """The public clause stays general; the search's form, whose
        candidates are on ``src`` and absent from ``dst``, passes
        ``rho = 1`` blocks outright and checks the rest in full."""
        state = PlacementState(make_problem(num_racks=2, per_rack=2, rho=1))
        # No holders and a same-rack pair: spread 0 after, below rho 1.
        assert not state.move_keeps_spread(0, 0, 1)
        state.add_replica(0, 0)
        assert state.move_keeps_spread(0, 0, 1)
        assert state._relocation_keeps_spread(0, 0, 1)
        state = PlacementState(make_problem(num_racks=2, per_rack=2, rho=2))
        state.add_replica(0, 0)  # rack 0
        state.add_replica(0, 2)  # rack 1
        for src, dst, keeps in ((2, 1, False), (2, 3, True), (0, 3, False)):
            assert state.move_keeps_spread(0, src, dst) is keeps
            assert state._relocation_keeps_spread(0, src, dst) is keeps


class TestMutations:
    def test_move_shifts_load(self):
        state = PlacementState(make_problem())
        state.add_replica(0, 0)
        state.add_replica(0, 1)
        state.move(0, 1, 2)
        assert not state.has_replica(0, 1)
        assert state.has_replica(0, 2)
        assert state.load(1) == pytest.approx(0.0)
        assert state.load(2) == pytest.approx(3.0)
        state.audit()

    def test_infeasible_move_raises(self):
        state = PlacementState(make_problem())
        state.add_replica(0, 0)
        with pytest.raises(InfeasibleOperationError):
            state.move(0, 1, 2)

    def test_swap_exchanges_loads(self):
        state = PlacementState(make_problem(pops=(6.0, 2.0), k=1))
        state.add_replica(0, 0)
        state.add_replica(1, 1)
        state.swap(0, 0, 1, 1)
        assert state.has_replica(0, 1)
        assert state.has_replica(1, 0)
        assert state.load(0) == pytest.approx(2.0)
        assert state.load(1) == pytest.approx(6.0)
        state.audit()

    def test_copy_is_independent(self):
        state = PlacementState(make_problem())
        state.add_replica(0, 0)
        clone = state.copy()
        clone.add_replica(0, 1)
        assert state.replica_count(0) == 1
        assert clone.replica_count(0) == 2
        clone.audit()
        state.audit()

    def test_assignment_round_trip(self):
        problem = make_problem()
        state = PlacementState(problem)
        state.add_replica(0, 0)
        state.add_replica(0, 3)
        state.add_replica(1, 1)
        snapshot = state.to_assignment()
        rebuilt = PlacementState.from_assignment(problem, snapshot)
        assert rebuilt.to_assignment() == snapshot
        assert np.allclose(rebuilt.loads(), state.loads())

    def test_bulk_from_assignment_matches_incremental_build(self):
        # The bulk builder skips the per-add re-dilution; the result
        # must still be indistinguishable from replaying add_replica.
        problem = make_problem(num_racks=3, per_rack=3, capacity=5,
                               pops=(6.0, 3.0, 1.0, 9.0), k=2)
        assignment = {0: (0, 4), 1: (1, 8), 2: (2,), 3: (3, 5, 7)}
        incremental = PlacementState(problem)
        for block_id, machines in assignment.items():
            for machine in machines:
                incremental.add_replica(block_id, machine)
        bulk = PlacementState.from_assignment(problem, assignment)
        bulk.audit()
        assert bulk.to_assignment() == incremental.to_assignment()
        assert np.allclose(bulk.loads(), incremental.loads())
        assert np.allclose(bulk.rack_loads(), incremental.rack_loads())
        for machine in problem.topology.machines:
            bulk_idx = list(bulk.share_index(machine))
            inc_idx = list(incremental.share_index(machine))
            assert [b for _, b in bulk_idx] == [b for _, b in inc_idx]
            assert [s for s, _ in bulk_idx] == pytest.approx(
                [s for s, _ in inc_idx]
            )
        for block_id in assignment:
            assert bulk.rack_spread(block_id) == \
                incremental.rack_spread(block_id)
        assert bulk.cost() == pytest.approx(incremental.cost())
        assert bulk.argmax_machine() == incremental.argmax_machine()

    def test_from_assignment_validation_matches_add_replica(self):
        problem = make_problem()
        with pytest.raises(UnknownBlockError):
            PlacementState.from_assignment(problem, {99: (0,)})
        with pytest.raises(ReplicaConstraintError):
            PlacementState.from_assignment(problem, {0: (1, 1)})
        with pytest.raises(UnknownMachineError, match="unknown machine id 6"):
            PlacementState.from_assignment(problem, {0: (0,), 1: (6,)})
        with pytest.raises(UnknownMachineError, match="unknown machine id -1"):
            PlacementState.from_assignment(problem, {0: (-1,)})
        tight = make_problem(num_racks=1, per_rack=2, capacity=1,
                             pops=(1.0, 1.0), k=1)
        with pytest.raises(CapacityExceededError):
            PlacementState.from_assignment(tight, {0: (0,), 1: (0,)})

    def test_loads_equal_the_per_replica_loop_bit_for_bit(self):
        # The reference: one float addition per replica, blocks in
        # problem order — the order the build and recompute() sum in.
        problem = make_problem(num_racks=3, per_rack=3, capacity=5,
                               pops=(6.1, 3.3, 1.7, 9.9, 0.3), k=2)
        assignment = {3: (3, 5, 7), 0: (0, 4), 4: (4,), 1: (1, 8), 2: (2, 4)}
        loads = np.zeros(problem.topology.num_machines)
        rack_loads = np.zeros(problem.topology.num_racks)
        for spec in problem:
            holders = assignment[spec.block_id]
            for machine in holders:
                loads[machine] += spec.popularity / len(holders)
                rack_loads[problem.topology.rack_of[machine]] += (
                    spec.popularity / len(holders)
                )
        state = PlacementState.from_assignment(problem, assignment)
        np.testing.assert_array_equal(state.loads(), loads)
        np.testing.assert_array_equal(state.rack_loads(), rack_loads)
        state.recompute()
        np.testing.assert_array_equal(state.loads(), loads)
        np.testing.assert_array_equal(state.rack_loads(), rack_loads)

    def test_under_replicated_blocks_listed(self):
        state = PlacementState(make_problem(k=2))
        state.add_replica(0, 0)
        assert 0 in state.under_replicated_blocks()
        state.add_replica(0, 1)
        assert 0 not in state.under_replicated_blocks()
        assert not state.is_fully_replicated()  # blocks 1, 2 still missing

    def test_recompute_matches_incremental(self):
        state = PlacementState(make_problem(num_racks=3, per_rack=3, k=2))
        state.add_replica(0, 0)
        state.add_replica(0, 4)
        state.add_replica(1, 2)
        state.add_replica(1, 8)
        state.move(0, 4, 5)
        incremental = state.loads()
        state.recompute()
        assert np.allclose(incremental, state.loads())


# -- from_assignment against replaying add_replica ------------------------------

_NUM_BLOCKS, _NUM_MACHINES = 4, 6
# Weighted draws: unknown ids (past the end, or -1) are rare, machines
# 0-2 are common so they fill up.
_BLOCK_IDS = st.sampled_from([*range(_NUM_BLOCKS)] * 4 + [_NUM_BLOCKS])
_MACHINE_IDS = st.sampled_from(
    [*range(_NUM_MACHINES)] * 2 + [0, 1, 2] * 2 + [-1, _NUM_MACHINES]
)
# Mutations: (kind, block, other block, machine, other machine).
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["move", "swap", "add", "remove"]),
        st.integers(0, _NUM_BLOCKS - 1), st.integers(0, _NUM_BLOCKS - 1),
        st.integers(0, _NUM_MACHINES - 1), st.integers(0, _NUM_MACHINES - 1),
    ),
    max_size=12,
)


def _replay_add_replica(problem, assignment):
    """The oracle: an empty state fed one add_replica per replica."""
    state = PlacementState(problem)
    for block_id, machines in assignment.items():
        if block_id not in problem:
            raise UnknownBlockError(f"unknown block id {block_id}")
        for machine in machines:
            state.add_replica(block_id, machine)
    return state


def _outcome(build):
    try:
        return build(), None
    except ReproError as exc:
        return None, exc


def _mutate(state, mutation):
    """Apply ``mutation`` if feasible; return what the predicates said."""
    kind, block_i, block_j, m, n = mutation
    if kind == "move":
        feasible = state.can_move(block_i, m, n)
        if feasible:
            state.move(block_i, m, n)
    elif kind == "swap":
        feasible = state.can_swap(block_i, m, block_j, n)
        if feasible:
            state.swap(block_i, m, block_j, n)
    elif kind == "add":
        feasible = state.can_add(block_i, m)
        if feasible:
            state.add_replica(block_i, m)
    else:
        feasible = state.can_remove(block_i, m, enforce_min=False)
        if feasible:
            state.remove_replica(block_i, m, enforce_min=False)
    return feasible


def _assert_same_state(state, expected, every_index=True):
    """Equal holders and bit-equal loads; with ``every_index``, also every
    per-machine and per-block index (which builds them all)."""
    assert state.to_assignment() == expected.to_assignment()
    np.testing.assert_array_equal(state.loads(), expected.loads())
    np.testing.assert_array_equal(state.rack_loads(), expected.rack_loads())
    if not every_index:
        return
    for machine in state.topology.machines:
        assert state.used_capacity(machine) == expected.used_capacity(machine)
        assert list(state.share_index(machine)) == list(
            expected.share_index(machine)
        )
    for spec in state.problem:
        assert state.rack_spread(spec.block_id) == expected.rack_spread(
            spec.block_id
        )


@given(
    capacity=st.integers(1, 2),
    pops=st.lists(
        st.floats(0.0, 50.0), min_size=_NUM_BLOCKS, max_size=_NUM_BLOCKS
    ),
    entries=st.lists(
        st.tuples(
            _BLOCK_IDS,
            # Some lists repeat a machine.
            st.one_of(
                st.lists(_MACHINE_IDS, max_size=3, unique=True),
                st.lists(_MACHINE_IDS, max_size=3),
            ),
            st.sampled_from([set, frozenset, list, tuple]),
        ),
        max_size=6,
        unique_by=lambda entry: entry[0],
    ),
    mutations=_MUTATIONS,
)
@settings(max_examples=300, deadline=None)
def test_from_assignment_matches_add_replica_replay(
    capacity, pops, entries, mutations
):
    """Same first error as the replay, or the same state when valid.

    The caller's collections are sets, frozensets, lists or tuples, with
    some blocks absent.  A valid build must then stay equal to the
    replay, loads bit for bit, under a stream of mutations, and must
    not alias the caller's collections or share holder sets with its
    copies.
    """
    topo = ClusterTopology.uniform(2, _NUM_MACHINES // 2, capacity)
    problem = PlacementProblem.from_popularities(
        topo, pops, replication_factor=1
    )
    assignment = {block: kind(machines) for block, machines, kind in entries}
    expected, expected_error = _outcome(
        lambda: _replay_add_replica(problem, assignment)
    )
    state, error = _outcome(
        lambda: PlacementState.from_assignment(problem, assignment)
    )
    if expected_error is not None:
        assert type(error) is type(expected_error)
        assert str(error) == str(expected_error)
        return
    assert error is None
    # Mutating the caller's collections leaves the state alone.
    for block, holders in list(assignment.items()):
        if isinstance(holders, (set, list)):
            holders.clear()
        else:
            del assignment[block]
    assignment[0] = {0, 1, 2}
    # The replay's loads carry its per-add dilution; recomputing sums
    # them in problem order, as the build does.
    expected.recompute()
    _assert_same_state(state, expected, every_index=False)
    state.audit()
    for mutation in mutations:
        assert _mutate(state, mutation) == _mutate(expected, mutation)
        _assert_same_state(state, expected, every_index=False)
    _assert_same_state(state, expected)
    state.audit()
    snapshot, loads = state.to_assignment(), state.loads()
    clone = state.copy()
    for mutation in mutations:
        _mutate(clone, mutation[:1] + mutation[2:3] + mutation[1:2]
                + mutation[4:] + mutation[3:4])
    clone.audit()
    assert state.to_assignment() == snapshot
    np.testing.assert_array_equal(state.loads(), loads)
    state.audit()
