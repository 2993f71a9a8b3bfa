"""Tests for PlacementState's incremental search indices.

Covers the index families the local-search engine relies on: load
extremes (global reductions and the per-rack dirty cache), persistent
per-machine sorted ``(share, block_id)`` indices, and machine change
epochs — each checked against a from-scratch scan — plus the exactness
of :meth:`~repro.core.placement.PlacementState.copy` and the
``state_bytes`` accounting.  See the ``PlacementState`` module docstring
for the invariants.
"""

import gc
import random
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.placement as placement
from repro.cluster.topology import ClusterTopology
from repro.core.instance import PlacementProblem
from repro.core.placement import PlacementState

from .test_local_search import random_state


def _mutate_randomly(state, rng, steps):
    """Apply a random mix of all four mutation kinds."""
    blocks = [spec.block_id for spec in state.problem]
    machines = list(state.topology.machines)
    for _ in range(steps):
        kind = rng.randrange(4)
        block = rng.choice(blocks)
        if kind == 0:
            options = [m for m in machines if state.can_add(block, m)]
            if options:
                state.add_replica(block, rng.choice(options))
        elif kind == 1:
            options = [m for m in machines if state.can_remove(block, m)]
            if options:
                state.remove_replica(block, rng.choice(options))
        elif kind == 2:
            holders = list(state.machines_of(block))
            src = rng.choice(holders)
            options = [m for m in machines if state.can_move(block, src, m)]
            if options:
                state.move(block, src, rng.choice(options))
        else:
            other = rng.choice(blocks)
            holders_i = list(state.machines_of(block))
            holders_j = list(state.machines_of(other))
            if holders_i and holders_j:
                src = rng.choice(holders_i)
                dst = rng.choice(holders_j)
                if state.can_swap(block, src, other, dst):
                    state.swap(block, src, other, dst)


class TestExtremeHeaps:
    """Global and per-rack load extremes against scans of the loads."""

    @pytest.mark.parametrize("seed", range(6))
    def test_extremes_match_scans_after_random_mutations(self, seed):
        rng = random.Random(seed)
        state = random_state(
            rng, num_racks=3, per_rack=4, num_blocks=40, k=2, rho=2
        )
        for _ in range(10):
            _mutate_randomly(state, rng, 25)
            loads = state.loads()
            assert state.argmax_machine() == int(loads.argmax())
            assert state.argmin_machine() == int(loads.argmin())
            assert state.cost() == loads[loads.argmax()]
            assert state.min_load() == loads[loads.argmin()]
            for rack in state.topology.racks:
                members = state.topology.machines_in_rack(rack)
                assert state.argmax_machine_in_rack(rack) == max(
                    members, key=lambda m: loads[m]
                )
                assert state.argmin_machine_in_rack(rack) == min(
                    members, key=lambda m: loads[m]
                )
        state.audit()

    def test_tie_break_is_lowest_machine_id(self):
        topo = ClusterTopology.uniform(2, 2, capacity=4)
        problem = PlacementProblem.from_popularities(
            topo, [6.0, 6.0, 6.0, 6.0], replication_factor=1
        )
        state = PlacementState(problem)
        for block, machine in enumerate([0, 1, 2, 3]):
            state.add_replica(block, machine)
        # All four machines tie; numpy argmax/argmin take the first index.
        assert state.argmax_machine() == 0
        assert state.argmin_machine() == 0
        assert state.argmax_machine_in_rack(1) == 2
        assert state.argmin_machine_in_rack(1) == 2

    def test_invalid_rack_still_raises(self):
        rng = random.Random(0)
        state = random_state(rng, num_racks=2, per_rack=2, num_blocks=5)
        with pytest.raises(Exception):
            state.argmax_machine_in_rack(99)


class TestShareIndex:
    @pytest.mark.parametrize("seed", range(6))
    def test_index_is_exact_after_random_mutations(self, seed):
        rng = random.Random(seed + 50)
        state = random_state(
            rng, num_racks=2, per_rack=3, num_blocks=30, k=2, rho=1
        )
        _mutate_randomly(state, rng, 120)
        for machine in state.topology.machines:
            expected = sorted(
                (state.share(b), b) for b in state.blocks_on_view(machine)
            )
            assert list(state.share_index(machine)) == expected

    def test_replication_change_reshapes_all_holders(self):
        # add_replica dilutes the share on every existing holder; each
        # holder's index entry must carry the new exact share.
        topo = ClusterTopology.uniform(1, 3, capacity=4)
        problem = PlacementProblem.from_popularities(
            topo, [9.0], replication_factor=1
        )
        state = PlacementState(problem)
        state.add_replica(0, 0)
        assert list(state.share_index(0)) == [(9.0, 0)]
        state.add_replica(0, 1)
        assert list(state.share_index(0)) == [(4.5, 0)]
        assert list(state.share_index(1)) == [(4.5, 0)]
        state.add_replica(0, 2)
        assert list(state.share_index(0)) == [(3.0, 0)]
        state.remove_replica(0, 2, enforce_min=False)
        assert list(state.share_index(0)) == [(4.5, 0)]
        assert list(state.share_index(2)) == []

    def test_copy_is_independent(self):
        rng = random.Random(3)
        state = random_state(rng, num_racks=2, per_rack=2, num_blocks=10, k=2)
        clone = state.copy()
        _mutate_randomly(clone, rng, 40)
        clone.audit()
        state.audit()
        for machine in state.topology.machines:
            expected = sorted(
                (state.share(b), b) for b in state.blocks_on_view(machine)
            )
            assert list(state.share_index(machine)) == expected


class TestBlocksOnView:
    def test_view_is_zero_copy_and_copy_is_immutable(self):
        rng = random.Random(1)
        state = random_state(rng, num_racks=1, per_rack=2, num_blocks=8)
        view = state.blocks_on_view(0)
        assert view is state.blocks_on_view(0)
        assert state.blocks_on(0) == frozenset(view)
        assert isinstance(state.blocks_on(0), frozenset)

    def test_view_tracks_mutations(self):
        topo = ClusterTopology.uniform(1, 2, capacity=4)
        problem = PlacementProblem.from_popularities(
            topo, [2.0, 1.0], replication_factor=1
        )
        state = PlacementState(problem)
        state.add_replica(0, 0)
        state.add_replica(1, 0)
        view = state.blocks_on_view(0)
        state.move(1, 0, 1)
        assert view == {0}


class TestMachineEpochs:
    def test_move_bumps_both_endpoints(self):
        topo = ClusterTopology.uniform(1, 3, capacity=4)
        problem = PlacementProblem.from_popularities(
            topo, [2.0, 1.0], replication_factor=1
        )
        state = PlacementState(problem)
        state.add_replica(0, 0)
        state.add_replica(1, 1)
        before = [state.machine_epoch(m) for m in range(3)]
        state.move(0, 0, 2)
        assert state.machine_epoch(0) > before[0]
        assert state.machine_epoch(2) > before[2]
        assert state.machine_epoch(1) == before[1]

    def test_remote_operation_bumps_all_holders(self):
        # Moving one replica of a block across racks changes the block's
        # rack spread, which can change swap feasibility in probes whose
        # endpoint is a *different* holder of that block.  The memo in
        # the search engine is only sound if those holders' epochs move.
        topo = ClusterTopology.uniform(3, 2, capacity=4)
        problem = PlacementProblem.from_popularities(
            topo, [6.0, 1.0], replication_factor=2, rack_spread=1
        )
        state = PlacementState(problem)
        state.add_replica(0, 0)  # rack 0
        state.add_replica(0, 2)  # rack 1
        state.add_replica(1, 4)
        state.add_replica(1, 5)
        bystander_epoch = state.machine_epoch(0)
        state.move(0, 2, 4)  # rack 1 -> rack 2; machine 0 untouched directly
        assert state.machine_epoch(0) > bystander_epoch

    def test_share_change_bumps_holders(self):
        topo = ClusterTopology.uniform(1, 3, capacity=4)
        problem = PlacementProblem.from_popularities(
            topo, [8.0], replication_factor=1
        )
        state = PlacementState(problem)
        state.add_replica(0, 0)
        epoch = state.machine_epoch(0)
        state.add_replica(0, 1)  # dilutes the share held on machine 0
        assert state.machine_epoch(0) > epoch

    def test_recompute_bumps_every_epoch(self):
        rng = random.Random(7)
        state = random_state(rng, num_racks=2, per_rack=2, num_blocks=10)
        before = [state.machine_epoch(m) for m in state.topology.machines]
        state.recompute()
        after = [state.machine_epoch(m) for m in state.topology.machines]
        assert all(b > a for a, b in zip(before, after))


# -- hypothesis: random mutation streams against scan oracles -----------------

_ACTIONS = st.lists(
    st.sampled_from(["move", "swap", "add", "remove"]), min_size=1, max_size=40
)


def _apply_random_action(rng, state, action):
    """Apply one feasible random mutation of kind ``action``, if any."""
    machines = list(state.topology.machines)
    blocks = [spec.block_id for spec in state.problem]
    for _ in range(20):
        if action == "move":
            block = rng.choice(blocks)
            holders = sorted(state.machines_of(block))
            if not holders:
                continue
            src = rng.choice(holders)
            dst = rng.choice(machines)
            if state.can_move(block, src, dst):
                state.move(block, src, dst)
                return True
        elif action == "swap":
            block_i, block_j = rng.sample(blocks, 2)
            holders_i = sorted(state.machines_of(block_i))
            holders_j = sorted(state.machines_of(block_j))
            if not holders_i or not holders_j:
                continue
            m = rng.choice(holders_i)
            n = rng.choice(holders_j)
            if state.can_swap(block_i, m, block_j, n):
                state.swap(block_i, m, block_j, n)
                return True
        elif action == "add":
            block = rng.choice(blocks)
            machine = rng.choice(machines)
            if state.can_add(block, machine):
                state.add_replica(block, machine)
                return True
        else:
            block = rng.choice(blocks)
            holders = sorted(state.machines_of(block))
            if not holders:
                continue
            machine = rng.choice(holders)
            if state.can_remove(block, machine, enforce_min=False):
                state.remove_replica(block, machine, enforce_min=False)
                return True
    return False


def _assert_extremes_match_scans(state):
    loads = state.loads()
    assert state.argmax_machine() == int(loads.argmax())
    assert state.argmin_machine() == int(loads.argmin())
    assert state.cost() == loads.max()
    assert state.min_load() == loads.min()
    high, low, hot, cold = state.rack_extremes()
    for rack in state.topology.racks:
        members = state.topology.machines_in_rack(rack)
        hottest = max(members, key=lambda m: loads[m])
        coldest = min(members, key=lambda m: loads[m])
        assert state.argmax_machine_in_rack(rack) == hottest == high[rack]
        assert state.argmin_machine_in_rack(rack) == coldest == low[rack]
        assert hot[rack] == loads[hottest]
        assert cold[rack] == loads[coldest]
    for spec in state.problem:
        count = state.replica_count(spec.block_id)
        expected = spec.popularity / count if count else 0.0
        assert state.share(spec.block_id) == expected


@given(seed=st.integers(min_value=0, max_value=2 ** 20), actions=_ACTIONS)
@settings(max_examples=40, deadline=None)
def test_mutation_sequences_match_scans(seed, actions):
    """After every random move/swap/add/remove, the indices match scans.

    Global and per-rack extremes, the cached ``rack_extremes`` columns
    (exact floats, lowest-id tie-break) and the shares are all compared
    against a from-scratch scan.
    """
    state = random_state(
        random.Random(seed), num_racks=3, per_rack=3, num_blocks=24,
        k=2, rho=2,
    )
    rng = random.Random(seed ^ 0x5EED)
    _assert_extremes_match_scans(state)
    for action in actions:
        if _apply_random_action(rng, state, action):
            _assert_extremes_match_scans(state)
    state.audit()


# -- first-touch indexes: lazy rows against scans ------------------------------


def _lazy_state(seed, num_racks=16):
    """A random state rebuilt by ``from_assignment``: nothing materialised."""
    built = random_state(
        random.Random(seed), num_racks=num_racks, per_rack=8, num_blocks=150,
        k=2, rho=2,
    )
    return PlacementState.from_assignment(built.problem, built.to_assignment())


def _assert_lazy_matches_scans(state, rng):
    """Every index, materialised or not, against a scan of the holder sets.

    Public reads (which materialise) are sampled, one machine and one
    block per step, so most of the cluster stays unmaterialised; rows
    not yet materialised are compared through their CSR row directly.
    """
    topo = state.topology
    assignment = state.to_assignment()
    expected_blocks = [set() for _ in topo.machines]
    expected_loads = np.zeros(topo.num_machines)
    for block, holders in assignment.items():
        for machine in holders:
            expected_blocks[machine].add(block)
            expected_loads[machine] += state.share(block)
    np.testing.assert_allclose(state.loads(), expected_loads, atol=1e-9)
    _assert_extremes_match_scans(state)

    def expected_index(machine):
        return sorted((state.share(b), b) for b in expected_blocks[machine])

    for machine in topo.machines:
        shares, blocks = state._csr_row(machine)
        if state._blocks_on[machine] is None:
            assert set(blocks) == expected_blocks[machine]
        if state._share_index[machine] is None:
            assert list(zip(shares, blocks)) == expected_index(machine)
        assert state.used_capacity(machine) == len(expected_blocks[machine])
    machine = rng.randrange(topo.num_machines)
    assert state.blocks_on(machine) == expected_blocks[machine]
    assert list(state.share_index(machine)) == expected_index(machine)
    block = rng.choice(list(assignment))
    assert state.rack_spread(block) == len(
        {topo.rack_of[m] for m in assignment[block]}
    )


@given(
    seed=st.integers(min_value=0, max_value=2 ** 20),
    actions=st.lists(
        st.sampled_from(["move", "swap", "add", "remove"]), max_size=25
    ),
)
@settings(max_examples=25, deadline=None)
def test_lazy_indexes_match_scans_under_mutation(seed, actions):
    # Each step materialises about four machines (one sampled read, the
    # mutated holders and every reshared holder), so 25 steps touch about
    # 100: on 256 machines about 185 stay unbuilt (176 the fewest over
    # 150 seeds of 25 steps), well clear of half.
    state = _lazy_state(seed, num_racks=32)
    rng = random.Random(seed ^ 0x1A2B)
    _assert_lazy_matches_scans(state, rng)
    for action in actions:
        _apply_random_action(rng, state, action)
        _assert_lazy_matches_scans(state, rng)
    # The stream must leave most machines to the lazy path.
    untouched = sum(index is None for index in state._share_index)
    assert untouched > state.topology.num_machines // 2
    state.audit()


def test_csr_is_read_only_and_shared_by_copies():
    state = _lazy_state(1)
    clone = state.copy()
    for name in ("_csr_start", "_csr_share", "_csr_block",
                 "_holder_start", "_holder_machine"):
        array = getattr(state, name)
        assert not array.flags.writeable
        assert getattr(clone, name) is array
    state.share_index(0)
    assert clone._share_index[0] is None  # materialising is per state
    state.replica_count(0)
    assert 0 not in clone._machines_of
    clone.move_keeps_spread(0, 0, 1)
    assert 0 not in state._rack_holders


def test_states_are_freed_without_the_cycle_collector():
    # Lazy containers hold no reference back to their state, so a
    # dropped state (built, copied, or mutated and audited) dies on del.
    gc.disable()
    try:
        built = _lazy_state(2)
        clone = built.copy()
        mutated = _lazy_state(3)
        rng = random.Random(3)
        for action in ["move", "swap", "add", "remove"] * 5:
            _apply_random_action(rng, mutated, action)
        mutated.audit()
        refs = [weakref.ref(state) for state in (built, clone, mutated)]
        del built, clone, mutated
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


class TestCopy:
    def test_copy_stays_bit_identical_across_recomputes(self, monkeypatch):
        # The copy must recompute at the same mutation counts as its
        # original, or the two drift apart by ulps.
        monkeypatch.setattr(placement, "_RECOMPUTE_INTERVAL", 7)
        state = random_state(
            random.Random(11), num_racks=3, per_rack=3, num_blocks=30,
            k=2, rho=2,
        )
        # Out of phase with the interval: a copy counting from zero
        # would recompute at different steps.
        assert state._mutations % 7
        clone = state.copy()
        rng, clone_rng = random.Random(12), random.Random(12)
        actions = ["move", "swap", "add", "remove"] * 15
        for action in actions:
            applied = _apply_random_action(rng, state, action)
            assert _apply_random_action(clone_rng, clone, action) == applied
            np.testing.assert_array_equal(clone.loads(), state.loads())
            np.testing.assert_array_equal(
                clone.rack_loads(), state.rack_loads()
            )
            for machine in state.topology.machines:
                assert clone.machine_epoch(machine) == state.machine_epoch(
                    machine
                )
        assert clone.to_assignment() == state.to_assignment()


class TestStateBytes:
    def test_counts_each_structure_once(self):
        topo = ClusterTopology.uniform(2, 2, capacity=4)
        problem = PlacementProblem.from_popularities(
            topo, [6.0, 3.0], replication_factor=2, rack_spread=2
        )
        state = PlacementState.from_assignment(
            problem, {0: (0, 2), 1: (1, 3)}
        )
        # Touch one index of each kind: machine 0's share list, machine
        # 1's block set and block 0's rack holders (which builds its
        # holder set).  Nothing else is built.
        state.share_index(0)
        state.blocks_on_view(1)
        state.rack_spread(0)
        size = sys.getsizeof
        arrays = (
            size(state._loads) + size(state._rack_loads)
            + size(state._machine_epoch) + size(state._used)
            + size(state._ext_high) + size(state._ext_low)
            + size(state._ext_hot) + size(state._ext_cold)
            + size(state._csr_start) + size(state._csr_share)
            + size(state._csr_block)
            + size(state._holder_start) + size(state._holder_machine)
            + size(state._block_row)
            + size(state._rack_members)
            + sum(size(members) for members in state._rack_members)
            + size(state._ext_dirty)
        )
        holders = (
            size(state._machines_of)
            + sum(size(s) for s in state._machines_of.values())
            + size(state._rack_holders) + size(state._rack_holders[0])
        )
        assert list(state._rack_holders) == [0]
        assert list(state._machines_of) == [0]
        blocks_on = size(state._blocks_on) + size(state._blocks_on[1])
        assert [s is not None for s in state._blocks_on] == [
            False, True, False, False
        ]
        # One materialised share list with one (share, block) entry.
        share_indices = (
            size(state._share_index) + size(state._share_index[0]) + 72
        )
        assert [ix is not None for ix in state._share_index] == [
            True, False, False, False
        ]
        assert state.state_bytes() == (
            arrays + holders + blocks_on + share_indices
        )
