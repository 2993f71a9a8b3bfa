"""Tests for PlacementState's array-backed (columnar) search columns.

The placement state keeps its loads, per-rack load extremes and machine
epochs in dense numpy columns (see the ``repro.core.placement``
module docstring).  The lockstep tests run each search on a state and
on its :meth:`~repro.core.placement.PlacementState.copy` with the
periodic float-drift :meth:`~repro.core.placement.PlacementState.recompute`
firing mid-search: the copy must carry everything that decides a run —
loads, epochs and the mutation counter — so both apply the same
operations with bit-identical loads and the same probe counts.  The
query tests pin the per-rack extreme cache against the per-rack queries
and its refresh after mutations and recomputes.  Agreement with the
naive reference solver is pinned separately in ``test_differential.py``.
"""

import random

import numpy as np
import pytest

import repro.core.placement as placement
from repro.cluster.topology import ClusterTopology
from repro.core.admissibility import RelativeCostPolicy, RelativeGapPolicy
from repro.core.instance import PlacementProblem
from repro.core.local_search import balance_node_level, balance_rack_aware
from repro.core.placement import PlacementState

from .test_local_search import random_state

SEEDS = list(range(16))


@pytest.fixture(autouse=True)
def _frequent_recompute(monkeypatch):
    """Recompute every few mutations so searches cross several of them."""
    monkeypatch.setattr(placement, "_RECOMPUTE_INTERVAL", 7)


def _twin(state):
    """Exact copy: byte-identical loads and epochs."""
    twin = state.copy()
    np.testing.assert_array_equal(twin.loads(), state.loads())
    np.testing.assert_array_equal(twin._machine_epoch, state._machine_epoch)
    return twin


def _assert_lockstep(stats, twin_stats, state, twin):
    assert stats.final_cost == twin_stats.final_cost
    assert stats.converged == twin_stats.converged
    assert stats.iterations == twin_stats.iterations
    assert stats.operations == twin_stats.operations
    assert stats.admissibility_rejections == twin_stats.admissibility_rejections
    assert stats.pairs_probed == twin_stats.pairs_probed
    assert stats.pairs_pruned == twin_stats.pairs_pruned
    np.testing.assert_array_equal(state.loads(), twin.loads())
    assert state.to_assignment() == twin.to_assignment()
    state.audit()


@pytest.mark.parametrize("seed", SEEDS)
def test_node_level_matches_incremental(seed):
    state = random_state(
        random.Random(seed), num_racks=3, per_rack=4, num_blocks=60, k=2, rho=2
    )
    twin = _twin(state)
    stats = balance_node_level(state, log_operations=True)
    twin_stats = balance_node_level(twin, log_operations=True)
    _assert_lockstep(stats, twin_stats, state, twin)


@pytest.mark.parametrize("seed", SEEDS)
def test_rack_aware_matches_incremental(seed):
    state = random_state(
        random.Random(seed), num_racks=4, per_rack=3, num_blocks=80, k=3, rho=2
    )
    twin = _twin(state)
    stats = balance_rack_aware(state, log_operations=True)
    twin_stats = balance_rack_aware(twin, log_operations=True)
    _assert_lockstep(stats, twin_stats, state, twin)


@pytest.mark.parametrize("seed", SEEDS[:8])
@pytest.mark.parametrize(
    "policy_factory",
    [lambda: RelativeCostPolicy(0.1), lambda: RelativeGapPolicy(0.3)],
    ids=["relative-cost", "relative-gap"],
)
def test_rack_aware_matches_under_policies(seed, policy_factory):
    state = random_state(
        random.Random(seed), num_racks=4, per_rack=3, num_blocks=70, k=2, rho=2
    )
    twin = _twin(state)
    stats = balance_rack_aware(
        state, policy=policy_factory(), log_operations=True
    )
    twin_stats = balance_rack_aware(
        twin, policy=policy_factory(), log_operations=True
    )
    _assert_lockstep(stats, twin_stats, state, twin)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_budgeted_run_is_prefix_of_full_run(seed):
    """A capped run applies the first N ops of the full search."""
    state_full = random_state(
        random.Random(seed), num_racks=4, per_rack=3, num_blocks=80, k=2, rho=2
    )
    state_capped = _twin(state_full)
    full = balance_rack_aware(state_full, log_operations=True)
    cap = max(1, full.total_operations // 2)
    capped = balance_rack_aware(
        state_capped, max_operations=cap, log_operations=True
    )
    assert capped.operations == full.operations[:cap]


class TestColumnarQueries:
    def _mutated_state(self, seed):
        return random_state(
            random.Random(seed), num_racks=4, per_rack=4, num_blocks=50,
            k=2, rho=2,
        )

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_rack_extremes_match_per_rack_queries(self, seed):
        state = self._mutated_state(seed)
        high, low, hot, cold = state.rack_extremes()
        loads = state.loads()
        for rack in state.topology.racks:
            members = state.topology.machines_in_rack(rack)
            assert high[rack] == state.argmax_machine_in_rack(rack) == max(
                members, key=lambda m: loads[m]
            )
            assert low[rack] == state.argmin_machine_in_rack(rack) == min(
                members, key=lambda m: loads[m]
            )
            assert hot[rack] == state.load(int(high[rack]))
            assert cold[rack] == state.load(int(low[rack]))

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_extremes_refresh_after_mutation(self, seed):
        state = self._mutated_state(seed)
        state.rack_extremes()  # prime the cache
        src = state.argmax_machine()
        block = next(iter(state.blocks_on(src)))
        dst = next(
            m for m in state.topology.machines
            if state.can_move(block, src, m)
        )
        state.move(block, src, dst)
        high, low, hot, cold = state.rack_extremes()
        loads = state.loads()
        for rack in state.topology.racks:
            members = state.topology.machines_in_rack(rack)
            assert high[rack] == max(members, key=lambda m: loads[m])
            assert low[rack] == min(members, key=lambda m: loads[m])

    def test_copy_preserves_columnar_class(self):
        state = self._mutated_state(0)
        state.rack_extremes()  # a primed cache must not leak into the copy
        clone = state.copy()
        assert type(clone) is PlacementState
        assert clone.to_assignment() == state.to_assignment()
        assert clone.cost() == state.cost()
        assert clone._mutations == state._mutations
        np.testing.assert_array_equal(clone._machine_epoch, state._machine_epoch)
        for original, copied in zip(state.rack_extremes(), clone.rack_extremes()):
            np.testing.assert_array_equal(original, copied)

    def test_state_bytes_counts_columns(self):
        state = self._mutated_state(0)
        columns = (
            state._loads.nbytes + state._machine_epoch.nbytes
            + state._ext_high.nbytes + state._ext_hot.nbytes
        )
        assert state.state_bytes() > columns

    def test_recompute_rebuilds_extremes(self):
        state = self._mutated_state(1)
        state.rack_extremes()  # prime, then invalidate via recompute
        state.recompute()
        assert state._ext_dirty == set(state.topology.racks)
        high, low, _, _ = state.rack_extremes()
        loads = state.loads()
        for rack in state.topology.racks:
            members = state.topology.machines_in_rack(rack)
            assert high[rack] == max(members, key=lambda m: loads[m])
            assert low[rack] == min(members, key=lambda m: loads[m])

    def test_make_columnar_empty_state(self):
        topo = ClusterTopology.uniform(2, 2, capacity=4)
        problem = PlacementProblem.from_popularities(
            topo, [1.0, 2.0], replication_factor=1
        )
        state = PlacementState(problem)
        assert state.cost() == 0.0
        state.add_replica(0, 0)
        assert state.cost() == 1.0
        assert state.share(0) == 1.0
