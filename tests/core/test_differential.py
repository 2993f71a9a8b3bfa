"""Differential tests: incremental engine vs the naive reference solver.

The incremental engine in ``repro.core.local_search`` (lazy heap
extremes, persistent share indices, pair-pruning memo) must be
operation-for-operation identical to the frozen naive transcription in
``repro.core.reference``.  These tests pin that equivalence on seeded
random instances — final cost, final placement, the full operation log,
and the admissibility-rejection counts must all match exactly, for both
Algorithm 1 and Algorithm 2 and under epsilon policies.

The integer-popularity instances at the end make shares, loads and load
gaps small integers, so candidate shares land exactly on the edges of a
swap's improving window, and they mix blocks with ``rho = 1`` and
``rho = 2``: they pin the probe's empty-window exit and its spread-floor
shortcut.
"""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.admissibility import (
    AlwaysAdmissible,
    RelativeCostPolicy,
    RelativeGapPolicy,
)
from repro.core.instance import BlockSpec, PlacementProblem
from repro.core.local_search import (
    SearchStats,
    balance_node_level,
    balance_rack_aware,
    find_operation_between,
)
from repro.core.placement import PlacementState
from repro.core.reference import (
    reference_balance_node_level,
    reference_balance_rack_aware,
    reference_find_operation_between,
)

from .test_local_search import random_state

SEEDS = list(range(24))


def _assert_lockstep(incremental, reference, state_inc, state_ref):
    assert incremental.final_cost == reference.final_cost
    assert incremental.converged == reference.converged
    assert incremental.iterations == reference.iterations
    assert incremental.operations == reference.operations
    assert (
        incremental.admissibility_rejections
        == reference.admissibility_rejections
    )
    assert state_inc.to_assignment() == state_ref.to_assignment()
    state_inc.audit()


@pytest.mark.parametrize("seed", SEEDS)
def test_node_level_matches_reference(seed):
    state_inc = random_state(
        random.Random(seed), num_racks=3, per_rack=4, num_blocks=60, k=2, rho=2
    )
    state_ref = state_inc.copy()
    stats_inc = balance_node_level(state_inc, log_operations=True)
    stats_ref = reference_balance_node_level(state_ref, log_operations=True)
    _assert_lockstep(stats_inc, stats_ref, state_inc, state_ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_rack_aware_matches_reference(seed):
    state_inc = random_state(
        random.Random(seed), num_racks=4, per_rack=3, num_blocks=70, k=3, rho=2
    )
    state_ref = state_inc.copy()
    stats_inc = balance_rack_aware(state_inc, log_operations=True)
    stats_ref = reference_balance_rack_aware(state_ref, log_operations=True)
    _assert_lockstep(stats_inc, stats_ref, state_inc, state_ref)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "make_policy",
    [
        lambda: RelativeCostPolicy(0.05),
        lambda: RelativeCostPolicy(0.5),
        lambda: RelativeGapPolicy(0.1),
        lambda: RelativeGapPolicy(0.7),
    ],
    ids=["relcost-0.05", "relcost-0.5", "relgap-0.1", "relgap-0.7"],
)
@pytest.mark.parametrize("algorithm", ["node", "rack"])
def test_epsilon_policies_match_reference(seed, make_policy, algorithm):
    """Epsilon admissibility decisions survive the cached-cost threading.

    ``RelativeCostPolicy`` reads the *global* objective, which the
    incremental engine threads through as a cached value and the pair
    memo keys on; any staleness would flip an admissibility decision and
    show up here as a diverged operation log or rejection count.
    """
    state_inc = random_state(
        random.Random(seed), num_racks=3, per_rack=4, num_blocks=50, k=2, rho=2
    )
    state_ref = state_inc.copy()
    if algorithm == "node":
        stats_inc = balance_node_level(
            state_inc, policy=make_policy(), log_operations=True
        )
        stats_ref = reference_balance_node_level(
            state_ref, policy=make_policy(), log_operations=True
        )
    else:
        stats_inc = balance_rack_aware(
            state_inc, policy=make_policy(), log_operations=True
        )
        stats_ref = reference_balance_rack_aware(
            state_ref, policy=make_policy(), log_operations=True
        )
    _assert_lockstep(stats_inc, stats_ref, state_inc, state_ref)


@pytest.mark.parametrize("seed", range(12))
def test_single_probe_matches_reference(seed):
    """One ``find_operation_between`` probe returns the identical operation.

    Exercises the skip-based index walk against the rebuilt exclusive
    lists directly, including the rejection counts both record.
    """
    state = random_state(
        random.Random(seed), num_racks=2, per_rack=4, num_blocks=40, k=2
    )
    policy = RelativeGapPolicy(0.2)
    cost = state.cost()
    src = state.argmax_machine()
    dst = state.argmin_machine()
    stats_inc = SearchStats(initial_cost=cost, final_cost=cost)
    stats_ref = SearchStats(initial_cost=cost, final_cost=cost)
    op_inc = find_operation_between(state, src, dst, policy, cost, stats_inc)
    op_ref = reference_find_operation_between(
        state, src, dst, policy, cost, stats_ref
    )
    assert op_inc == op_ref
    assert (
        stats_inc.admissibility_rejections == stats_ref.admissibility_rejections
    )


@pytest.mark.parametrize("seed", range(6))
def test_max_operations_cap_matches_reference(seed):
    """Budgeted runs stop at the same point with the same partial result."""
    state_inc = random_state(
        random.Random(seed), num_racks=3, per_rack=3, num_blocks=50, k=2, rho=2
    )
    state_ref = state_inc.copy()
    stats_inc = balance_rack_aware(
        state_inc, max_operations=5, log_operations=True
    )
    stats_ref = reference_balance_rack_aware(
        state_ref, max_operations=5, log_operations=True
    )
    assert stats_inc.operations == stats_ref.operations
    assert state_inc.to_assignment() == state_ref.to_assignment()


def test_pruning_only_skips_proven_pairs():
    """Pruned probes never change results, only reduce probe counts."""
    state = random_state(
        random.Random(99), num_racks=4, per_rack=4, num_blocks=120, k=3, rho=2
    )
    stats = balance_rack_aware(state, log_operations=True)
    assert stats.pairs_probed > 0
    # Convergence requires at least one full unpruned sweep at the end.
    assert stats.converged
    state.audit()


def integer_state(rng, rack_spreads, num_racks=4, per_rack=3, num_blocks=60, k=2):
    """A feasible random placement with integer shares.

    Each block's popularity is ``k`` times a small integer, so with ``k``
    replicas every share, load and load gap is an integer and many
    candidate shares tie with a window edge.  ``rho`` is drawn per block
    from ``rack_spreads``.
    """
    capacity = max(4, (num_blocks * k * 2) // (num_racks * per_rack) + k)
    topo = ClusterTopology.uniform(num_racks, per_rack, capacity)
    problem = PlacementProblem(
        topology=topo,
        blocks=tuple(
            BlockSpec(
                block_id=i,
                popularity=float(k * rng.randint(1, 6)),
                replication_factor=k,
                rack_spread=rng.choice(rack_spreads),
            )
            for i in range(num_blocks)
        ),
    )
    state = PlacementState(problem)
    for spec in problem:
        block_id = spec.block_id
        for rack in rng.sample(list(topo.racks), spec.rack_spread):
            options = [
                m for m in topo.machines_in_rack(rack)
                if state.can_add(block_id, m)
            ]
            state.add_replica(block_id, rng.choice(options))
        while state.replica_count(block_id) < k:
            options = [m for m in topo.machines if state.can_add(block_id, m)]
            state.add_replica(block_id, rng.choice(options))
    return state


_INTEGER_POLICIES = [
    AlwaysAdmissible, lambda: RelativeGapPolicy(0.1), lambda: RelativeGapPolicy(0.3),
]
_INTEGER_POLICY_IDS = ["always", "relgap-0.1", "relgap-0.3"]
_RACK_SPREADS = [(1,), (1, 2)]
_RACK_SPREAD_IDS = ["rho1", "rho-mixed"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("rack_spreads", _RACK_SPREADS, ids=_RACK_SPREAD_IDS)
@pytest.mark.parametrize(
    "make_policy", _INTEGER_POLICIES, ids=_INTEGER_POLICY_IDS
)
def test_integer_rack_aware_matches_reference(seed, rack_spreads, make_policy):
    """Algorithm 2 in lockstep with the reference on tie-heavy instances."""
    state_inc = integer_state(random.Random(seed), rack_spreads)
    state_ref = state_inc.copy()
    stats_inc = balance_rack_aware(
        state_inc, policy=make_policy(), log_operations=True
    )
    stats_ref = reference_balance_rack_aware(
        state_ref, policy=make_policy(), log_operations=True
    )
    _assert_lockstep(stats_inc, stats_ref, state_inc, state_ref)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rack_spreads", _RACK_SPREADS, ids=_RACK_SPREAD_IDS)
@pytest.mark.parametrize(
    "make_policy", _INTEGER_POLICIES, ids=_INTEGER_POLICY_IDS
)
def test_integer_probes_match_reference(seed, rack_spreads, make_policy):
    """Every ordered machine pair's probe, along a search, matches the
    reference probe in its operation and its rejection count.

    Probing all pairs, not just the ones the search picks, reaches the
    pairs whose windows are empty or hold only ties with their edges.
    """
    state = integer_state(random.Random(1000 + seed), rack_spreads)
    policy = make_policy()
    machines = list(state.topology.machines)
    for _ in range(4):
        cost = state.cost()
        found = []
        for src in machines:
            for dst in machines:
                if src == dst:
                    continue
                stats_inc = SearchStats(initial_cost=cost, final_cost=cost)
                stats_ref = SearchStats(initial_cost=cost, final_cost=cost)
                op_inc = find_operation_between(
                    state, src, dst, policy, cost, stats_inc
                )
                op_ref = reference_find_operation_between(
                    state, src, dst, policy, cost, stats_ref
                )
                assert op_inc == op_ref, (src, dst)
                assert (
                    stats_inc.admissibility_rejections
                    == stats_ref.admissibility_rejections
                ), (src, dst)
                if op_inc is not None:
                    found.append(op_inc)
        if not found:
            break
        found[0].apply(state)
