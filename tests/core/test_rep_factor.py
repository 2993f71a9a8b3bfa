"""Unit and property tests for Algorithm 3 (Rep-Factor)."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.instance import PlacementProblem
from repro.core import rep_factor
from repro.core.reference import reference_compute_replication_factors
from repro.core.rep_factor import (
    compute_replication_factors,
    factors_for_problem,
    max_share,
    verify_optimal_factors,
)
from repro.errors import InvalidProblemError


class TestComputeReplicationFactors:
    def test_spreads_budget_onto_hot_block(self):
        result = compute_replication_factors(
            popularities={0: 90.0, 1: 10.0},
            min_factors={0: 1, 1: 1},
            budget=10,
            num_machines=20,
        )
        assert result.factors[0] == 9
        assert result.factors[1] == 1
        assert result.max_share == pytest.approx(10.0)
        assert result.budget_used == 10

    def test_respects_machine_cap(self):
        result = compute_replication_factors(
            popularities={0: 100.0, 1: 1.0},
            min_factors={0: 1, 1: 1},
            budget=50,
            num_machines=4,
        )
        assert result.factors[0] == 4
        # After block 0 is capped, the leftover budget flows to block 1
        # only while it is the max-share block.
        assert result.factors[1] >= 1

    def test_equal_popularities_get_equal_factors(self):
        result = compute_replication_factors(
            popularities={i: 10.0 for i in range(4)},
            min_factors={i: 1 for i in range(4)},
            budget=8,
            num_machines=10,
        )
        assert sorted(result.factors.values()) == [2, 2, 2, 2]

    def test_steal_rebalances_initial_factors(self):
        # Block 1 starts with an oversized factor; the budget is tight so
        # Algorithm 3 must steal replicas to serve hot block 0.
        result = compute_replication_factors(
            popularities={0: 100.0, 1: 1.0},
            min_factors={0: 1, 1: 1},
            budget=6,
            num_machines=10,
            initial_factors={0: 1, 1: 5},
        )
        assert result.factors[0] == 5
        assert result.factors[1] == 1
        assert result.max_share == pytest.approx(20.0)

    def test_min_factors_never_violated(self):
        result = compute_replication_factors(
            popularities={0: 100.0, 1: 0.0},
            min_factors={0: 1, 1: 3},
            budget=5,
            num_machines=10,
        )
        assert result.factors[1] >= 3
        assert result.factors[0] + result.factors[1] <= 5

    def test_max_iterations_caps_work(self):
        result = compute_replication_factors(
            popularities={0: 100.0, 1: 1.0},
            min_factors={0: 1, 1: 1},
            budget=50,
            num_machines=40,
            max_iterations=3,
        )
        assert result.iterations <= 3
        assert result.factors[0] <= 4

    def test_overfull_initial_factors_are_trimmed(self):
        result = compute_replication_factors(
            popularities={0: 10.0, 1: 10.0},
            min_factors={0: 1, 1: 1},
            budget=4,
            num_machines=10,
            initial_factors={0: 5, 1: 5},
        )
        assert sum(result.factors.values()) <= 4

    def test_validation_errors(self):
        with pytest.raises(InvalidProblemError):
            compute_replication_factors({0: 1.0}, {0: 2}, budget=1, num_machines=5)
        with pytest.raises(InvalidProblemError):
            compute_replication_factors({0: 1.0}, {1: 1}, budget=5, num_machines=5)
        with pytest.raises(InvalidProblemError):
            compute_replication_factors({0: 1.0}, {0: 0}, budget=5, num_machines=5)
        with pytest.raises(InvalidProblemError):
            compute_replication_factors({0: -1.0}, {0: 1}, budget=5, num_machines=5)
        with pytest.raises(InvalidProblemError):
            compute_replication_factors({0: 1.0}, {0: 9}, budget=9, num_machines=5)

    def test_zero_popularity_instance(self):
        result = compute_replication_factors(
            popularities={0: 0.0, 1: 0.0},
            min_factors={0: 1, 1: 1},
            budget=10,
            num_machines=5,
        )
        assert result.max_share == 0.0
        assert result.factors == {0: 1, 1: 1}

    def test_factors_for_problem_requires_budget(self):
        topo = ClusterTopology.uniform(2, 3, capacity=10)
        problem = PlacementProblem.from_popularities(topo, [5.0, 1.0])
        with pytest.raises(InvalidProblemError):
            factors_for_problem(problem)

    def test_factors_for_problem(self):
        topo = ClusterTopology.uniform(2, 3, capacity=20)
        problem = PlacementProblem.from_popularities(
            topo, [30.0, 3.0], replication_factor=1, replication_budget=7
        )
        result = factors_for_problem(problem)
        assert result.factors[0] == 6
        assert result.factors[1] == 1


class TestOptimalityCertificate:
    def brute_force_best(self, pops, mins, budget, machines):
        """Exhaustive min-max share over all feasible factor vectors."""
        import itertools

        ids = list(pops)
        best = float("inf")
        ranges = [range(mins[i], machines + 1) for i in ids]
        for vector in itertools.product(*ranges):
            if sum(vector) > budget:
                continue
            share = max(pops[i] / k for i, k in zip(ids, vector))
            best = min(best, share)
        return best

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_blocks=st.integers(1, 5),
        machines=st.integers(2, 6),
    )
    def test_matches_brute_force(self, seed, num_blocks, machines):
        rng = random.Random(seed)
        pops = {i: rng.uniform(0.0, 50.0) for i in range(num_blocks)}
        mins = {i: rng.randint(1, 2) for i in range(num_blocks)}
        min_total = sum(mins.values())
        budget = rng.randint(min_total, min_total + 2 * num_blocks)
        result = compute_replication_factors(pops, mins, budget, machines)
        expected = self.brute_force_best(pops, mins, budget, machines)
        assert result.max_share == pytest.approx(expected)
        assert verify_optimal_factors(pops, mins, result.factors, budget, machines)

    def test_verify_rejects_suboptimal(self):
        pops = {0: 100.0, 1: 1.0}
        mins = {0: 1, 1: 1}
        bad = {0: 1, 1: 3}  # hot block starved
        assert not verify_optimal_factors(pops, mins, bad, budget=4, num_machines=10)

    def test_max_share_helper(self):
        assert max_share({}, {}) == 0.0
        assert max_share({0: 8.0, 1: 9.0}, {0: 2, 1: 3}) == pytest.approx(4.0)


# -- the array implementation against the frozen heap oracle -------------------

# A few repeated values make ties in share and post-steal share common.
_POPULARITY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 6.0, 12.5]),
    st.floats(0.0, 100.0),
)


@st.composite
def _rep_factor_inputs(draw):
    """Arguments for Algorithm 3, occasionally invalid.

    Budgets fall below, at and above the starting total, so the trim,
    grant and steal paths all run; starting factors may miss blocks and
    may be floats.
    """
    block_ids = draw(st.lists(
        st.integers(-50, 200), min_size=0, max_size=12, unique=True
    ))
    num_machines = draw(st.integers(1, 6))
    popularities = {b: draw(_POPULARITY) for b in block_ids}
    min_factors = {
        b: draw(st.integers(1, min(3, num_machines))) for b in block_ids
    }
    initial = draw(st.one_of(st.none(), st.just({}), *[st.fixed_dictionaries(
        {},
        optional={
            b: st.one_of(st.integers(-1, 8), st.floats(-1.0, 8.0))
            for b in block_ids
        },
    )] * 3))
    start_total = sum(
        max(min_factors[b], min(int((initial or min_factors).get(
            b, min_factors[b])), num_machines))
        for b in block_ids
    )
    min_total = sum(min_factors.values())
    budget = max(min_total, draw(st.one_of(
        st.integers(start_total - 3, start_total + 3),
        st.integers(min_total, min_total + 30),
    )))
    if block_ids and draw(st.integers(0, 9)) == 0:
        # One invalid input of each kind the validation checks.
        victim = draw(st.sampled_from(block_ids))
        kind = draw(st.sampled_from(["keys", "low", "high", "negative",
                                     "budget"]))
        if kind == "keys":
            del min_factors[victim]
        elif kind == "low":
            min_factors[victim] = draw(st.integers(-1, 0))
        elif kind == "high":
            min_factors[victim] = num_machines + 1
        elif kind == "negative":
            popularities[victim] = -draw(st.floats(0.5, 10.0))
        else:
            budget = sum(min_factors.values()) - 1
    max_iterations = draw(st.sampled_from([None, None, None, 0, 1, 3]))
    return (popularities, min_factors, budget, num_machines, initial,
            max_iterations)


def _run(solver, args):
    try:
        result = solver(*args)
    except InvalidProblemError as exc:
        return None, (type(exc), str(exc))
    return result, None


@settings(max_examples=500, deadline=None)
@given(args=_rep_factor_inputs(), chunk=st.sampled_from([1, 2, 5, 1024]))
def test_array_solver_matches_heap_oracle(args, chunk):
    """Identical factors (in key order), counts and errors on every input.

    Small chunk sizes make the sorted runs cross their chunk boundaries.
    """
    expected, expected_error = _run(reference_compute_replication_factors, args)
    with mock.patch.object(rep_factor, "_CHUNK", chunk):
        result, error = _run(compute_replication_factors, args)
    assert error == expected_error
    if expected is None:
        return
    assert list(result.factors.items()) == list(expected.factors.items())
    assert all(type(k) is int for k in result.factors.values())
    for field in ("iterations", "grants", "steals", "budget_used",
                  "exhausted_budget", "max_share"):
        assert getattr(result, field) == getattr(expected, field), field


def test_array_solver_matches_heap_oracle_at_scale():
    """A Zipf-like instance with every path hot: trim, grants, steals."""
    rng = random.Random(3)
    ids = rng.sample(range(100_000), 3000)
    pops = {b: round(rng.paretovariate(1.1), 1) for b in ids}
    mins = {b: rng.choice((1, 2, 3)) for b in ids}
    initial = {b: rng.choice((1, 2, 3, 4, 5.5)) for b in ids[::2]}
    for budget in (sum(mins.values()), 2 * len(ids), 4 * len(ids)):
        for cap in (None, 50):
            args = (pops, mins, budget, 40, initial, cap)
            expected = reference_compute_replication_factors(*args)
            result = compute_replication_factors(*args)
            assert list(result.factors.items()) == list(expected.factors.items())
            assert (result.iterations, result.grants, result.steals) == (
                expected.iterations, expected.grants, expected.steals
            )
            assert result.max_share == expected.max_share
