"""Unit tests for the cluster topology and problem instance models."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.instance import BlockSpec, PlacementProblem, ProblemVariant
from repro.errors import (
    InvalidProblemError,
    InvalidTopologyError,
    UnknownBlockError,
    UnknownMachineError,
)


class TestClusterTopology:
    def test_uniform_builds_dense_ids(self):
        topo = ClusterTopology.uniform(3, 4, capacity=7)
        assert topo.num_machines == 12
        assert topo.num_racks == 3
        assert list(topo.machines) == list(range(12))
        assert topo.machines_in_rack(1) == (4, 5, 6, 7)
        assert topo.rack_of_machine(5) == 1
        assert topo.capacity_of(0) == 7
        assert topo.total_capacity() == 84

    def test_from_rack_sizes(self):
        topo = ClusterTopology.from_rack_sizes([2, 3], capacity=5)
        assert topo.num_machines == 5
        assert topo.machines_in_rack(0) == (0, 1)
        assert topo.machines_in_rack(1) == (2, 3, 4)

    def test_same_rack(self):
        topo = ClusterTopology.uniform(2, 2, capacity=1)
        assert topo.same_rack(0, 1)
        assert not topo.same_rack(1, 2)

    def test_other_racks(self):
        topo = ClusterTopology.uniform(3, 1, capacity=1)
        assert list(topo.other_racks(1)) == [0, 2]

    def test_rejects_empty_topology(self):
        with pytest.raises(InvalidTopologyError):
            ClusterTopology((), ())

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidTopologyError):
            ClusterTopology((0, 0), (1,))

    def test_rejects_sparse_rack_ids(self):
        with pytest.raises(InvalidTopologyError):
            ClusterTopology((0, 2), (1, 1))

    def test_rejects_negative_capacity(self):
        with pytest.raises(InvalidTopologyError):
            ClusterTopology((0,), (-1,))

    def test_rejects_nonpositive_uniform_params(self):
        with pytest.raises(InvalidTopologyError):
            ClusterTopology.uniform(0, 3, capacity=1)

    def test_unknown_machine_raises(self):
        topo = ClusterTopology.uniform(1, 2, capacity=1)
        with pytest.raises(UnknownMachineError):
            topo.capacity_of(5)
        with pytest.raises(UnknownMachineError):
            topo.rack_of_machine(-1)

    def test_describe_mentions_counts(self):
        topo = ClusterTopology.uniform(2, 3, capacity=4)
        text = topo.describe()
        assert "6 machines" in text
        assert "2 racks" in text


class TestBlockSpec:
    def test_per_replica_popularity(self):
        spec = BlockSpec(block_id=0, popularity=9.0, replication_factor=3)
        assert spec.per_replica_popularity == pytest.approx(3.0)

    def test_with_replication_factor_caps_spread(self):
        spec = BlockSpec(0, 9.0, replication_factor=3, rack_spread=2)
        narrowed = spec.with_replication_factor(1)
        assert narrowed.replication_factor == 1
        assert narrowed.rack_spread == 1

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidProblemError):
            BlockSpec(-1, 1.0)
        with pytest.raises(InvalidProblemError):
            BlockSpec(0, -1.0)
        with pytest.raises(InvalidProblemError):
            BlockSpec(0, 1.0, replication_factor=0)
        with pytest.raises(InvalidProblemError):
            BlockSpec(0, 1.0, replication_factor=2, rack_spread=3)


class TestPlacementProblem:
    def topo(self):
        return ClusterTopology.uniform(2, 3, capacity=10)

    def test_variant_detection(self):
        node = PlacementProblem.from_popularities(self.topo(), [1.0, 2.0])
        assert node.variant() is ProblemVariant.BP_NODE
        rack = PlacementProblem.from_popularities(
            self.topo(), [1.0], replication_factor=3, rack_spread=2
        )
        assert rack.variant() is ProblemVariant.BP_RACK
        rep = PlacementProblem.from_popularities(
            self.topo(), [1.0], replication_budget=10
        )
        assert rep.variant() is ProblemVariant.BP_REPLICATE

    def test_lookup_and_iteration(self):
        problem = PlacementProblem.from_popularities(self.topo(), [1.0, 2.0, 3.0])
        assert problem.num_blocks == 3
        assert problem.block(1).popularity == pytest.approx(2.0)
        assert 2 in problem
        assert 9 not in problem
        assert list(problem.block_ids()) == [0, 1, 2]
        with pytest.raises(UnknownBlockError):
            problem.block(7)

    def test_aggregates(self):
        problem = PlacementProblem.from_popularities(
            self.topo(), [6.0, 3.0], replication_factor=3
        )
        assert problem.total_popularity() == pytest.approx(9.0)
        assert problem.max_per_replica_popularity() == pytest.approx(2.0)
        assert problem.minimum_total_replicas() == 6

    def test_rejects_duplicate_ids(self):
        blocks = (BlockSpec(0, 1.0, 1), BlockSpec(0, 2.0, 1))
        with pytest.raises(InvalidProblemError):
            PlacementProblem(topology=self.topo(), blocks=blocks)

    def test_rejects_factor_exceeding_machines(self):
        with pytest.raises(InvalidProblemError):
            PlacementProblem.from_popularities(
                self.topo(), [1.0], replication_factor=7
            )

    def test_rejects_spread_exceeding_racks(self):
        with pytest.raises(InvalidProblemError):
            PlacementProblem.from_popularities(
                self.topo(), [1.0], replication_factor=4, rack_spread=3
            )

    def test_rejects_budget_below_minimum(self):
        with pytest.raises(InvalidProblemError):
            PlacementProblem.from_popularities(
                self.topo(), [1.0, 1.0], replication_factor=3,
                replication_budget=5,
            )

    def test_rejects_overfull_cluster(self):
        tiny = ClusterTopology.uniform(1, 2, capacity=1)
        with pytest.raises(InvalidProblemError):
            PlacementProblem.from_popularities(
                tiny, [1.0, 1.0], replication_factor=2
            )

    @pytest.mark.parametrize("blocks, budget, message", [
        # A duplicate id anywhere outranks an earlier misfit block.
        ((BlockSpec(0, 1.0, 7), BlockSpec(1, 1.0, 1), BlockSpec(1, 1.0, 1)),
         None, "duplicate block id 1"),
        # The first misfit block is reported; factor before spread.
        ((BlockSpec(0, 1.0, 3, 3), BlockSpec(1, 1.0, 7)),
         None, "block 0: rack spread 3 exceeds rack count 2"),
        ((BlockSpec(0, 1.0, 7, 3), BlockSpec(1, 1.0, 3, 3)),
         None, "block 0: replication factor 7 exceeds machine count 6"),
        # The budget check comes before the capacity check.
        ((BlockSpec(0, 1.0, 6), BlockSpec(1, 1.0, 6)),
         11, "replication budget 11 is below the minimum replica count 12"),
    ])
    def test_error_precedence(self, blocks, budget, message):
        tight = ClusterTopology.uniform(2, 3, capacity=1)
        with pytest.raises(InvalidProblemError, match=f"^{message}$"):
            PlacementProblem(
                topology=tight, blocks=blocks, replication_budget=budget
            )

    def test_empty_problem_edge_cases(self):
        problem = PlacementProblem(topology=self.topo(), blocks=())
        assert problem.total_popularity() == 0.0
        assert problem.max_per_replica_popularity() == 0.0
        assert problem.variant() is ProblemVariant.BP_NODE
