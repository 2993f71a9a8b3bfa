"""Integration tests for the Aurora system (Algorithm 5 + wiring)."""

import random

import pytest

from repro.aurora.bridge import replay_operations, snapshot_placement
from repro.aurora.config import AuroraConfig
from repro.aurora.system import AuroraSystem
from repro.cluster.topology import ClusterTopology
from repro.core.admissibility import (
    AlwaysAdmissible,
    RelativeCostPolicy,
    RelativeGapPolicy,
)
from repro.core.operations import MoveOp, SwapOp
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy, LoadAwarePolicy
from repro.errors import InvalidProblemError
from repro.simulation.engine import Simulation


def make_namenode(num_racks=3, per_rack=4, capacity=200, seed=0, sim=None):
    topo = ClusterTopology.uniform(num_racks, per_rack, capacity)
    return Namenode(
        topo, placement_policy=DefaultHdfsPolicy(random.Random(seed)),
        rng=random.Random(seed), sim=sim,
    )


class TestAuroraConfig:
    def test_defaults_match_paper(self):
        config = AuroraConfig()
        assert config.window == 2 * 3600.0
        assert config.period == 3600.0
        assert config.max_replication_ops == 20_000

    def test_validation(self):
        with pytest.raises(InvalidProblemError):
            AuroraConfig(epsilon=1.0)
        with pytest.raises(InvalidProblemError):
            AuroraConfig(window=0)
        with pytest.raises(InvalidProblemError):
            AuroraConfig(period=-1)
        with pytest.raises(InvalidProblemError):
            AuroraConfig(min_replication=0)
        with pytest.raises(InvalidProblemError):
            AuroraConfig(rack_spread=4, min_replication=3)
        with pytest.raises(InvalidProblemError):
            AuroraConfig(replication_budget=-5)


class TestBridge:
    def test_snapshot_round_trip(self):
        nn = make_namenode()
        nn.create_file("/a", num_blocks=3)
        nn.create_file("/b", num_blocks=2)
        pops = {b: 2.0 for b in nn.blockmap.block_ids()}
        state = snapshot_placement(nn, pops)
        assert state.problem.num_blocks == 5
        for block_id in nn.blockmap.block_ids():
            assert state.machines_of(block_id) == nn.blockmap.locations(block_id)
            assert state.replica_count(block_id) == 3

    def test_snapshot_defaults_missing_popularity_to_zero(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        state = snapshot_placement(nn, {})
        assert state.problem.block(meta.block_ids[0]).popularity == 0.0

    def test_replay_move(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        src = next(iter(nn.blockmap.locations(block)))
        dst = next(
            n for n in nn.topology.machines_in_rack(nn.topology.rack_of[src])
            if n not in nn.blockmap.locations(block)
        )
        report = replay_operations(nn, [MoveOp(block=block, src=src, dst=dst)])
        assert report.moves_issued == 1
        assert report.moves_skipped == 0
        assert dst in nn.blockmap.locations(block)

    def test_replay_swap_as_two_moves(self):
        nn = make_namenode(num_racks=1, per_rack=4)
        a = nn.create_file("/a", num_blocks=1, replication=1, rack_spread=1)
        b = nn.create_file("/b", num_blocks=1, replication=1, rack_spread=1)
        block_a, block_b = a.block_ids[0], b.block_ids[0]
        node_a = next(iter(nn.blockmap.locations(block_a)))
        node_b = next(iter(nn.blockmap.locations(block_b)))
        if node_a == node_b:
            # Separate them deterministically so the swap is meaningful.
            node_b = next(
                m for m in nn.topology.machines if m != node_a
            )
            nn.move_block(block_b, node_a, node_b)
        report = replay_operations(
            nn, [SwapOp(block_i=block_a, src=node_a, block_j=block_b,
                        dst=node_b)]
        )
        assert report.moves_issued == 2
        assert node_b in nn.blockmap.locations(block_a)
        assert node_a in nn.blockmap.locations(block_b)

    def test_replay_skips_stale_operations(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        outsider = next(
            n for n in nn.topology.machines
            if n not in nn.blockmap.locations(block)
        )
        report = replay_operations(
            nn, [MoveOp(block=block, src=outsider, dst=0)]
        )
        assert report.moves_issued == 0
        assert report.moves_skipped == 1


class TestAuroraSystem:
    def simulate_access(self, nn, aurora, block_id, count, reader=0, time=0.0):
        for _ in range(count):
            nn.record_access(block_id, reader)

    def test_wires_monitor_and_policy(self):
        nn = make_namenode()
        aurora = AuroraSystem(nn, AuroraConfig())
        assert isinstance(nn.placement_policy, LoadAwarePolicy)
        meta = nn.create_file("/a", num_blocks=1)
        nn.record_access(meta.block_ids[0], reader=0)
        assert aurora.monitor.total_recorded == 1

    def test_optimize_balances_hotspot(self):
        nn = make_namenode(num_racks=2, per_rack=3)
        aurora = AuroraSystem(nn, AuroraConfig(epsilon=0.0))
        # Create several single-replica files stacked on a writer node so
        # their load lands on few machines.
        metas = [
            nn.create_file(f"/f{i}", num_blocks=1, replication=1,
                           rack_spread=1, writer=0)
            for i in range(6)
        ]
        for meta in metas:
            self.simulate_access(nn, aurora, meta.block_ids[0], count=10)
        report = aurora.optimize(now=100.0)
        assert report.cost_after < report.cost_before
        assert report.replay.moves_issued > 0
        # The blocks are now spread across machines.
        holders = {
            next(iter(nn.blockmap.locations(m.block_ids[0]))) for m in metas
        }
        assert len(holders) > 1

    def test_replication_phase_boosts_hot_block(self):
        nn = make_namenode()
        config = AuroraConfig(
            epsilon=0.0, replication_budget=10, min_replication=3,
        )
        aurora = AuroraSystem(nn, config)
        hot = nn.create_file("/hot", num_blocks=1)
        cold = nn.create_file("/cold", num_blocks=1)
        self.simulate_access(nn, aurora, hot.block_ids[0], count=40)
        self.simulate_access(nn, aurora, cold.block_ids[0], count=1)
        report = aurora.optimize(now=50.0)
        assert report.replication_increases > 0
        assert nn.blockmap.meta(hot.block_ids[0]).replication_factor > 3
        assert nn.blockmap.meta(cold.block_ids[0]).replication_factor == 3

    def test_replication_cap_respected(self):
        nn = make_namenode()
        config = AuroraConfig(
            epsilon=0.0, replication_budget=100, max_replication_ops=2,
        )
        aurora = AuroraSystem(nn, config)
        hot = nn.create_file("/hot", num_blocks=1)
        self.simulate_access(nn, aurora, hot.block_ids[0], count=50)
        report = aurora.optimize(now=50.0)
        assert report.replication_increases <= 2

    def test_factor_decrease_is_lazy(self):
        nn = make_namenode()
        # A tight budget (6 minimum + 9 headroom on a 12-machine cluster)
        # forces Algorithm 3 to steal when hotness flips.
        config = AuroraConfig(epsilon=0.0, replication_budget=15)
        aurora = AuroraSystem(nn, config)
        hot = nn.create_file("/hot", num_blocks=1)
        cold = nn.create_file("/cold", num_blocks=1)
        self.simulate_access(nn, aurora, hot.block_ids[0], count=30)
        aurora.optimize(now=10.0)
        boosted = nn.blockmap.meta(hot.block_ids[0]).replication_factor
        assert boosted > 3
        # Next period the roles flip: the budget is exhausted, so boosting
        # the newly hot block forces Algorithm 3 to steal replicas from
        # the old one — which are only marked lazy, not deleted.
        replicas_before = nn.blockmap.replica_count(hot.block_ids[0])
        late = 10 * 3600.0  # the old window has fully expired
        for _ in range(30):
            nn.record_access(cold.block_ids[0], reader=0)
            aurora.monitor.record_access(cold.block_ids[0], late)
        report = aurora.optimize(now=late)
        assert report.replication_decreases > 0
        assert nn.blockmap.meta(hot.block_ids[0]).replication_factor < boosted
        assert nn.blockmap.replica_count(hot.block_ids[0]) == replicas_before
        assert len(nn.lazy_replicas()) > 0

    def test_epsilon_policy_selection(self):
        nn = make_namenode()
        assert isinstance(
            AuroraSystem(nn, AuroraConfig(epsilon=0.0)).admissibility_policy(),
            AlwaysAdmissible,
        )
        nn2 = make_namenode()
        assert isinstance(
            AuroraSystem(nn2, AuroraConfig(epsilon=0.5)).admissibility_policy(),
            RelativeGapPolicy,
        )
        nn3 = make_namenode()
        policy = AuroraSystem(
            nn3, AuroraConfig(epsilon=0.5, use_cost_admissibility=True)
        ).admissibility_policy()
        assert isinstance(policy, RelativeCostPolicy)

    def test_node_load_uses_popularity(self):
        nn = make_namenode()
        aurora = AuroraSystem(nn, AuroraConfig())
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        holders = nn.blockmap.locations(block)
        aurora.refresh_loads({block: 9.0})
        for node in holders:
            assert nn.node_load(node) == pytest.approx(3.0, abs=1e-3)

    def test_periodic_scheduling(self):
        sim = Simulation()
        nn = make_namenode(sim=sim)
        aurora = AuroraSystem(nn, AuroraConfig(period=3600.0))
        nn.create_file("/a", num_blocks=2)
        aurora.run_periodic(sim)
        sim.run(until=2 * 3600.0 + 1)
        assert len(aurora.reports) == 2

    def test_rack_spread_preserved_through_optimization(self):
        nn = make_namenode(num_racks=3, per_rack=3)
        aurora = AuroraSystem(nn, AuroraConfig(epsilon=0.0))
        metas = [nn.create_file(f"/f{i}", num_blocks=2) for i in range(5)]
        rng = random.Random(1)
        for meta in metas:
            for block in meta.block_ids:
                for _ in range(rng.randint(0, 20)):
                    nn.record_access(block, rng.randrange(9))
        aurora.optimize(now=100.0)
        for meta in metas:
            for block in meta.block_ids:
                assert nn.blockmap.rack_spread(block) >= 2
                assert nn.blockmap.replica_count(block) >= 3
