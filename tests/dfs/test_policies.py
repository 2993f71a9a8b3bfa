"""Unit tests for the block placement policies (footnote-1 semantics).

The policies read per-rack loads, per-rack target orders and the
blocked-node set from the namenode's target index.  The scan policies
they replaced live on here as oracles: hypothesis drives random fault,
capacity, load-vector, lazy-replica and file-creation sequences on a
small namenode, and every placement must equal the oracle's, down to
the state of the RNG the default policy draws from.
"""

import random
from collections import Counter
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.dfs.block import BlockMeta
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy, LoadAwarePolicy
from repro.dfs.replication import TransferService
from repro.errors import CapacityExceededError, ReproError
from repro.simulation.engine import Simulation


class FakeContext:
    """Minimal PlacementContext over plain dicts; the rack views scan."""

    def __init__(self, topology, full=(), loads=None):
        self.topology = topology
        self._full = set(full)
        self._loads = loads or {}

    def can_store(self, node, block_id):
        return node not in self._full

    def node_load(self, node):
        return self._loads.get(node, 0.0)

    def rack_load(self, rack):
        return sum(
            self.node_load(node)
            for node in self.topology.machines_in_rack(rack)
        )

    def rack_targets(self, rack):
        return sorted(
            (node for node in self.topology.machines_in_rack(rack)
             if node not in self._full),
            key=lambda node: (self.node_load(node), node),
        )

    def blocked_nodes(self, block_id):
        return {
            node for node in self.topology.machines
            if not self.can_store(node, block_id)
        }


# -- the scan policies, kept as oracles ------------------------------------------


def _scan_rack_load(context, rack):
    return sum(
        context.node_load(node)
        for node in context.topology.machines_in_rack(rack)
    )


class ScanDefaultHdfsPolicy:
    """The default policy as it was: one ``can_store`` per machine."""

    def __init__(self, rng):
        self._rng = rng

    def choose_targets(self, context, meta, writer=None):
        topo = context.topology
        chosen: List[int] = []
        chosen_racks: List[int] = []

        def feasible_in_rack(rack):
            return [
                node
                for node in topo.machines_in_rack(rack)
                if node not in chosen and context.can_store(node, meta.block_id)
            ]

        first: Optional[int] = None
        if writer is not None and context.can_store(writer, meta.block_id):
            first = writer
        if first is None:
            candidates = [
                node for node in topo.machines
                if context.can_store(node, meta.block_id)
            ]
            if not candidates:
                raise CapacityExceededError("no datanode")
            first = self._rng.choice(candidates)
        chosen.append(first)
        chosen_racks.append(topo.rack_of[first])
        while len(chosen_racks) < meta.rack_spread:
            options = [
                rack for rack in topo.racks
                if rack not in chosen_racks and feasible_in_rack(rack)
            ]
            if not options:
                raise CapacityExceededError("no spread")
            rack = self._rng.choice(options)
            chosen.append(self._rng.choice(feasible_in_rack(rack)))
            chosen_racks.append(rack)
        while len(chosen) < meta.replication_factor:
            pool = [
                node
                for rack in chosen_racks
                for node in feasible_in_rack(rack)
            ]
            if not pool:
                pool = [
                    node for node in topo.machines
                    if node not in chosen
                    and context.can_store(node, meta.block_id)
                ]
            if not pool:
                raise CapacityExceededError("no room")
            pick = self._rng.choice(pool)
            chosen.append(pick)
            if topo.rack_of[pick] not in chosen_racks:
                chosen_racks.append(topo.rack_of[pick])
        return chosen


class ScanLoadAwarePolicy:
    """Algorithm 4 as it was: every rack summed, every rack scanned."""

    def choose_targets(self, context, meta, writer=None):
        topo = context.topology
        chosen: List[int] = []
        chosen_racks: List[int] = []

        def best_in_rack(rack):
            candidates = [
                node
                for node in topo.machines_in_rack(rack)
                if node not in chosen and context.can_store(node, meta.block_id)
            ]
            if not candidates:
                return None
            return min(candidates, key=context.node_load)

        def racks_by_load(exclude):
            racks = [rack for rack in topo.racks if rack not in exclude]
            racks.sort(key=lambda rack: _scan_rack_load(context, rack))
            return racks

        first: Optional[int] = None
        if writer is not None and context.can_store(writer, meta.block_id):
            first = writer
        if first is None:
            for rack in racks_by_load([]):
                first = best_in_rack(rack)
                if first is not None:
                    break
        if first is None:
            raise CapacityExceededError("no datanode")
        chosen.append(first)
        chosen_racks.append(topo.rack_of[first])
        while len(chosen_racks) < meta.rack_spread:
            placed = False
            for rack in racks_by_load(chosen_racks):
                node = best_in_rack(rack)
                if node is None:
                    continue
                chosen.append(node)
                chosen_racks.append(rack)
                placed = True
                break
            if not placed:
                raise CapacityExceededError("no spread")
        while len(chosen) < meta.replication_factor:
            candidates = [
                node for rack in chosen_racks
                for node in [best_in_rack(rack)] if node is not None
            ]
            if not candidates:
                for rack in racks_by_load(chosen_racks):
                    node = best_in_rack(rack)
                    if node is not None:
                        candidates.append(node)
                        chosen_racks.append(rack)
                        break
            if not candidates:
                raise CapacityExceededError("no room")
            chosen.append(min(candidates, key=context.node_load))
        return chosen


def meta(block_id=0, k=3, rho=2):
    return BlockMeta(block_id=block_id, file_id=0, replication_factor=k,
                     rack_spread=rho)


class TestDefaultHdfsPolicy:
    def topo(self):
        return ClusterTopology.uniform(4, 4, capacity=10)

    def test_footnote_semantics_with_writer(self):
        """Task-written block: first replica local, rest in ONE other rack."""
        topo = self.topo()
        policy = DefaultHdfsPolicy(random.Random(0))
        context = FakeContext(topo)
        for _ in range(50):
            targets = policy.choose_targets(context, meta(), writer=0)
            assert len(targets) == 3
            assert targets[0] == 0
            racks = [topo.rack_of[t] for t in targets]
            # Exactly 2 distinct racks: the writer's and one remote rack.
            assert len(set(racks)) == 2
            assert len(set(targets)) == 3

    def test_without_writer_uses_two_racks(self):
        topo = self.topo()
        policy = DefaultHdfsPolicy(random.Random(1))
        context = FakeContext(topo)
        targets = policy.choose_targets(context, meta())
        racks = {topo.rack_of[t] for t in targets}
        assert len(racks) == 2

    def test_random_spread_across_cluster(self):
        """Over many placements, every machine gets used."""
        topo = self.topo()
        policy = DefaultHdfsPolicy(random.Random(2))
        context = FakeContext(topo)
        counts = Counter()
        for i in range(200):
            for t in policy.choose_targets(context, meta(block_id=i)):
                counts[t] += 1
        assert len(counts) == topo.num_machines

    def test_skips_full_machines(self):
        topo = self.topo()
        policy = DefaultHdfsPolicy(random.Random(3))
        context = FakeContext(topo, full={0, 1, 2, 3})  # rack 0 full
        for _ in range(20):
            targets = policy.choose_targets(context, meta(), writer=0)
            assert all(t > 3 for t in targets)

    def test_raises_when_cluster_full(self):
        topo = self.topo()
        policy = DefaultHdfsPolicy(random.Random(4))
        context = FakeContext(topo, full=set(topo.machines))
        with pytest.raises(CapacityExceededError):
            policy.choose_targets(context, meta())

    def test_spread_infeasible_raises(self):
        topo = ClusterTopology.uniform(2, 3, capacity=10)
        policy = DefaultHdfsPolicy(random.Random(5))
        # Rack 1 entirely full: spread 2 is impossible.
        context = FakeContext(topo, full={3, 4, 5})
        with pytest.raises(CapacityExceededError):
            policy.choose_targets(context, meta())

    def test_single_replica_single_rack(self):
        topo = self.topo()
        policy = DefaultHdfsPolicy(random.Random(6))
        context = FakeContext(topo)
        targets = policy.choose_targets(context, meta(k=1, rho=1))
        assert len(targets) == 1


class TestLoadAwarePolicy:
    def topo(self):
        return ClusterTopology.uniform(3, 3, capacity=10)

    def test_picks_least_loaded_machines(self):
        topo = self.topo()
        loads = {n: float(n) for n in topo.machines}  # machine 0 coldest
        context = FakeContext(topo, loads=loads)
        targets = LoadAwarePolicy().choose_targets(context, meta())
        assert 0 in targets
        # The heaviest machine is never chosen.
        assert 8 not in targets

    def test_rack_spread_uses_lowest_load_racks(self):
        topo = self.topo()
        # Rack 2 is red-hot; racks 0 and 1 are cold.
        loads = {n: (100.0 if topo.rack_of[n] == 2 else 1.0)
                 for n in topo.machines}
        context = FakeContext(topo, loads=loads)
        targets = LoadAwarePolicy().choose_targets(context, meta())
        racks = {topo.rack_of[t] for t in targets}
        assert racks == {0, 1}

    def test_writer_local_first(self):
        topo = self.topo()
        context = FakeContext(topo)
        targets = LoadAwarePolicy().choose_targets(context, meta(), writer=4)
        assert targets[0] == 4

    def test_writer_skipped_when_full(self):
        topo = self.topo()
        context = FakeContext(topo, full={4})
        targets = LoadAwarePolicy().choose_targets(context, meta(), writer=4)
        assert 4 not in targets

    def test_deterministic_given_loads(self):
        topo = self.topo()
        loads = {n: float((n * 7) % 5) for n in topo.machines}
        context = FakeContext(topo, loads=loads)
        a = LoadAwarePolicy().choose_targets(context, meta())
        b = LoadAwarePolicy().choose_targets(context, meta())
        assert a == b

    def test_raises_when_cluster_full(self):
        topo = self.topo()
        context = FakeContext(topo, full=set(topo.machines))
        with pytest.raises(CapacityExceededError):
            LoadAwarePolicy().choose_targets(context, meta())


# -- indexed policies vs the scan oracles on a live namenode -----------------------

RACKS, PER_RACK, CAPACITY = 3, 4, 5
NODES = RACKS * PER_RACK


def _outcome(policy, context, meta, writer):
    try:
        return policy.choose_targets(context, meta, writer)
    except CapacityExceededError:
        return "full"


class _Differential:
    """A namenode placement policy that runs both pairs side by side.

    Every call runs the indexed default policy and its oracle from
    identically seeded RNGs, and the indexed load-aware policy and its
    oracle; each pair must agree, RNG state included.  The pick of the
    pair in force is returned.
    """

    def __init__(self, seed):
        self.default = DefaultHdfsPolicy(random.Random(seed))
        self.oracle_rng = random.Random(seed)
        self.default_oracle = ScanDefaultHdfsPolicy(self.oracle_rng)
        self.load_aware = LoadAwarePolicy()
        self.load_aware_oracle = ScanLoadAwarePolicy()
        self.use_load_aware = False
        self.calls = 0

    def compare(self, context, meta, writer):
        self.calls += 1
        hdfs = _outcome(self.default, context, meta, writer)
        assert hdfs == _outcome(self.default_oracle, context, meta, writer)
        assert self.default._rng.getstate() == self.oracle_rng.getstate()
        aware = _outcome(self.load_aware, context, meta, writer)
        assert aware == _outcome(
            self.load_aware_oracle, context, meta, writer
        )
        return aware if self.use_load_aware else hdfs

    def choose_targets(self, context, meta, writer=None):
        targets = self.compare(context, meta, writer)
        if targets == "full":
            raise CapacityExceededError(f"block {meta.block_id}")
        return targets


class _PlacementDriver:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        topo = ClusterTopology.uniform(RACKS, PER_RACK, CAPACITY)
        self.sim = Simulation()
        self.policy = _Differential(seed + 1)
        self.nn = Namenode(
            topo, placement_policy=self.policy, sim=self.sim,
            transfer_service=TransferService(
                topo, sim=self.sim, rng=random.Random(seed + 2)
            ),
            rng=random.Random(seed + 3),
        )
        self.counter = 0

    def blocks(self):
        return sorted(self.nn.blockmap.block_ids())

    def create(self, writer=None, replication=None, spread=None):
        self.counter += 1
        rng = self.rng
        self.nn.create_file(
            f"/f{self.counter}", num_blocks=rng.randint(1, 2),
            writer=writer, replication=replication or rng.randint(1, 4),
            rack_spread=spread or rng.randint(1, 2),
        )

    def op_create(self):
        writer = self.rng.choice([None, self.rng.randrange(NODES)])
        self.create(writer=writer)

    def op_fill(self):
        live = sorted(self.nn.live_nodes())
        if live:
            node = self.rng.choice(live)
            for _ in range(CAPACITY):
                if self.nn.datanodes[node].free_blocks == 0:
                    break
                self.create(writer=node, replication=1, spread=1)

    def op_fail(self):
        if len(self.nn.live_nodes()) > 4:
            self.nn.fail_node(
                self.rng.randrange(NODES),
                re_replicate=self.rng.random() < 0.5,
            )

    def op_recover(self):
        dead = [dn.node_id for dn in self.nn.datanodes if not dn.alive]
        if dead:
            self.nn.recover_node(self.rng.choice(dead))

    def op_decommission(self):
        self.nn.decommission_node(self.rng.randrange(NODES))

    def op_recommission(self):
        draining = sorted(self.nn._decommissioning)
        if draining:
            self.nn.recommission_node(self.rng.choice(draining))

    def op_vector(self):
        rng = self.rng
        if rng.random() < 0.2:
            self.nn.set_load_vector(None)
        else:
            # Few distinct values, so rack and node load ties are common.
            self.nn.set_load_vector(
                [rng.choice((0.0, 0.5, 1.0, 2.5)) for _ in range(NODES)],
                rng.choice((0.0, 1e-6, 1.0)),
            )

    def op_lazy(self):
        blocks = self.blocks()
        if blocks:
            block = self.rng.choice(blocks)
            factor = self.nn.blockmap.meta(block).replication_factor
            self.nn.set_replication(
                block, max(1, factor - self.rng.randint(1, 2))
            )

    def op_factor_up(self):
        blocks = self.blocks()
        if blocks:
            block = self.rng.choice(blocks)
            factor = self.nn.blockmap.meta(block).replication_factor
            self.nn.set_replication(block, min(NODES, factor + 1))

    def op_policy(self):
        self.policy.use_load_aware = not self.policy.use_load_aware

    def op_advance(self):
        self.sim.run(until=self.sim.now + self.rng.uniform(0.2, 4.0))

    def step(self, name):
        try:
            getattr(self, "op_" + name)()
        except ReproError:
            pass  # an infeasible op must still leave the indexes exact

    def check(self):
        nn, rng = self.nn, self.rng
        for block in self.blocks():
            blocked = nn.blocked_nodes(block)
            for node in range(NODES):
                assert (node in blocked) == (not nn.can_store(node, block)), (
                    f"blocked_nodes({block}) disagrees on node {node}"
                )
        # Probe placements for existing blocks: their holders and every
        # non-accepting node are off limits.
        for block in rng.sample(self.blocks(), min(3, len(self.blocks()))):
            replication = rng.randint(1, 4)
            probe = BlockMeta(
                block_id=block, file_id=0, replication_factor=replication,
                rack_spread=rng.randint(1, min(replication, RACKS)),
            )
            writer = rng.choice([None, rng.randrange(NODES)])
            self.policy.compare(nn, probe, writer)
        nn.audit()


_PLACEMENT_OPS = [
    "create", "create", "fill", "fail", "recover", "decommission",
    "recommission", "vector", "lazy", "factor_up", "policy", "advance",
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    ops=st.lists(st.sampled_from(_PLACEMENT_OPS), min_size=5, max_size=40),
)
def test_indexed_policies_equal_scan_oracles(seed, ops):
    driver = _PlacementDriver(seed)
    for _ in range(3):
        driver.create()
    driver.check()
    for name in ops:
        driver.step(name)
        driver.check()
    driver.sim.run()
    driver.check()
    assert driver.policy.calls > 0
