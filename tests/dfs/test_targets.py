"""Replica-target indexes: differential and model-based tests.

The namenode answers "where does the next copy of this block go?" from
indexes (:mod:`repro.dfs.targets`) instead of scanning every node, lazy
pair and in-flight pair.  The brute-force scans those indexes replaced
live on here as oracles: hypothesis drives random failure, recovery,
wipe, decommission, fill-to-capacity, factor, load-vector and transfer
sequences, and after every step each index answer must equal the scan.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.dfs.replication import TransferService
from repro.dfs.targets import PairIndex
from repro.errors import DfsError, ReproError
from repro.simulation.engine import Simulation

RACKS, PER_RACK, CAPACITY = 3, 4, 6
NODES = RACKS * PER_RACK


# -- brute-force oracles ------------------------------------------------------


class _LoadModel:
    """The load vector as the test installed it, evaluated independently."""

    def __init__(self) -> None:
        self.vector = None
        self.weight = 0.0

    def load(self, nn: Namenode, node: int) -> float:
        used = nn.datanodes[node].used_blocks
        if self.vector is None:
            return float(used)
        return self.vector[node] + self.weight * used


def _scan_candidates(nn, loads, block_id, exclude=frozenset()):
    """Every node that could take a copy, by full scan of all state."""
    holders = nn.blockmap.locations(block_id)
    lazy_nodes = {node for (_b, node) in nn.lazy_replicas()}
    inflight = {t for (b, t) in nn._inflight.pairs() if b == block_id}
    candidates = []
    for node in range(NODES):
        dn = nn.datanodes[node]
        if (not dn.alive or dn.holds(block_id) or node in holders
                or node in inflight or node in exclude
                or node in nn._decommissioning):
            continue
        if dn.free_blocks > 0 or node in lazy_nodes:
            candidates.append(node)
    return candidates


def _least_loaded(nn, loads, nodes):
    if not nodes:
        return None
    return min(nodes, key=lambda node: (loads.load(nn, node), node))


def scan_replication_target(nn, loads, block_id):
    meta = nn.blockmap.meta(block_id)
    candidates = _scan_candidates(nn, loads, block_id)
    holder_racks = {
        nn.topology.rack_of[n] for n in nn.blockmap.locations(block_id)
    }
    if len(holder_racks) < meta.rack_spread:
        fresh = [n for n in candidates
                 if nn.topology.rack_of[n] not in holder_racks]
        candidates = fresh or candidates
    return _least_loaded(nn, loads, candidates)


def scan_migration_target(nn, loads, block_id, src, exclude):
    meta = nn.blockmap.meta(block_id)
    holders = nn.blockmap.locations(block_id)
    candidates = []
    for node in _scan_candidates(nn, loads, block_id, exclude):
        racks = {nn.topology.rack_of[n] for n in holders if n != src}
        racks.add(nn.topology.rack_of[node])
        if len(racks) >= meta.rack_spread:
            candidates.append(node)
    return _least_loaded(nn, loads, candidates)


# -- the differential driver ----------------------------------------------------


class _Driver:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        topo = ClusterTopology.uniform(RACKS, PER_RACK, CAPACITY)
        self.sim = Simulation()
        self.nn = Namenode(
            topo,
            placement_policy=DefaultHdfsPolicy(random.Random(seed + 1)),
            sim=self.sim,
            transfer_service=TransferService(
                topo, sim=self.sim, rng=random.Random(seed + 2)
            ),
            rng=random.Random(seed + 3),
        )
        self.loads = _LoadModel()
        self.counter = 0

    def blocks(self):
        return sorted(self.nn.blockmap.block_ids())

    def create(self, writer=None, replication=None, spread=None):
        self.counter += 1
        rng = self.rng
        self.nn.create_file(
            f"/f{self.counter}",
            num_blocks=1 if writer is not None else rng.randint(1, 2),
            writer=writer,
            replication=replication or rng.randint(1, 4),
            rack_spread=spread or rng.randint(1, 2),
        )

    def op_create(self):
        self.create()

    def op_fill(self):
        live = [dn for dn in self.nn.datanodes if dn.alive]
        if not live:
            return
        dn = self.rng.choice(live)
        for _ in range(CAPACITY):
            if dn.free_blocks == 0:
                break
            self.create(writer=dn.node_id, replication=1, spread=1)

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

    def op_wipe(self):
        self.nn.wipe_node(self.rng.randrange(NODES))

    def op_decommission(self):
        self.nn.decommission_node(self.rng.randrange(NODES))

    def op_recommission(self):
        draining = sorted(self.nn._decommissioning)
        if draining:
            self.nn.recommission_node(self.rng.choice(draining))

    def op_factor_up(self):
        blocks = self.blocks()
        if blocks:
            block = self.rng.choice(blocks)
            factor = self.nn.blockmap.meta(block).replication_factor
            self.nn.set_replication(
                block, min(NODES, factor + self.rng.randint(1, 3))
            )

    def op_factor_down(self):
        blocks = self.blocks()
        if blocks:
            block = self.rng.choice(blocks)
            factor = self.nn.blockmap.meta(block).replication_factor
            self.nn.set_replication(
                block, max(1, factor - self.rng.randint(1, 3))
            )

    def op_move(self):
        blocks = self.blocks()
        if not blocks:
            return
        block = self.rng.choice(blocks)
        holders = sorted(self.nn.blockmap.locations(block))
        if holders:
            self.nn.move_block(
                block, self.rng.choice(holders), self.rng.randrange(NODES)
            )

    def op_delete(self):
        paths = self.nn.list_files()
        if paths:
            self.nn.delete_file(self.rng.choice(paths))

    def op_vector(self):
        rng = self.rng
        if rng.random() < 0.2:
            vector, weight = None, 0.0
        else:
            # Few distinct values, so load ties are common.
            vector = [rng.choice((0.0, 1.0, 2.5)) for _ in range(NODES)]
            weight = rng.choice((0.0, 1e-6, 1.0))
        self.nn.set_load_vector(vector, weight)
        self.loads.vector = None if vector is None else list(vector)
        self.loads.weight = weight
        if vector is not None:
            vector[0] = 99.0  # the namenode keeps its own copy

    def op_advance(self):
        self.sim.run(until=self.sim.now + self.rng.uniform(0.2, 4.0))

    def step(self, name: str) -> None:
        try:
            getattr(self, "op_" + name)()
        except ReproError:
            pass  # infeasible ops must still leave the indexes exact

    def check(self) -> None:
        nn, rng = self.nn, self.rng
        for block in self.blocks():
            meta = nn.blockmap.meta(block)
            assert nn._pick_replication_target(block, meta) == (
                scan_replication_target(nn, self.loads, block)
            ), f"replication target of block {block}"
            holders = sorted(nn.blockmap.locations(block))
            if holders:
                src = rng.choice(holders)
                exclude = set(rng.sample(range(NODES), rng.randint(0, 3)))
                assert nn._pick_migration_target(
                    block, meta, src, exclude
                ) == scan_migration_target(
                    nn, self.loads, block, src, exclude
                ), f"migration target of block {block} off {src}"
        for node in range(NODES):
            assert nn.node_load(node) == self.loads.load(nn, node)
        nn.audit()


_OPS = [
    "create", "fill", "fail", "recover", "wipe", "decommission",
    "recommission", "factor_up", "factor_down", "move", "delete",
    "vector", "advance",
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    ops=st.lists(st.sampled_from(_OPS), min_size=5, max_size=40),
)
def test_index_targets_equal_scan_oracle(seed, ops):
    driver = _Driver(seed)
    for _ in range(4):
        driver.create()
    driver.check()
    for name in ops:
        driver.step(name)
        driver.check()
    driver.sim.run()
    driver.check()


def test_full_node_with_lazy_replica_stays_a_target():
    driver = _Driver(0)
    nn = driver.nn
    driver.create(writer=0, replication=2, spread=2)
    (block,) = driver.blocks()
    while nn.datanodes[0].free_blocks:
        driver.create(writer=0, replication=1, spread=1)
    # Node 0 is the most loaded, so it sheds the excess replica ...
    nn.set_load_vector([10.0] + [0.0] * (NODES - 1))
    nn.set_replication(block, 1)
    assert nn.lazy_replicas() == {(block, 0)}
    # ... then the least loaded: full, yet the best target.
    vector = [0.0] + [1.0] * (NODES - 1)
    nn.set_load_vector(vector)
    driver.loads.vector = vector
    driver.create(writer=5, replication=1, spread=1)
    fresh = driver.blocks()[-1]
    meta = nn.blockmap.meta(fresh)
    assert nn.datanodes[0].free_blocks == 0
    assert nn._pick_replication_target(fresh, meta) == 0
    driver.check()
    nn.set_replication(fresh, 2)
    driver.sim.run()
    assert nn.datanodes[0].holds(fresh)
    assert not nn.datanodes[0].holds(block)
    assert nn.lazy_evictions == 1
    driver.check()


# -- _ensure_space eviction order ----------------------------------------------


def test_ensure_space_evicts_lowest_block_id_first():
    topo = ClusterTopology.uniform(1, 2, capacity=3)
    nn = Namenode(topo, placement_policy=DefaultHdfsPolicy(random.Random(0)),
                  default_rack_spread=1)
    # Node 0 holds blocks 0, 1 and 2; blocks 2 and 0 become lazy there.
    for index in range(3):
        nn.create_file(f"/f{index}", num_blocks=1, writer=0,
                       replication=2, rack_spread=1)
    nn.set_load_vector([5.0, 0.0])  # node 0 is the one to shed replicas
    for block in (2, 0):
        nn.set_replication(block, 1)
    assert nn.lazy_replicas() == {(0, 0), (2, 0)}
    assert nn.datanodes[0].free_blocks == 0
    nn.create_file("/new", num_blocks=1, writer=0, replication=1)
    assert not nn.datanodes[0].holds(0)
    assert nn.datanodes[0].holds(2)
    assert nn.lazy_replicas() == {(2, 0)}
    assert nn.lazy_evictions == 1
    nn.audit()


# -- retract_replica and the load vector ------------------------------------------


def test_retract_replica_forgets_every_trace():
    topo = ClusterTopology.uniform(2, 3, capacity=10)
    nn = Namenode(topo, placement_policy=DefaultHdfsPolicy(random.Random(1)))
    block = nn.create_file("/a", num_blocks=1, replication=3).block_ids[0]
    nn.set_replication(block, 2)
    (lazy_node,) = {node for (_b, node) in nn.lazy_replicas()}
    nn.retract_replica(block, lazy_node)
    assert lazy_node not in nn.blockmap.locations(block)
    assert not nn.datanodes[lazy_node].holds(block)
    assert nn.lazy_replicas() == set()
    healthy = sorted(nn.blockmap.locations(block))[0]
    nn.datanodes[healthy].corrupt_replica(block)
    nn.report_corrupt_replica(block, healthy)
    nn.retract_replica(block, healthy)
    assert not nn.integrity.is_quarantined(block, healthy)
    nn.audit()


def test_load_vector_must_cover_every_datanode():
    topo = ClusterTopology.uniform(1, 3, capacity=4)
    nn = Namenode(topo)
    with pytest.raises(DfsError):
        nn.set_load_vector([1.0, 2.0])
    nn.set_load_vector([1.0, 2.0, 3.0], disk_weight=0.5)
    nn.create_file("/a", num_blocks=1, writer=2, replication=1,
                   rack_spread=1)
    assert nn.node_load(2) == 3.5
    nn.set_load_vector(None)
    assert nn.node_load(2) == 1.0


# -- pair indexes vs a plain set of pairs -------------------------------------------


def _pair_ops():
    pair = st.tuples(st.integers(0, 6), st.integers(0, 5))
    return st.lists(st.tuples(st.booleans(), pair), max_size=80)


def _check_against(index: PairIndex, model) -> None:
    assert index.pairs() == model
    assert set(index) == model
    for block in range(7):
        assert set(index.nodes_of(block)) == {
            n for (b, n) in model if b == block
        }
    for node in range(6):
        assert set(index.blocks_on(node)) == {
            b for (b, n) in model if n == node
        }
    for block in range(7):
        for node in range(6):
            assert ((block, node) in index) == ((block, node) in model)
    index.audit()


@settings(max_examples=60, deadline=None)
@given(ops=_pair_ops())
def test_lazy_ledger_matches_pair_set(ops):
    """The ledger, with the per-node hook the target index relies on."""
    fired = []
    ledger = PairIndex(on_node_change=fired.append)
    model = set()
    for add, (block, node) in ops:
        had = any(n == node for (_b, n) in model)
        if add:
            ledger.add(block, node)
            model.add((block, node))
        else:
            ledger.discard(block, node)
            model.discard((block, node))
        has = any(n == node for (_b, n) in model)
        # The hook fires exactly when the node's "has a lazy replica"
        # bit flips.
        assert fired == ([node] if had != has else [])
        fired.clear()
        _check_against(ledger, model)


@settings(max_examples=60, deadline=None)
@given(ops=_pair_ops())
def test_inflight_index_matches_pair_set(ops):
    inflight = PairIndex()
    model = set()
    for add, (block, target) in ops:
        if add:
            inflight.add(block, target)
            model.add((block, target))
        else:
            inflight.discard(block, target)
            model.discard((block, target))
        _check_against(inflight, model)
