"""Integration tests for the namenode: writes, reads, replication, failures."""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.dfs.client import DfsClient, Locality
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy, LoadAwarePolicy
from repro.dfs.replication import TransferService
from repro.errors import (
    CapacityExceededError,
    DatanodeUnavailableError,
    DfsError,
    FileExistsInDfsError,
    FileNotFoundInDfsError,
)
from repro.simulation.engine import Simulation


def make_namenode(num_racks=3, per_rack=4, capacity=50, policy=None, seed=0):
    topo = ClusterTopology.uniform(num_racks, per_rack, capacity)
    return Namenode(
        topo,
        placement_policy=policy or DefaultHdfsPolicy(random.Random(seed)),
        rng=random.Random(seed),
    )


class TestNamespace:
    def test_create_file_places_all_replicas(self):
        nn = make_namenode()
        meta = nn.create_file("/data/a", num_blocks=4)
        assert meta.num_blocks == 4
        for block_id in meta.block_ids:
            assert nn.blockmap.replica_count(block_id) == 3
            assert nn.blockmap.rack_spread(block_id) >= 2
        assert nn.list_files() == ["/data/a"]
        assert nn.file("/data/a") == meta
        assert nn.file_by_id(meta.file_id) == meta

    def test_create_rejects_duplicates_and_empty(self):
        nn = make_namenode()
        nn.create_file("/a", num_blocks=1)
        with pytest.raises(FileExistsInDfsError):
            nn.create_file("/a", num_blocks=1)
        with pytest.raises(DfsError):
            nn.create_file("/b", num_blocks=0)

    def test_failed_create_leaves_no_blocks_behind(self):
        nn = make_namenode(num_racks=2, per_rack=1, capacity=1)
        # The first block fills both disks; the second cannot be placed.
        with pytest.raises(CapacityExceededError):
            nn.create_file("/big", num_blocks=2, replication=2)
        assert list(nn.blockmap.block_ids()) == []
        assert all(dn.used_blocks == 0 for dn in nn.datanodes)
        nn.audit()
        meta = nn.create_file("/next", num_blocks=1, replication=2)
        assert nn.blockmap.meta(meta.block_ids[0]).file_id == meta.file_id
        nn.audit()

    def test_delete_file_frees_space(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=2)
        used_before = sum(dn.used_blocks for dn in nn.datanodes)
        assert used_before == 6
        nn.delete_file("/a")
        assert sum(dn.used_blocks for dn in nn.datanodes) == 0
        with pytest.raises(FileNotFoundInDfsError):
            nn.file("/a")
        for block_id in meta.block_ids:
            assert block_id not in nn.blockmap

    def test_writer_local_first_replica(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1, writer=5)
        block = meta.block_ids[0]
        assert 5 in nn.blockmap.locations(block)


class TestReads:
    def test_read_prefers_local_then_rack(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        holders = nn.blockmap.locations(block)
        some_holder = next(iter(holders))
        assert nn.choose_read_replica(block, some_holder) == some_holder
        # A reader in the same rack as a holder gets a rack-local replica.
        rack = nn.topology.rack_of[some_holder]
        rack_peers = [
            m for m in nn.topology.machines_in_rack(rack) if m not in holders
        ]
        if rack_peers:
            src = nn.choose_read_replica(block, rack_peers[0])
            assert nn.topology.rack_of[src] == rack

    def test_read_notifies_listeners(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        seen = []
        nn.access_listeners.append(lambda block, time: seen.append(block))
        nn.record_access(meta.block_ids[0], reader=0)
        assert seen == [meta.block_ids[0]]

    def test_read_fails_with_no_live_replica(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        for node in nn.blockmap.locations(block):
            nn.fail_node(node, re_replicate=False)
        # All original holders down and no re-replication ran.
        with pytest.raises(DatanodeUnavailableError):
            nn.choose_read_replica(block, reader=0)

    def test_client_classifies_locality(self):
        nn = make_namenode()
        client = DfsClient(nn)
        meta = client.write_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        holder = next(iter(nn.blockmap.locations(block)))
        result = client.read_block(block, reader=holder)
        assert result.locality is Locality.NODE_LOCAL
        assert result.is_local
        results = client.read_file("/a", reader=holder)
        assert len(results) == 1


class TestFailuresAndRecovery:
    def test_node_failure_triggers_re_replication(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=3)
        victim = next(iter(nn.blockmap.locations(meta.block_ids[0])))
        nn.fail_node(victim)
        live = nn.live_nodes()
        for block_id in meta.block_ids:
            assert len(nn.blockmap.live_locations(block_id, live)) >= 3
        assert nn.is_file_available("/a")

    def test_rack_failure_leaves_files_available(self):
        nn = make_namenode()
        nn.create_file("/a", num_blocks=5)
        nn.fail_rack(0, re_replicate=False)
        # Rack spread 2 guarantees availability through any single rack
        # outage even before repair.
        assert nn.is_file_available("/a")

    def test_recovery_restores_locations_via_block_report(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        victim = next(iter(nn.blockmap.locations(block)))
        nn.fail_node(victim, re_replicate=False)
        assert victim not in nn.blockmap.locations(block)
        nn.recover_node(victim)
        assert victim in nn.blockmap.locations(block)

    def test_recovery_discards_deleted_blocks(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        victim = next(iter(nn.blockmap.locations(block)))
        nn.fail_node(victim, re_replicate=False)
        nn.delete_file("/a")
        nn.recover_node(victim)
        assert not nn.datanode(victim).holds(block)

    def test_fail_is_idempotent(self):
        nn = make_namenode()
        nn.create_file("/a", num_blocks=1)
        nn.fail_node(0, re_replicate=False)
        nn.fail_node(0, re_replicate=False)  # no error
        nn.recover_node(0)
        nn.recover_node(0)  # no error


class TestReplicationManagement:
    def test_set_replication_up(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        nn.set_replication(block, 5)
        assert nn.blockmap.replica_count(block) == 5
        assert nn.blockmap.meta(block).replication_factor == 5

    def test_set_replication_down_is_lazy(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        nn.set_replication(block, 5)
        nn.set_replication(block, 3)
        # Replicas stay on disk (lazy) but two are marked deletable.
        assert nn.blockmap.replica_count(block) == 5
        assert len([p for p in nn.lazy_replicas() if p[0] == block]) == 2

    def test_lazy_replicas_are_reclaimed_on_increase(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        nn.set_replication(block, 5)
        nn.set_replication(block, 3)
        replications_before = nn.replications_completed
        nn.set_replication(block, 5)
        # Reclaiming marked replicas costs no new transfers.
        assert nn.replications_completed == replications_before
        assert nn.reclaimed_replicas == 2
        assert not nn.lazy_replicas()

    def test_lazy_eviction_when_space_needed(self):
        topo = ClusterTopology.uniform(2, 2, capacity=1)
        nn = Namenode(topo, placement_policy=DefaultHdfsPolicy(random.Random(0)),
                      rng=random.Random(0))
        meta = nn.create_file("/a", num_blocks=1, replication=4, rack_spread=2)
        block = meta.block_ids[0]
        nn.set_replication(block, 2)  # two replicas now lazy
        # Every disk is full; the new file can only land by evicting the
        # lazily deletable replicas.
        nn.create_file("/b", num_blocks=1, replication=2, rack_spread=2)
        assert nn.lazy_evictions == 2
        assert nn.blockmap.replica_count(block) == 2

    def test_mark_excess_preserves_rack_spread(self):
        nn = make_namenode(num_racks=2, per_rack=3)
        meta = nn.create_file("/a", num_blocks=1, replication=4, rack_spread=2)
        block = meta.block_ids[0]
        nn.set_replication(block, 2)
        active = [
            n for n in nn.blockmap.locations(block)
            if (block, n) not in nn.lazy_replicas()
        ]
        racks = {nn.topology.rack_of[n] for n in active}
        assert len(racks) >= 2

    def test_move_block_make_before_break(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        src = next(iter(nn.blockmap.locations(block)))
        dst = next(
            n for n in nn.topology.machines
            if n not in nn.blockmap.locations(block)
            and nn.topology.rack_of[n] == nn.topology.rack_of[src]
        )
        assert nn.move_block(block, src, dst)
        assert dst in nn.blockmap.locations(block)
        assert src not in nn.blockmap.locations(block)
        assert nn.blockmap.replica_count(block) == 3
        assert nn.moves_completed == 1

    def test_move_rejects_spread_violation(self):
        topo = ClusterTopology.uniform(2, 3, capacity=10)
        nn = Namenode(topo, placement_policy=DefaultHdfsPolicy(random.Random(0)))
        meta = nn.create_file("/a", num_blocks=1, replication=3, rack_spread=2)
        block = meta.block_ids[0]
        locations = nn.blockmap.locations(block)
        racks = {}
        for node in locations:
            racks.setdefault(nn.topology.rack_of[node], []).append(node)
        lonely_rack = min(racks, key=lambda r: len(racks[r]))
        src = racks[lonely_rack][0]
        other_rack = next(r for r in racks if r != lonely_rack)
        dst = next(
            n for n in nn.topology.machines_in_rack(other_rack)
            if n not in locations
        )
        assert not nn.move_block(block, src, dst)

    def test_move_rejects_unknown_source(self):
        nn = make_namenode()
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        outsider = next(
            n for n in nn.topology.machines
            if n not in nn.blockmap.locations(block)
        )
        with pytest.raises(DfsError):
            nn.move_block(block, outsider, 0)

    def test_timed_replication_with_simulator(self):
        sim = Simulation()
        topo = ClusterTopology.uniform(2, 3, capacity=50)
        transfers = TransferService(topo, sim=sim, jitter=0.0)
        nn = Namenode(topo, placement_policy=DefaultHdfsPolicy(random.Random(0)),
                      sim=sim, transfer_service=transfers)
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        nn.set_replication(block, 4)
        # Transfer has not completed yet.
        assert nn.blockmap.replica_count(block) == 3
        sim.run()
        assert nn.blockmap.replica_count(block) == 4
        assert max(transfers.durations) > 0


class TestLoadAwarePolicy:
    def test_targets_least_loaded_nodes(self):
        nn = make_namenode(policy=LoadAwarePolicy())
        loads = [0.0] * nn.topology.num_machines
        loads[0] = 100.0
        nn.set_load_vector(loads)
        meta = nn.create_file("/a", num_blocks=1)
        assert 0 not in nn.blockmap.locations(meta.block_ids[0])

    def test_spread_satisfied(self):
        nn = make_namenode(policy=LoadAwarePolicy())
        meta = nn.create_file("/a", num_blocks=6)
        for block_id in meta.block_ids:
            assert nn.blockmap.rack_spread(block_id) >= 2
