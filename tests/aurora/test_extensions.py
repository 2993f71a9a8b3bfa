"""Tests for Aurora's future-work extensions (Section VIII).

The paper closes with "we are interested in implementing techniques such
as replication on read [9] and compression [10] for dynamic block
replication" — both are implemented behind AuroraConfig flags.
"""

import random

import pytest

from repro.aurora.config import AuroraConfig
from repro.aurora.system import AuroraSystem
from repro.cluster.topology import ClusterTopology
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.dfs.replication import TransferService
from repro.errors import InvalidProblemError
from repro.simulation.engine import Simulation


def make_namenode(seed=0, sim=None, transfers=None):
    topo = ClusterTopology.uniform(3, 4, capacity=100)
    return Namenode(
        topo, placement_policy=DefaultHdfsPolicy(random.Random(seed)),
        rng=random.Random(seed), sim=sim, transfer_service=transfers,
    )


class TestReplicateOnRead:
    def test_disabled_by_default(self):
        nn = make_namenode()
        aurora = AuroraSystem(nn, AuroraConfig())
        assert aurora.replicate_on_read is None
        assert not nn.read_listeners

    def test_remote_read_creates_replica(self):
        nn = make_namenode()
        aurora = AuroraSystem(nn, AuroraConfig(
            replicate_on_read_probability=1.0,
            replicate_on_read_budget=50,
        ))
        assert aurora.replicate_on_read is not None
        meta = nn.create_file("/hot", num_blocks=1)
        block = meta.block_ids[0]
        outsider = next(
            n for n in nn.topology.machines
            if n not in nn.blockmap.locations(block)
        )
        before = nn.blockmap.replica_count(block)
        nn.record_access(block, outsider)
        assert nn.blockmap.replica_count(block) == before + 1
        assert outsider in nn.blockmap.locations(block)
        assert aurora.replicate_on_read.replicas_created == 1

    def test_local_read_is_free(self):
        nn = make_namenode()
        aurora = AuroraSystem(nn, AuroraConfig(
            replicate_on_read_probability=1.0,
        ))
        meta = nn.create_file("/f", num_blocks=1)
        block = meta.block_ids[0]
        holder = next(iter(nn.blockmap.locations(block)))
        before = nn.blockmap.replica_count(block)
        nn.record_access(block, holder)
        assert nn.blockmap.replica_count(block) == before
        assert aurora.replicate_on_read.replicas_created == 0

    def test_budget_bounds_extras(self):
        nn = make_namenode(seed=2)
        aurora = AuroraSystem(nn, AuroraConfig(
            replicate_on_read_probability=1.0,
            replicate_on_read_budget=3,
        ))
        metas = [nn.create_file(f"/f{i}", num_blocks=1) for i in range(8)]
        rng = random.Random(3)
        for meta in metas:
            block = meta.block_ids[0]
            readers = [
                n for n in nn.topology.machines
                if n not in nn.blockmap.locations(block)
            ]
            nn.record_access(block, rng.choice(readers))
        assert aurora.replicate_on_read.extra_replicas <= 3

    def test_config_validation(self):
        with pytest.raises(InvalidProblemError):
            AuroraConfig(replicate_on_read_probability=1.5)
        with pytest.raises(InvalidProblemError):
            AuroraConfig(replicate_on_read_budget=-1)


class TestMovementCompression:
    def test_compression_applies_to_movement_only(self):
        sim = Simulation()
        topo = ClusterTopology.uniform(3, 4, capacity=100)
        transfers = TransferService(topo, sim=sim, jitter=0.0)
        nn = Namenode(
            topo, placement_policy=DefaultHdfsPolicy(random.Random(0)),
            rng=random.Random(0), sim=sim, transfer_service=transfers,
        )
        AuroraSystem(nn, AuroraConfig(movement_compression=27.0))
        assert nn.movement_compression == 27.0
        meta = nn.create_file("/f", num_blocks=1)
        write_durations = list(transfers.durations)
        # Pipeline writes are uncompressed.
        assert all(d > 0.1 for d in write_durations)
        # A replication transfer is 27x faster for the same block size.
        block = meta.block_ids[0]
        count_before = len(transfers.durations)
        nn.set_replication(block, 4)
        sim.run()
        movement = transfers.durations[count_before:]
        assert len(movement) == 1
        assert movement[0] < max(write_durations) / 10

    def test_compression_validation(self):
        with pytest.raises(InvalidProblemError):
            AuroraConfig(movement_compression=0.5)
