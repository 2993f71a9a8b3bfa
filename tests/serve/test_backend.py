"""Conformance tests for the DfsBackend protocol via SimBackend.

These assertions are written against the protocol surface only, so they
describe the behaviour both deployment modes must share; the socket
variant is exercised end-to-end in ``test_e2e_sockets.py``.
"""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.dfs.client import DfsClient
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.errors import BlockNotFoundError, FileNotFoundInDfsError
from repro.overload.protection import (
    OverloadConfig,
    install_overload_protection,
)
from repro.overload.queueing import Priority
from repro.serve.backend import DfsBackend, SimBackend
from repro.serve.client import ServeClient
from repro.serve.wire import FileInfo, payload_checksum


def build_backend(seed=0, racks=2, per_rack=2, capacity=64):
    topology = ClusterTopology.uniform(racks, per_rack, capacity)
    namenode = Namenode(
        topology,
        placement_policy=DefaultHdfsPolicy(random.Random(seed)),
        rng=random.Random(seed + 1),
        default_replication=2,
    )
    return SimBackend(namenode)


def test_both_implementations_satisfy_the_protocol():
    assert isinstance(build_backend(), DfsBackend)
    # Structural check only — no server needed to verify the surface.
    assert issubclass(ServeClient, DfsBackend)


class TestSimBackendConformance:
    def test_write_then_read_round_trips_bytes(self):
        backend = build_backend()
        payloads = [b"alpha" * 100, b"beta" * 200, b"\x00" * 64]
        info = backend.write_file("/data/a", payloads)
        assert isinstance(info, FileInfo)
        assert len(info.blocks) == len(payloads)
        reads = backend.read_file("/data/a")
        assert [r.data for r in reads] == payloads
        for read in reads:
            assert read.checksum == payload_checksum(read.data)
            assert read.attempts >= 1
            assert read.failovers == 0

    def test_read_block_fails_over_after_crash(self):
        backend = build_backend()
        info = backend.write_file("/data/a", [b"payload" * 10])
        block = info.blocks[0]
        assert len(block.locations) == 2
        primary = backend.namenode.replica_preference(
            block.block_id, backend.reader
        )[0]
        backend.namenode.datanode(primary).crash()
        read = backend.read_block(block.block_id)
        assert read.data == b"payload" * 10
        assert read.source != primary
        assert read.failovers >= 1

    def test_hedge_win_is_not_a_failover(self):
        # A hedge that wins adds its node to the attempt trail, but no
        # attempt failed: failovers mean failed attempts, as on the wire.
        backend = build_backend()
        info = backend.write_file("/data/a", [b"payload" * 10])
        block_id = info.blocks[0].block_id
        protection = install_overload_protection(
            backend.namenode, OverloadConfig(
                queue_capacity=8, service_rate=1.0,
                hedge_latency_budget=2.0,
            )
        )
        backend.client = DfsClient(
            backend.namenode, hedge_latency_budget=2.0
        )
        primary = backend.namenode.replica_preference(
            block_id, backend.reader
        )[0]
        for _ in range(5):
            protection.queues[primary].offer(0.0, Priority.CLIENT_READ)
        read = backend.read_block(block_id)
        assert backend.client.hedge_wins == 1
        assert read.source != primary
        assert (read.failovers, read.attempts) == (0, 1)
        assert backend.client.read_failovers == 0

    def test_unknown_block_raises(self):
        backend = build_backend()
        with pytest.raises(BlockNotFoundError):
            backend.read_block(999_999)

    def test_delete_removes_file_and_contents(self):
        backend = build_backend()
        info = backend.write_file("/data/a", [b"x" * 10])
        backend.delete_file("/data/a")
        assert "/data/a" not in backend.list_files()
        with pytest.raises(FileNotFoundInDfsError):
            backend.lookup("/data/a")
        with pytest.raises(BlockNotFoundError):
            backend.read_block(info.blocks[0].block_id)

    def test_list_files(self):
        backend = build_backend()
        backend.write_file("/a", [b"1"])
        backend.write_file("/b", [b"2"])
        assert sorted(backend.list_files()) == ["/a", "/b"]

    def test_set_replication_changes_targets(self):
        backend = build_backend()
        info = backend.write_file("/data/a", [b"x" * 10], replication=2)
        backend.set_replication("/data/a", 3)
        block_id = info.blocks[0].block_id
        meta = backend.namenode.blockmap.meta(block_id)
        assert meta.replication_factor == 3

    def test_fsck_healthy_after_writes(self):
        backend = build_backend()
        backend.write_file("/data/a", [b"x" * 10, b"y" * 10])
        report = backend.fsck()
        assert report["healthy"] is True
        report = backend.fsck(verify=True)
        assert report["healthy"] is True

    def test_status_shape_matches_wire_status(self):
        backend = build_backend()
        backend.write_file("/data/a", [b"x" * 10])
        status = backend.status()
        # Keys shared with the network namenode's /v1/status payload.
        assert status["files"] == 1
        assert status["blocks"] == 1
        assert status["safe_mode"] is False
        assert status["under_replicated"] == 0
        assert set(status["live_datanodes"]) == {0, 1, 2, 3}
        assert status["replications_completed"] == 0
