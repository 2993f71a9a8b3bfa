"""The wire SDK's read counters match the in-process client's.

Each trail runs once through :class:`DfsClient` on a simulated namenode
and once through :class:`ServeClient` against a stubbed ``http_call``
that answers the same way, replica by replica.  Both clients must count
the same failovers, sheds and errors.
"""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.dfs.client import DfsClient
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.errors import DatanodeUnavailableError
from repro.faults import RetryPolicy
from repro.overload.protection import (
    OverloadConfig,
    install_overload_protection,
)
from repro.overload.queueing import Priority
from repro.serve import client as serve_client
from repro.serve.httpd import HttpCallError
from repro.serve.wire import LocateResponse, ReplicaLocation, payload_checksum

BLOCK = 7
DATA = b"block bytes"
#: Three attempts cover three replicas in both walks, with no re-locate.
POLICY = RetryPolicy(max_attempts=3, base_delay=0.001, jitter=0.0)


def counts(client):
    return (client.read_failovers, client.reads_shed, client.read_errors)


def sim_namenode():
    topo = ClusterTopology.uniform(2, 4, capacity=60)
    return Namenode(
        topo, placement_policy=DefaultHdfsPolicy(random.Random(11)),
        rng=random.Random(11),
    )


def wire_client(monkeypatch, answers):
    """A ServeClient whose datanode GETs return ``answers`` in turn."""
    candidates = [
        ReplicaLocation(node=node, address=f"dn{node}")
        for node in range(len(answers))
    ]
    replies = iter(answers)

    def fake_http_call(address, method, path, payload=None, timeout=10.0):
        if path.startswith("/v1/blocks/") and method == "GET":
            located = LocateResponse(
                block_id=BLOCK, size=len(DATA), candidates=candidates
            )
            return 200, located.to_wire(), {}
        if path.startswith("/v1/"):
            return 200, {}, {}  # access / corruption reports
        reply = next(replies)
        if reply is None:
            raise HttpCallError(f"{address} refused")
        return reply

    monkeypatch.setattr(serve_client, "http_call", fake_http_call)
    return serve_client.ServeClient("nn", retry_policy=POLICY)


def test_shed_then_served(monkeypatch):
    nn = sim_namenode()
    protection = install_overload_protection(
        nn, OverloadConfig(queue_capacity=2, service_rate=1.0)
    )
    block = nn.create_file("/hot", num_blocks=1).block_ids[0]
    primary = nn.replica_preference(block, reader=0)[0]
    queue = protection.queues[primary]
    while queue.offer(0.0, Priority.CLIENT_READ) is not None:
        pass
    sim = DfsClient(nn, retry_policy=POLICY)
    assert sim.read_block(block, reader=0).source != primary

    served = (200, DATA, {"x-repro-checksum": str(payload_checksum(DATA))})
    wire = wire_client(monkeypatch, [(503, {}, {}), served])
    result = wire.read_block(BLOCK)
    assert (result.source, result.failovers) == (1, 1)

    assert counts(wire) == counts(sim) == (1, 1, 0)


def test_every_replica_down(monkeypatch):
    nn = sim_namenode()
    block = nn.create_file("/cold", num_blocks=1).block_ids[0]
    for node in nn.blockmap.locations(block):
        nn.datanode(node).crash()
    sim = DfsClient(nn, retry_policy=POLICY)
    with pytest.raises(DatanodeUnavailableError):
        sim.read_block(block, reader=0)

    wire = wire_client(monkeypatch, [None, None, None])
    with pytest.raises(DatanodeUnavailableError):
        wire.read_block(BLOCK)

    assert counts(wire) == counts(sim) == (3, 0, 1)
