"""The wire SDK walks a read exactly as the in-process client does.

Each trail runs once through :class:`DfsClient` on a simulated namenode
and once through :class:`ServeClient` against a stubbed ``http_call``
that answers the same way, replica by replica.  Both clients must move
the same five counters, report the same failovers and raise the same
exception.
"""

import random
import time

import pytest

from repro.cluster.topology import ClusterTopology
from repro.dfs.client import DfsClient
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.errors import ChecksumError, DatanodeUnavailableError
from repro.faults import RetryPolicy
from repro.overload.breaker import BreakerState, CircuitBreaker
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

SERVED = (200, DATA, {"x-repro-checksum": str(payload_checksum(DATA))})
CORRUPT = (200, b"rotten", {"x-repro-checksum": str(payload_checksum(DATA))})
SHED = (503, {}, {})
DOWN = None


def counts(client):
    return (
        client.read_failovers, client.reads_shed, client.read_errors,
        client.breaker_skips, client.checksum_failures,
    )


def tripped(when):
    """A breaker opened at ``when`` (cool-down 30 s)."""
    breaker = CircuitBreaker()
    for _ in range(10):
        breaker.record_failure(when)
    assert breaker.state(when) is BreakerState.OPEN
    return breaker


def sim_namenode():
    topo = ClusterTopology.uniform(2, 4, capacity=60)
    nn = Namenode(
        topo, placement_policy=DefaultHdfsPolicy(random.Random(11)),
        rng=random.Random(11),
    )
    block = nn.create_file("/f", num_blocks=1).block_ids[0]
    return nn, block, list(nn.replica_preference(block, reader=0))


def wire_client(monkeypatch, answers, breakers=None, replicas=3):
    """A ServeClient whose datanode GETs return ``answers`` in turn."""
    candidates = [
        ReplicaLocation(node=node, address=f"dn{node}")
        for node in range(replicas)
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
    return serve_client.ServeClient(
        "nn", retry_policy=POLICY, breakers=breakers
    )


def shed_primary(nn, block, ranked):
    protection = install_overload_protection(
        nn, OverloadConfig(queue_capacity=2, service_rate=1.0)
    )
    queue = protection.queues[ranked[0]]
    while queue.offer(0.0, Priority.CLIENT_READ) is not None:
        pass


def crash_all(nn, block, ranked):
    for node in ranked:
        nn.datanode(node).crash()


def corrupt(count):
    def setup(nn, block, ranked):
        for node in ranked[:count]:
            nn.datanode(node).corrupt_replica(block)
    return setup


#: name -> (sim setup, wire answers, breaker-open first candidate,
#:          counters, read failovers or the exception raised)
TRAILS = {
    "shed-then-served": (shed_primary, [SHED, SERVED], False,
                         (1, 1, 0, 0, 0), 1),
    "all-down": (crash_all, [DOWN, DOWN, DOWN], False,
                 (3, 0, 1, 0, 0), DatanodeUnavailableError),
    "corrupt-then-served": (corrupt(1), [CORRUPT, SERVED], False,
                            (1, 0, 0, 0, 1), 1),
    "all-corrupt": (corrupt(3), [CORRUPT, CORRUPT, CORRUPT], False,
                    (3, 0, 1, 0, 3), ChecksumError),
    "breaker-open-then-served": (None, [SERVED], True,
                                 (0, 0, 0, 1, 0), 0),
}


def outcome(read):
    """A served read's failovers, or the exception class it raised."""
    try:
        return read().failovers
    except (ChecksumError, DatanodeUnavailableError) as exc:
        return type(exc)


@pytest.mark.parametrize("trail", sorted(TRAILS), ids=str)
def test_both_clients_walk_the_trail_alike(monkeypatch, trail):
    setup, answers, breaker_open, expected_counts, expected = TRAILS[trail]

    nn, block, ranked = sim_namenode()
    if setup is not None:
        setup(nn, block, ranked)
    sim_breakers = {ranked[0]: tripped(nn.now)} if breaker_open else None
    sim = DfsClient(nn, retry_policy=POLICY, breakers=sim_breakers)
    sim_outcome = outcome(lambda: sim.read_block(block, reader=0))

    wire_breakers = {0: tripped(time.monotonic())} if breaker_open else None
    wire = wire_client(monkeypatch, answers, wire_breakers)
    wire_outcome = outcome(lambda: wire.read_block(BLOCK))

    assert wire_outcome == sim_outcome == expected
    assert counts(wire) == counts(sim) == expected_counts


def test_corrupt_half_open_probe_closes_the_breaker(monkeypatch):
    """A corrupt read is breaker success: the node answered, its data is
    the problem.  Recording nothing would leave a HALF_OPEN breaker with
    its only probe spent (skipped forever); recording a failure would
    re-open it."""
    nn, block, ranked = sim_namenode()
    corrupt(1)(nn, block, ranked)
    sim_breaker = tripped(nn.now - 100.0)
    assert sim_breaker.state(nn.now) is BreakerState.HALF_OPEN
    sim = DfsClient(nn, retry_policy=POLICY,
                    breakers={ranked[0]: sim_breaker})
    assert sim.read_block(block, reader=0).source != ranked[0]
    assert sim.checksum_failures == 1
    assert sim_breaker.state(nn.now) is BreakerState.CLOSED

    wire_breaker = tripped(time.monotonic() - 100.0)
    wire = wire_client(monkeypatch, [CORRUPT, SERVED], {0: wire_breaker})
    assert wire.read_block(BLOCK).source == 1
    assert wire.checksum_failures == 1
    assert wire_breaker.state(time.monotonic()) is BreakerState.CLOSED


def test_wire_relocates_after_a_failed_pass(monkeypatch):
    """The wire SDK's candidate source locates again after a pass of
    failures (re-replication may have minted a replica meanwhile); a
    single pass over the one listed replica would have raised."""
    wire = wire_client(monkeypatch, [DOWN, SERVED], replicas=1)
    read = wire.read_block(BLOCK)
    assert (read.source, read.failovers, read.attempts) == (0, 1, 2)
    assert read.backoff == POLICY.delay(1)
    assert counts(wire) == (1, 0, 0, 0, 0)
