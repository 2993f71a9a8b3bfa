"""The served namenode's replica copies, with a fake pull in place of
the datanode processes: every copy the copy chain issues, repair or
migration, becomes one pull that names its block."""

import asyncio
import random

import pytest

from repro import obs
from repro.cluster.topology import ClusterTopology
from repro.dfs.policies import DefaultHdfsPolicy
from repro.serve import namenode_service
from repro.serve.namenode_service import (
    NamenodeConfig,
    NamenodeServer,
    NetworkNamenode,
    NetworkTransferService,
    WallClock,
)

pytestmark = pytest.mark.serve


@pytest.fixture
def registry():
    obs.enable()
    obs.get_registry().reset()
    yield obs.get_registry()
    obs.get_registry().reset()
    obs.disable()


@pytest.fixture
def loop():
    """A loop the namenode's retry backoffs schedule on; never run."""
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


def build(loop=None):
    topology = ClusterTopology.uniform(2, 2, 8)
    pulls = []
    clock = WallClock()
    if loop is not None:
        clock.bind(loop)
    namenode = NetworkNamenode(
        topology,
        placement_policy=DefaultHdfsPolicy(random.Random(0)),
        sim=clock,
        transfer_service=NetworkTransferService(
            topology, lambda *pull: pulls.append(pull)
        ),
        default_replication=2,
    )
    block = namenode.create_file("/a", 1, writer=0).block_ids[0]
    return namenode, block, pulls


@pytest.mark.parametrize("kind", ["repair", "migration"])
def test_copy_pulls_its_block(kind):
    namenode, block, pulls = build()
    src = 0
    assert src in namenode.blockmap.locations(block)
    # The other node on the source's rack keeps the rack spread.
    dst = 1
    assert dst not in namenode.blockmap.locations(block)
    if kind == "repair":
        assert namenode.replicate_block(block, target=dst)
    else:
        assert namenode.move_block(block, src, dst)

    [(pulled, pull_src, pull_dst, done)] = pulls
    assert (pulled, pull_src, pull_dst) == (block, src, dst)
    done("ok")

    locations = namenode.blockmap.locations(block)
    assert dst in locations and namenode.datanodes[dst].holds(block)
    # A migration drops the source from belief once the copy landed; the
    # namenode tick then pushes the real delete.
    kept = kind == "repair"
    assert (src in locations) is kept
    assert namenode.datanodes[src].holds(block) is kept
    assert namenode.copies_discarded == 0
    assert (block, dst) not in namenode._inflight
    namenode.audit()


def test_landed_copy_bytes_reach_the_registry(registry):
    """A served copy feeds the same bytes series as a simulated one."""
    namenode, block, pulls = build()
    assert namenode.replicate_block(block, target=1)
    [(_, _, _, done)] = pulls
    done("ok")

    by_kind = namenode.transfers.bytes_by_kind
    assert by_kind["replication"] > 0
    series = registry.get("repro_dfs_transfer_bytes_total")
    for kind, size in by_kind.items():
        assert series.labels(kind=kind).value == size


@pytest.mark.parametrize("kind", ["repair", "migration"])
def test_source_corrupt_pull_ends_the_chain(registry, loop, kind):
    """A target that refuses a rotten source ends the copy as the
    simulator's ``source_corrupt`` landing does: one discard of that
    reason, no retry, and the source quarantined."""
    namenode, block, pulls = build(loop)
    src, dst = 0, 1
    if kind == "repair":
        assert namenode.replicate_block(block, target=dst)
    else:
        assert namenode.move_block(block, src, dst)
    [(_, _, _, done)] = pulls
    done("source-corrupt")

    discarded = registry.get("repro_dfs_replica_copies_discarded_total")
    assert discarded.labels(reason="failed").value == 0
    assert discarded.labels(reason="source_corrupt").value == 1
    assert namenode.transfer_retries == 0
    assert namenode.copies_discarded == 1
    assert namenode.integrity.is_quarantined(block, src)
    assert dst not in namenode.blockmap.locations(block)
    # The quarantine requeued the repair; it copies from a verified
    # replica only.
    assert all(pull_src != src for _, pull_src, _, _ in pulls[1:])


def test_pull_passes_a_source_corrupt_answer_through(monkeypatch):
    """``_pull`` hands the target's refusal to the chain unchanged."""
    monkeypatch.setattr(
        namenode_service, "http_call",
        lambda *_: (409, {"ok": False, "outcome": "source-corrupt"}, {}),
    )

    async def pull():
        server = NamenodeServer(NamenodeConfig())
        server._addresses = {0: "127.0.0.1:1", 1: "127.0.0.1:2"}
        ended = asyncio.get_running_loop().create_future()
        server._pull(7, 0, 1, ended.set_result)
        return await ended

    assert asyncio.run(pull()) == "source-corrupt"
