"""The served namenode's replica copies, with a fake pull in place of
the datanode processes: every copy the copy chain issues, repair or
migration, becomes one pull that names its block."""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.dfs.policies import DefaultHdfsPolicy
from repro.serve.namenode_service import (
    NetworkNamenode,
    NetworkTransferService,
    WallClock,
)

pytestmark = pytest.mark.serve


def build():
    topology = ClusterTopology.uniform(2, 2, 8)
    pulls = []
    namenode = NetworkNamenode(
        topology,
        placement_policy=DefaultHdfsPolicy(random.Random(0)),
        sim=WallClock(),
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
