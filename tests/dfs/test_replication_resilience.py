"""Namenode resilience: the replica-copy chain's outcomes for repair and
migration, retry-on-alternate-source, the prioritized throttled
re-replication queue, migration rollback/retarget, and the heartbeat
paths that feed them."""

import random

import pytest

from repro import obs
from repro.cluster.topology import ClusterTopology
from repro.dfs.client import DfsClient
from repro.dfs.heartbeat import HeartbeatService
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.dfs.replication import TransferService
from repro.errors import DfsError
from repro.faults import RetryPolicy
from repro.simulation.engine import Simulation

BLOCK_SIZE = 8 * 1024 * 1024


def build(seed=0, racks=3, per_rack=3, capacity=60, sim=None,
          throttle=None, retry_policy=None):
    topology = ClusterTopology.uniform(racks, per_rack, capacity)
    transfers = TransferService(topology, sim=sim, rng=random.Random(seed))
    namenode = Namenode(
        topology,
        placement_policy=DefaultHdfsPolicy(random.Random(seed + 1)),
        sim=sim,
        transfer_service=transfers,
        rng=random.Random(seed + 2),
        retry_policy=retry_policy,
        replication_throttle=throttle,
    )
    return namenode, DfsClient(namenode)


@pytest.fixture
def registry():
    obs.enable()
    obs.get_registry().reset()
    yield obs.get_registry()
    obs.get_registry().reset()
    obs.disable()


KINDS = ["repair", "migration"]
#: Per kind: the namenode counter and registry series of landed copies.
LANDED = {
    "repair": ("replications_completed", "repro_dfs_replications_total"),
    "migration": ("moves_completed", "repro_dfs_migrations_total"),
}


def start_copy(namenode, kind, block, src, dst):
    """Start one copy chain of ``kind`` from ``src`` to ``dst``."""
    if kind == "repair":
        return namenode.replicate_block(block, target=dst)
    return namenode.move_block(block, src, dst)


def fill(namenode, node, count):
    for index in range(count):
        namenode.create_file(f"/fill{node}.{index}", 1, writer=node,
                             replication=1, rack_spread=1)


#: How to make a copy from node 0 to node 3 end in each outcome, set
#: up after the copy started and before its bytes land.
OUTCOMES = {
    "ok": lambda nn, block: None,
    "failed": None,  # the transfer aborts; set up before the start
    "block_deleted": lambda nn, block: nn.delete_file("/a"),
    "duplicate": lambda nn, block: (
        nn.datanodes[3].store(block, BLOCK_SIZE),
        nn.blockmap.add_location(block, 3),
    ),
    "target_died": lambda nn, block: nn.datanode(3).crash(),
    "target_full": lambda nn, block: fill(nn, 3, 3),
    "source_corrupt": lambda nn, block: nn.datanodes[0].corrupt_replica(
        block
    ),
}
RETRIED = {"failed", "target_died", "target_full"}


class TestDiscardedCopies:
    @pytest.mark.parametrize("outcome", sorted(OUTCOMES))
    @pytest.mark.parametrize("kind", KINDS)
    def test_copy_outcome(self, registry, kind, outcome):
        """Every copy outcome, once per kind, with its counters."""
        sim = Simulation()
        namenode, _client = build(racks=2, per_rack=2, capacity=3, sim=sim)
        block = namenode.create_file(
            "/a", 1, block_size=BLOCK_SIZE, writer=0, replication=1,
            rack_spread=1,
        ).block_ids[0]
        if outcome == "failed":
            aborts = iter([0.5])  # only the first transfer aborts
            namenode.transfers.fault_hook = lambda *_: next(aborts, None)
        assert start_copy(namenode, kind, block, 0, 3)
        if OUTCOMES[outcome] is not None:
            OUTCOMES[outcome](namenode, block)
        sim.run()

        discarded = registry.get("repro_dfs_replica_copies_discarded_total")
        expected = 0 if outcome == "ok" else 1
        assert namenode.copies_discarded == expected
        if outcome != "ok":
            assert discarded.labels(reason=outcome).value == 1
        retried = outcome in RETRIED
        landed = outcome == "ok" or retried
        assert namenode.transfer_retries == int(retried)
        attribute, series = LANDED[kind]
        assert getattr(namenode, attribute) == int(landed)
        assert registry.get(series).value == int(landed)
        if kind == "repair":
            # Every end of a repair chain frees its throttle slot.
            assert namenode._repl_inflight == 0
            assert not namenode._retry_pending
        else:
            assert namenode.migration_rollbacks == int(retried)
            assert namenode.migration_retargets == int(retried)
            if outcome != "block_deleted":
                # Make-before-break: the source goes only after a landing.
                locations = namenode.blockmap.locations(block)
                assert (0 in locations) is not landed
                if retried:  # re-targeted away from the failed node
                    assert 3 not in locations
        if outcome == "source_corrupt":
            assert namenode.integrity.is_quarantined(block, 0)
        assert not list(namenode._inflight)
        namenode.audit()

    def test_two_copies_into_one_free_slot_discard_one(self, registry):
        sim = Simulation()
        namenode, _client = build(racks=2, per_rack=2, capacity=3, sim=sim)
        target = 3
        for index in range(2):  # leaves the target one free slot
            namenode.create_file(f"/fill{index}", 1, writer=target,
                                 replication=1, rack_spread=1)
        blocks = [
            namenode.create_file(f"/b{writer}", 1, writer=writer,
                                 replication=1, rack_spread=1).block_ids[0]
            for writer in (0, 1)
        ]
        assert namenode.datanodes[target].free_blocks == 1
        for block in blocks:
            assert namenode.replicate_block(block, target=target)
        sim.run()
        # One copy took the slot; the other landed on a full node, was
        # discarded and retried elsewhere.
        assert namenode.copies_discarded == 1
        discarded = registry.get("repro_dfs_replica_copies_discarded_total")
        assert discarded.labels(reason="target_full").value == 1
        assert namenode.replications_completed == 2
        assert sum(namenode.datanodes[target].holds(b) for b in blocks) == 1
        namenode.audit()


class TestRetryOnAlternateSource:
    def test_failed_copy_retries_from_another_source(self):
        # Synchronous mode: callbacks run inline, so the whole retry
        # chain resolves within one call.
        namenode, client = build(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0,
                                     jitter=0.0),
        )
        meta = client.write_file("/a", 1, block_size=BLOCK_SIZE)
        block = meta.block_ids[0]
        victim = sorted(namenode.blockmap.locations(block))[0]
        namenode.fail_node(victim, re_replicate=False)
        bad_source = sorted(namenode.blockmap.locations(block))[0]
        namenode.transfers.fault_hook = (
            lambda size, src, dst: 0.5 if src == bad_source else None
        )

        namenode.check_replication()
        assert namenode.transfers.transfers_failed == 1
        assert namenode.transfer_retries == 1
        assert namenode.replications_completed == 1
        live = namenode.live_nodes()
        assert len(namenode.blockmap.live_locations(block, live)) == 3
        namenode.audit()

    def test_exhausted_retries_requeue_the_block(self):
        namenode, client = build(
            retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0,
                                     jitter=0.0),
        )
        meta = client.write_file("/a", 1, block_size=BLOCK_SIZE)
        block = meta.block_ids[0]
        victim = sorted(namenode.blockmap.locations(block))[0]
        namenode.fail_node(victim, re_replicate=False)
        namenode.transfers.fault_hook = lambda size, src, dst: 0.5

        namenode.check_replication()
        assert namenode.transfer_retries == 1
        assert namenode.replications_requeued == 1
        assert namenode.replications_completed == 0

        # Next check after the fault clears repairs the block.
        namenode.transfers.fault_hook = None
        namenode.check_replication()
        live = namenode.live_nodes()
        assert len(namenode.blockmap.live_locations(block, live)) == 3
        namenode.audit()

    @pytest.mark.parametrize("kind", KINDS)
    def test_exhausted_policy_ends_the_chain(self, kind):
        sim = Simulation()
        namenode, _client = build(
            sim=sim,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0,
                                     jitter=0.0),
        )
        block = namenode.create_file(
            "/a", 1, block_size=BLOCK_SIZE, writer=0, replication=1,
            rack_spread=1,
        ).block_ids[0]
        namenode.transfers.fault_hook = lambda size, src, dst: 0.5
        assert start_copy(namenode, kind, block, 0, 3)
        sim.run()

        assert namenode.copies_discarded == 2
        assert namenode.transfer_retries == 1
        assert getattr(namenode, LANDED[kind][0]) == 0
        assert namenode.blockmap.locations(block) == {0}
        if kind == "repair":
            assert namenode.replications_requeued == 1
            assert namenode._repl_inflight == 0
        else:
            assert namenode.migration_rollbacks == 2
            assert namenode.migration_retargets == 1
            assert namenode.replications_requeued == 0
        namenode.audit()


class TestReplicationQueue:
    def test_throttle_bounds_concurrent_repairs(self):
        sim = Simulation()
        namenode, client = build(sim=sim, throttle=2)
        for index in range(4):
            client.write_file(f"/f/{index}", 1, block_size=BLOCK_SIZE)
        sim.run()  # settle the write pipelines
        for node in namenode.topology.machines_in_rack(0):
            namenode.fail_node(node, re_replicate=False)
        live = namenode.live_nodes()
        deficit = sum(
            namenode.blockmap.meta(b).replication_factor
            - len(namenode.blockmap.live_locations(b, live))
            for b in namenode.blockmap.block_ids()
        )
        assert deficit > 2

        started = namenode.check_replication()
        assert started == 2  # throttle caps the burst
        sim.run()  # chains finishing drain the queue themselves
        assert namenode.replications_completed == deficit
        live = namenode.live_nodes()
        for block in namenode.blockmap.block_ids():
            assert len(namenode.blockmap.live_locations(block, live)) == \
                namenode.blockmap.meta(block).replication_factor
        namenode.audit()

    def test_most_exposed_block_repairs_first(self):
        sim = Simulation()
        namenode, client = build(sim=sim, throttle=1)
        block_a = client.write_file("/a", 1, block_size=BLOCK_SIZE).block_ids[0]
        block_b = client.write_file("/b", 1, block_size=BLOCK_SIZE).block_ids[0]
        sim.run()
        holders_a = set(namenode.blockmap.locations(block_a))
        holders_b = set(namenode.blockmap.locations(block_b))
        only_a = sorted(holders_a - holders_b)
        only_b = sorted(holders_b - holders_a)
        assert len(only_a) >= 2 and len(only_b) >= 1, "pick another seed"
        for node in only_a[:2] + only_b[:1]:
            namenode.fail_node(node, re_replicate=False)

        order = []
        original = namenode.replicate_block

        def spy(block_id, *args, **kwargs):
            order.append(block_id)
            return original(block_id, *args, **kwargs)

        namenode.replicate_block = spy
        namenode.check_replication()
        # Block A is one replica from loss; it must be served first.
        assert order[0] == block_a


class TestMigrationRecovery:
    def _setup(self, sim, **kwargs):
        namenode, client = build(sim=sim, **kwargs)
        meta = client.write_file(
            "/a", 1, block_size=BLOCK_SIZE, replication=2, rack_spread=1
        )
        block = meta.block_ids[0]
        sim.run()
        holders = set(namenode.blockmap.locations(block))
        src = sorted(holders)[0]
        dst = sorted(namenode.live_nodes() - holders)[0]
        return namenode, block, src, dst

    def test_exhausted_policy_rolls_back_without_retarget(self):
        sim = Simulation()
        namenode, block, src, dst = self._setup(
            sim,
            retry_policy=RetryPolicy(max_attempts=1, base_delay=1.0,
                                     jitter=0.0),
        )
        before = set(namenode.blockmap.locations(block))
        namenode.transfers.fault_hook = lambda size, s, d: 0.5
        assert namenode.move_block(block, src, dst)
        sim.run()
        # Make-before-break: the source replica was never touched.
        assert namenode.migration_rollbacks == 1
        assert namenode.migration_retargets == 0
        assert namenode.moves_completed == 0
        assert set(namenode.blockmap.locations(block)) == before
        namenode.audit()

    def test_move_from_non_holder_rejected(self):
        sim = Simulation()
        namenode, block, src, dst = self._setup(sim)
        with pytest.raises(DfsError):
            namenode.move_block(block, dst, src)


class TestHeartbeatResilience:
    def _cluster(self):
        sim = Simulation()
        topology = ClusterTopology.uniform(4, 3, 60)
        transfers = TransferService(topology, sim=sim, rng=random.Random(1))
        namenode = Namenode(
            topology,
            placement_policy=DefaultHdfsPolicy(random.Random(2)),
            sim=sim,
            transfer_service=transfers,
            rng=random.Random(3),
        )
        heartbeats = HeartbeatService(sim, namenode)
        client = DfsClient(namenode)
        block = client.write_file("/a", 1, block_size=BLOCK_SIZE).block_ids[0]
        return sim, namenode, heartbeats, block

    def test_dead_node_without_blocks_is_declared(self):
        sim, namenode, heartbeats, _ = self._cluster()
        idle = [dn.node_id for dn in namenode.datanodes if not dn.blocks()]
        assert idle, "every node holds blocks; enlarge the cluster"
        victim = idle[0]
        namenode.datanode(victim).crash()
        heartbeats.start()
        sim.run(until=2 * heartbeats.expiry)
        assert victim in heartbeats.declared_dead()
        assert heartbeats.detected_failures == 1
        assert heartbeats.false_suspicions == 0
        assert victim not in namenode.live_nodes()

    def test_false_suspicion_reconciles_when_beats_resume(self):
        sim, namenode, heartbeats, block = self._cluster()
        victim = sorted(namenode.blockmap.locations(block))[0]
        heartbeats.loss_filter = lambda node: node == victim
        heartbeats.start()
        sim.run(until=45.0)
        assert victim in heartbeats.declared_dead()
        assert heartbeats.false_suspicions == 1
        assert namenode.datanode(victim).alive  # it was never down
        assert victim not in namenode.blockmap.locations(block)

        heartbeats.loss_filter = None
        sim.run(until=60.0)
        assert heartbeats.reconciliations == 1
        assert victim not in heartbeats.declared_dead()
        assert victim in namenode.blockmap.locations(block)
        namenode.audit()

    def test_recovery_episode_duration_recorded(self):
        sim, namenode, heartbeats, block = self._cluster()
        sim.run()
        victim = sorted(namenode.blockmap.locations(block))[0]
        namenode.fail_node(victim)  # opens the under-replication episode
        assert namenode.recovery_times == []
        sim.run()
        assert len(namenode.recovery_times) == 1
        assert namenode.recovery_times[0] > 0.0
        live = namenode.live_nodes()
        assert len(namenode.blockmap.live_locations(block, live)) == 3
