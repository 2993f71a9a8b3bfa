"""Full-system integration tests: DES + DFS + scheduler + Aurora + failures.

These exercise every subsystem together: jobs stream through the
scheduler while Aurora periodically re-optimizes, datanodes crash and
recover on a random schedule detected via heartbeats, and the run must
end with every job complete and every invariant intact.
"""

import random

import pytest

from repro.aurora.config import AuroraConfig
from repro.aurora.system import AuroraSystem
from repro.cluster.topology import ClusterTopology
from repro.dfs.heartbeat import HeartbeatService
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.dfs.replication import TransferService
from repro.faults import CrashProfile, FaultInjector
from repro.scheduler.capacity import MapReduceScheduler
from repro.scheduler.delay import DelaySchedulingPolicy
from repro.scheduler.job import Job
from repro.scheduler.runtime import TaskRuntimeModel
from repro.simulation.engine import Simulation
from repro.workload.yahoo import YahooTraceConfig, generate_yahoo_trace


def build_stack(seed=0, with_aurora=True, num_racks=3, per_rack=4):
    sim = Simulation()
    topo = ClusterTopology.uniform(num_racks, per_rack, capacity=120)
    transfers = TransferService(topo, sim=sim, rng=random.Random(seed + 1))
    nn = Namenode(
        topo,
        placement_policy=DefaultHdfsPolicy(random.Random(seed + 2)),
        sim=sim, transfer_service=transfers, rng=random.Random(seed + 3),
    )
    aurora = None
    if with_aurora:
        aurora = AuroraSystem(nn, AuroraConfig(
            epsilon=0.3, period=1800.0,
            replication_budget=2000,
        ))
        aurora.run_periodic(sim)
    scheduler = MapReduceScheduler(
        sim, nn, slots_per_machine=3,
        runtime=TaskRuntimeModel(jitter=0.05, rng=random.Random(seed + 4)),
        delay_policy=DelaySchedulingPolicy(max_skips=3),
    )
    return sim, nn, scheduler, aurora


def load_trace_and_jobs(nn, scheduler, sim, seed=0, duration_hours=2.0):
    trace = generate_yahoo_trace(YahooTraceConfig(
        num_files=30, jobs_per_hour=120.0, duration_hours=duration_hours,
        mean_task_duration=45.0, seed=seed,
    ))
    file_blocks = {}
    for f in trace.files:
        meta = nn.create_file(f"/data/{f.file_id}", num_blocks=f.num_blocks)
        file_blocks[f.file_id] = list(meta.block_ids)
    jobs = []
    for tj in trace.jobs:
        job = Job(job_id=tj.job_id, submit_time=tj.submit_time,
                  block_ids=file_blocks[tj.file_id],
                  task_duration=tj.task_duration)
        jobs.append(job)
        sim.schedule_at(tj.submit_time, lambda j=job: scheduler.submit_job(j))
    return trace, jobs


class TestFailureStorm:
    def test_jobs_survive_rolling_failures(self):
        sim, nn, scheduler, aurora = build_stack(seed=7)
        heartbeats = HeartbeatService(sim, nn, interval=3.0, expiry=30.0)
        heartbeats.start()
        trace, jobs = load_trace_and_jobs(nn, scheduler, sim, seed=7)

        # Only the schedule is used: the hooks below crash the datanode and
        # fail the scheduler's machine together, which install() cannot.
        plan = FaultInjector(
            sim, nn, [CrashProfile(mtbf=3 * 3600.0, repair_time=240.0)],
            horizon=trace.horizon, seed=13,
        ).plan()
        for event in plan:
            if event.time >= trace.horizon:
                continue  # every node is recovered at the horizon below
            if event.is_recovery:
                sim.schedule_at(event.time, lambda e=event: (
                    nn.recover_node(e.target),
                    scheduler.recover_machine(e.target),
                ))
            else:
                sim.schedule_at(event.time, lambda e=event: (
                    nn.datanode(e.target).crash(),
                    scheduler.fail_machine(e.target),
                ))
        assert any(not event.is_recovery for event in plan)

        sim.run(until=trace.horizon)
        heartbeats.stop()
        # Recover everything and drain.
        for dn in nn.datanodes:
            if not dn.alive:
                nn.recover_node(dn.node_id)
                scheduler.recover_machine(dn.node_id)
        nn.check_replication()
        sim.run(until=trace.horizon + 4 * 3600.0)

        assert scheduler.jobs_completed == len(jobs)
        nn.audit()
        live = nn.live_nodes()
        for path in nn.list_files():
            for block in nn.file(path).block_ids:
                assert nn.blockmap.is_available(block, live)

    def test_rack_outage_mid_run(self):
        sim, nn, scheduler, aurora = build_stack(seed=3)
        trace, jobs = load_trace_and_jobs(nn, scheduler, sim, seed=3,
                                          duration_hours=1.0)
        def kill_rack():
            nn.fail_rack(0)
            for node in nn.topology.machines_in_rack(0):
                scheduler.fail_machine(node)

        def revive_rack():
            nn.recover_rack(0)
            for node in nn.topology.machines_in_rack(0):
                scheduler.recover_machine(node)

        sim.schedule_at(600.0, kill_rack)
        sim.schedule_at(1500.0, revive_rack)
        sim.run(until=trace.horizon)
        sim.run(until=trace.horizon + 4 * 3600.0)
        assert scheduler.jobs_completed == len(jobs)
        nn.audit()


class TestAuroraConvergence:
    def test_stable_workload_converges_to_balanced_placement(self):
        """Section V: with stable popularity Aurora converges to
        near-optimal balance over periods (Theorem 9)."""
        sim, nn, scheduler, aurora = build_stack(seed=5, with_aurora=True)
        rng = random.Random(5)
        metas = [nn.create_file(f"/f{i}", num_blocks=2) for i in range(15)]
        weights = [1.0 / (rank + 1) for rank in range(15)]

        def read_wave():
            for meta, weight in zip(metas, weights):
                reads = max(1, int(20 * weight))
                for _ in range(reads):
                    block = rng.choice(meta.block_ids)
                    nn.record_access(block, rng.randrange(
                        nn.topology.num_machines))

        sim.schedule_periodic(600.0, read_wave)
        sim.run(until=6 * 3600.0)
        assert aurora is not None
        reports = aurora.reports
        assert len(reports) >= 10
        # Once converged, periods stop finding work: the last periods
        # perform (almost) no operations and the cost gap is small.
        tail = reports[-3:]
        for report in tail:
            assert report.search is not None
            assert report.search.total_operations <= 2
        final = tail[-1]
        assert final.cost_after <= final.cost_before + 1e-9

    def test_reports_accumulate_improvements(self):
        sim, nn, scheduler, aurora = build_stack(seed=9)
        metas = [
            nn.create_file(f"/f{i}", num_blocks=1, writer=0)
            for i in range(8)
        ]
        for meta in metas:
            for _ in range(10):
                nn.record_access(meta.block_ids[0], reader=1)
        report = aurora.optimize(now=0.0)
        assert report.improvement >= 0.0
        assert aurora.reports[-1] is report
