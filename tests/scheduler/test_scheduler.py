"""Unit and integration tests for the MapReduce scheduler substrate."""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.errors import SchedulerError
from repro.scheduler.capacity import MapReduceScheduler, QueueConfig
from repro.scheduler.delay import DelaySchedulingPolicy, NoDelayPolicy
from repro.scheduler.job import Job, MapTask, TaskLocality, TaskState
from repro.scheduler.runtime import TaskRuntimeModel
from repro.simulation.engine import Simulation


def build_cluster(num_racks=2, per_rack=3, capacity=100, slots=2, seed=0):
    sim = Simulation()
    topo = ClusterTopology.uniform(num_racks, per_rack, capacity)
    nn = Namenode(
        topo, placement_policy=DefaultHdfsPolicy(random.Random(seed)),
        sim=sim, rng=random.Random(seed),
    )
    scheduler = MapReduceScheduler(
        sim, nn, slots_per_machine=slots,
        runtime=TaskRuntimeModel(jitter=0.0), rng=random.Random(seed),
    )
    return sim, nn, scheduler


class TestJobAndTask:
    def test_job_builds_one_task_per_block(self):
        job = Job(job_id=0, submit_time=0.0, block_ids=[5, 6, 7],
                  task_duration=10.0)
        assert job.num_tasks == 3
        assert [t.block_id for t in job.tasks] == [5, 6, 7]
        assert len(job.pending_tasks()) == 3
        assert not job.is_complete()

    def test_job_validation(self):
        with pytest.raises(SchedulerError):
            Job(job_id=0, submit_time=0.0, block_ids=[], task_duration=1.0)
        with pytest.raises(SchedulerError):
            Job(job_id=0, submit_time=0.0, block_ids=[1], task_duration=0.0)

    def test_task_lifecycle(self):
        task = MapTask(task_id=0, job_id=0, block_id=1)
        task.start(3, TaskLocality.NODE_LOCAL, now=5.0)
        assert task.state is TaskState.RUNNING
        task.finish(now=15.0)
        assert task.state is TaskState.DONE
        assert task.finish_time == 15.0
        with pytest.raises(SchedulerError):
            task.start(3, TaskLocality.NODE_LOCAL, now=20.0)

    def test_task_reset(self):
        task = MapTask(task_id=0, job_id=0, block_id=1)
        task.start(3, TaskLocality.REMOTE, now=1.0)
        task.reset()
        assert task.state is TaskState.PENDING
        assert task.machine is None
        with pytest.raises(SchedulerError):
            task.reset()

    def test_completion_time_requires_finish(self):
        job = Job(job_id=0, submit_time=2.0, block_ids=[1], task_duration=1.0)
        with pytest.raises(SchedulerError):
            _ = job.completion_time
        job.finish_time = 10.0
        assert job.completion_time == 8.0

    def test_locality_remote_classification(self):
        assert not TaskLocality.NODE_LOCAL.is_remote
        assert TaskLocality.RACK_LOCAL.is_remote
        assert TaskLocality.REMOTE.is_remote


class TestRuntimeModel:
    def test_factors(self):
        model = TaskRuntimeModel(jitter=0.0)
        assert model.duration(10.0, TaskLocality.NODE_LOCAL) == 10.0
        assert model.duration(10.0, TaskLocality.REMOTE) == 20.0
        assert model.duration(10.0, TaskLocality.RACK_LOCAL) == pytest.approx(16.0)

    def test_validation(self):
        with pytest.raises(SchedulerError):
            TaskRuntimeModel(rack_local_factor=0.5)
        with pytest.raises(SchedulerError):
            TaskRuntimeModel(rack_local_factor=2.0, remote_factor=1.5)
        with pytest.raises(SchedulerError):
            TaskRuntimeModel(jitter=1.0)
        model = TaskRuntimeModel(jitter=0.0)
        with pytest.raises(SchedulerError):
            model.duration(0.0, TaskLocality.REMOTE)


class TestDelayPolicies:
    def test_no_delay_never_waits(self):
        task = MapTask(task_id=0, job_id=0, block_id=1)
        assert not NoDelayPolicy().should_wait(task)

    def test_delay_policy_budget_is_per_task(self):
        policy = DelaySchedulingPolicy(max_skips=2)
        task_a = MapTask(task_id=0, job_id=0, block_id=1)
        task_b = MapTask(task_id=1, job_id=0, block_id=2)
        assert policy.should_wait(task_a)
        assert policy.should_wait(task_a)
        assert not policy.should_wait(task_a)
        # Task B has its own untouched budget.
        assert policy.should_wait(task_b)

    def test_validation(self):
        with pytest.raises(SchedulerError):
            DelaySchedulingPolicy(max_skips=0)


class TestSchedulerIntegration:
    def test_single_job_completes(self):
        sim, nn, scheduler = build_cluster()
        meta = nn.create_file("/a", num_blocks=4)
        job = Job(job_id=0, submit_time=0.0, block_ids=list(meta.block_ids),
                  task_duration=10.0)
        scheduler.submit_job(job)
        sim.run()
        assert job.is_complete()
        assert scheduler.jobs_completed == 1
        assert scheduler.pending_jobs() == 0
        assert job.completion_time >= 10.0
        assert scheduler.completed_jobs == [job]

    def test_local_tasks_finish_faster_than_remote(self):
        sim, nn, scheduler = build_cluster(slots=1)
        meta = nn.create_file("/a", num_blocks=1)
        block = meta.block_ids[0]
        holders = nn.blockmap.locations(block)
        job = Job(job_id=0, submit_time=0.0, block_ids=[block],
                  task_duration=10.0)
        scheduler.submit_job(job)
        sim.run()
        task = job.tasks[0]
        # With free slots everywhere, the dispatcher finds a local match.
        assert task.machine in holders
        assert task.locality is TaskLocality.NODE_LOCAL
        assert task.finish_time - task.start_time == pytest.approx(10.0)

    def test_remote_task_pays_2x(self):
        sim, nn, scheduler = build_cluster(num_racks=2, per_rack=2, slots=1)
        meta = nn.create_file("/a", num_blocks=1, replication=1, rack_spread=1)
        block = meta.block_ids[0]
        holder = next(iter(nn.blockmap.locations(block)))
        # Occupy the holder's only slot with a long-running filler job on
        # a different block so the real task must go remote.
        filler_meta = nn.create_file("/filler", num_blocks=1)
        filler = Job(job_id=1, submit_time=0.0,
                     block_ids=list(filler_meta.block_ids),
                     task_duration=1000.0)
        scheduler.machines[holder].reserve_slot()  # pin the local slot
        job = Job(job_id=0, submit_time=0.0, block_ids=[block],
                  task_duration=10.0)
        scheduler.submit_job(job)
        sim.run()
        task = job.tasks[0]
        assert task.machine != holder
        assert task.locality.is_remote
        duration = task.finish_time - task.start_time
        assert duration == pytest.approx(20.0) or duration == pytest.approx(16.0)
        assert filler.job_id == 1  # silence unused warning

    def test_slots_limit_parallelism(self):
        sim, nn, scheduler = build_cluster(num_racks=1, per_rack=1, slots=2)
        meta = nn.create_file("/a", num_blocks=6, replication=1, rack_spread=1)
        job = Job(job_id=0, submit_time=0.0, block_ids=list(meta.block_ids),
                  task_duration=10.0)
        scheduler.submit_job(job)
        sim.run()
        # 6 tasks, 2 slots, 10s each -> 30s makespan.
        assert sim.now == pytest.approx(30.0)

    def test_delay_scheduling_improves_locality(self):
        def run(policy):
            sim, nn, scheduler = build_cluster(
                num_racks=2, per_rack=4, slots=1, seed=3
            )
            scheduler.delay_policy = policy
            metas = [
                nn.create_file(f"/f{i}", num_blocks=2) for i in range(6)
            ]
            for i, meta in enumerate(metas):
                job = Job(job_id=i, submit_time=0.0,
                          block_ids=list(meta.block_ids), task_duration=30.0)
                scheduler.submit_job(job)
            sim.run()
            return scheduler.remote_fraction()

        eager = run(NoDelayPolicy())
        patient = run(DelaySchedulingPolicy(max_skips=8))
        assert patient <= eager

    def test_capacity_queues_share_cluster(self):
        sim, nn, scheduler = build_cluster()
        scheduler = MapReduceScheduler(
            sim, nn, slots_per_machine=1,
            runtime=TaskRuntimeModel(jitter=0.0),
            queues=[QueueConfig("a", 0.5), QueueConfig("b", 0.5)],
        )
        meta = nn.create_file("/a", num_blocks=3)
        job_a = Job(job_id=0, submit_time=0.0,
                    block_ids=list(meta.block_ids), task_duration=5.0)
        job_b = Job(job_id=1, submit_time=0.0,
                    block_ids=list(meta.block_ids), task_duration=5.0)
        scheduler.submit_job(job_a, queue="a")
        scheduler.submit_job(job_b, queue="b")
        sim.run()
        assert job_a.is_complete() and job_b.is_complete()

    def test_submit_validation(self):
        sim, nn, scheduler = build_cluster()
        meta = nn.create_file("/a", num_blocks=1)
        job = Job(job_id=0, submit_time=0.0, block_ids=list(meta.block_ids),
                  task_duration=1.0)
        with pytest.raises(SchedulerError):
            scheduler.submit_job(job, queue="nope")
        scheduler.submit_job(job)
        with pytest.raises(SchedulerError):
            scheduler.submit_job(job)

    def test_machine_failure_requeues_tasks(self):
        sim, nn, scheduler = build_cluster(num_racks=2, per_rack=2, slots=1)
        meta = nn.create_file("/a", num_blocks=4)
        job = Job(job_id=0, submit_time=0.0, block_ids=list(meta.block_ids),
                  task_duration=50.0)
        scheduler.submit_job(job)
        sim.run(until=10.0)
        running = [t for t in job.tasks if t.state is TaskState.RUNNING]
        assert running
        victim = running[0].machine
        scheduler.fail_machine(victim)
        nn.fail_node(victim)
        sim.run()
        assert job.is_complete()
        assert all(t.machine != victim or t.finish_time is not None
                   for t in job.tasks)

    def test_tasks_per_machine_counts(self):
        sim, nn, scheduler = build_cluster()
        meta = nn.create_file("/a", num_blocks=5)
        job = Job(job_id=0, submit_time=0.0, block_ids=list(meta.block_ids),
                  task_duration=5.0)
        scheduler.submit_job(job)
        sim.run()
        assert sum(scheduler.tasks_per_machine()) == 5

    def test_remote_fraction_zero_without_tasks(self):
        _, _, scheduler = build_cluster()
        assert scheduler.remote_fraction() == 0.0
