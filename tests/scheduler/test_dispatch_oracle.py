"""Differential test: indexed dispatch against the full-scan dispatch.

``MapReduceScheduler.dispatch`` reads a per-queue pending-job index, a
per-job first-pending cursor and a shared free-slot count.  The oracle
schedulers below carry the scan-everything ``dispatch``,
``_active_queues``, ``_job_order`` and ``_any_free_slot`` that predate
those indexes, verbatim.  Both run the same random stream — two queues
with unequal shares, capacity and fair ordering, delay scheduling that
waits, machine failures and recoveries, speculative backups — and must
log the same launches (sim time, job, task, machine, locality) and end
with the same counters.
"""

import random
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.scheduler.capacity import MapReduceScheduler, QueueConfig
from repro.scheduler.delay import DelaySchedulingPolicy, NoDelayPolicy
from repro.scheduler.fair import FairScheduler
from repro.scheduler.job import Job, TaskState
from repro.scheduler.runtime import TaskRuntimeModel
from repro.scheduler.speculation import SpeculativeExecutor
from repro.simulation.engine import Simulation


class _ScanDispatch:
    """The full-scan dispatch: every pass rescans every job and task."""

    def dispatch(self) -> int:
        launched = 0
        needs_retry = False
        waiting = set()
        while True:
            progress = 0
            slots_exhausted = False
            for queue in self._active_queues():
                for job in self._job_order(queue):
                    if not job.has_pending():
                        continue
                    cap = self._per_job_launch_cap()
                    per_job = 0
                    for task in job.tasks:
                        if task.state is not TaskState.PENDING:
                            continue
                        if cap is not None and per_job >= cap:
                            break
                        key = (job.job_id, task.task_id)
                        if key in waiting:
                            continue
                        machine = self._free_holder(task)
                        if machine is not None:
                            self._launch(job, task, machine)
                            per_job += 1
                            progress += 1
                            continue
                        if not self._any_free_slot():
                            slots_exhausted = True
                            break
                        if self.delay_policy.should_wait(task):
                            waiting.add(key)
                            needs_retry = True
                            continue
                        machine = self._best_machine_for(task)
                        if machine is None:
                            waiting.add(key)
                            needs_retry = True
                            continue
                        self._launch(job, task, machine)
                        per_job += 1
                        progress += 1
                    if slots_exhausted:
                        break
                if slots_exhausted:
                    break
            launched += progress
            if progress == 0 or slots_exhausted:
                break
        if needs_retry:
            self._schedule_retry()
        return launched

    def _active_queues(self):
        active = [
            q for q in self._queues.values()
            if any(job.has_pending() for job in q.jobs)
        ]
        active.sort(key=lambda q: q.pressure)
        return active

    def _any_free_slot(self) -> bool:
        return any(m.alive and m.free_slots > 0 for m in self.machines)


class ScanCapacityScheduler(_ScanDispatch, MapReduceScheduler):
    def _job_order(self, queue) -> List[Job]:
        return list(queue.jobs)


class ScanFairScheduler(_ScanDispatch, FairScheduler):
    def _job_order(self, queue) -> List[Job]:
        def running_tasks(job: Job) -> int:
            return sum(
                1 for task in job.tasks if task.state is TaskState.RUNNING
            )

        return sorted(
            queue.jobs,
            key=lambda job: (running_tasks(job), job.submit_time, job.job_id),
        )


def _run_stream(scheduler_cls, seed, two_queues, max_skips, speculate):
    """Run one seeded stream; returns the launch log and final counters."""
    rng = random.Random(seed)
    sim = Simulation()
    topo = ClusterTopology.uniform(rng.randint(2, 3), rng.randint(3, 4),
                                   capacity=200)
    nn = Namenode(
        topo, placement_policy=DefaultHdfsPolicy(random.Random(seed + 1)),
        sim=sim, rng=random.Random(seed + 2),
    )
    queues = ([QueueConfig("prod", 0.7), QueueConfig("adhoc", 0.3)]
              if two_queues else None)
    scheduler = scheduler_cls(
        sim, nn, slots_per_machine=rng.randint(1, 3),
        runtime=TaskRuntimeModel(jitter=0.2, rng=random.Random(seed + 3)),
        delay_policy=(DelaySchedulingPolicy(max_skips=max_skips)
                      if max_skips else NoDelayPolicy()),
        queues=queues, rng=random.Random(seed + 4),
    )
    log = []
    launch = scheduler._launch

    def logged_launch(job, task, machine, speculative=False):
        attempt = launch(job, task, machine, speculative)
        if attempt is not None:
            log.append((sim.now, job.job_id, task.task_id, machine.machine_id,
                        attempt.locality.value, speculative))
        return attempt

    scheduler._launch = logged_launch
    if speculate:
        SpeculativeExecutor(sim, scheduler, check_interval=6.0,
                            slowdown_threshold=1.2).start()

    names = [q.name for q in queues] if queues else ["default"]
    jobs = []
    for i in range(rng.randint(4, 10)):
        meta = nn.create_file(f"/f{i}", num_blocks=rng.randint(1, 6))
        job = Job(job_id=i, submit_time=rng.uniform(0, 50),
                  block_ids=list(meta.block_ids),
                  task_duration=rng.uniform(4, 20))
        queue = rng.choice(names)
        jobs.append(job)
        sim.schedule_at(job.submit_time,
                        lambda j=job, q=queue: scheduler.submit_job(j, q))

    # Failure/recovery churn that never sinks below quorum.
    def fail(victim):
        if len(nn.live_nodes()) > 4:
            nn.datanode(victim).crash()
            scheduler.fail_machine(victim)

    def recover(victim):
        nn.recover_node(victim)
        scheduler.recover_machine(victim)

    for _ in range(rng.randint(1, 4)):
        victim = rng.randrange(topo.num_machines)
        down_at = rng.uniform(5, 70)
        sim.schedule_at(down_at, lambda v=victim: fail(v))
        sim.schedule_at(down_at + rng.uniform(5, 30),
                        lambda v=victim: recover(v))

    sim.run(until=150.0)
    for dn in nn.datanodes:
        if not dn.alive:
            recover(dn.node_id)
    nn.check_replication()
    sim.run(until=3000.0)
    counters = (
        scheduler.local_tasks, scheduler.remote_tasks,
        scheduler.speculative_launches, scheduler.speculative_wins,
        scheduler.jobs_completed, scheduler.pending_jobs(),
        scheduler.tasks_per_machine(),
        [(j.job_id, j.finish_time) for j in scheduler.completed_jobs],
        [m.used_slots for m in scheduler.machines],
        sim.events_processed,
    )
    return log, counters


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    fair=st.booleans(),
    two_queues=st.booleans(),
    max_skips=st.sampled_from([0, 1, 3]),
    speculate=st.booleans(),
)
def test_indexed_dispatch_matches_full_scan(seed, fair, two_queues, max_skips,
                                            speculate):
    indexed, oracle = ((FairScheduler, ScanFairScheduler) if fair
                       else (MapReduceScheduler, ScanCapacityScheduler))
    args = (seed, two_queues, max_skips, speculate)
    log, counters = _run_stream(indexed, *args)
    oracle_log, oracle_counters = _run_stream(oracle, *args)
    assert log == oracle_log
    assert counters == oracle_counters
    assert log  # the stream launched something
