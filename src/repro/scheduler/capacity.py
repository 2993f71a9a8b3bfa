"""Slot-based capacity scheduler with locality-aware task placement.

The testbed evaluation "used the capacity scheduler for Hadoop Yarn
MapReduce for all three systems"; the simulations give every machine a
fixed number of task slots.  :class:`MapReduceScheduler` reproduces that
setup:

* each machine owns ``slots_per_machine`` map slots;
* jobs are submitted into named queues with capacity shares (a single
  ``default`` queue by default — the common single-tenant configuration);
* whenever a slot frees up, the queue furthest below its share offers the
  slot to its oldest job; the job launches a node-local task if it has
  one on that machine, otherwise consults the delay-scheduling policy
  before conceding a rack-local or remote launch;
* task durations come from the
  :class:`~repro.scheduler.runtime.TaskRuntimeModel` (remote tasks 2x
  slower), and every task start is a block read through the namenode, so
  Aurora's usage monitor sees the accesses.
"""

from __future__ import annotations

import logging
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.cluster.machine import MachineState
from repro.dfs.namenode import Namenode
from repro.errors import DatanodeUnavailableError, SchedulerError
from repro.obs.registry import get_registry
from repro.scheduler.delay import NoDelayPolicy, SchedulingDelayPolicy
from repro.scheduler.job import Job, MapTask, TaskLocality, TaskState
from repro.scheduler.runtime import TaskRuntimeModel
from repro.simulation.engine import Simulation

__all__ = ["QueueConfig", "MapReduceScheduler", "TaskAttempt"]

_LOG = logging.getLogger(__name__)

_REG = get_registry()
_TASKS = _REG.counter(
    "repro_scheduler_tasks_total",
    "Task launches (primary attempts), by input locality",
    ["locality"],
)
_TASK_WAIT = _REG.histogram(
    "repro_scheduler_task_wait_seconds",
    "Simulated time from job submission to each task's launch",
)
_TASK_RUN = _REG.histogram(
    "repro_scheduler_task_run_seconds",
    "Simulated run time of winning task attempts",
)
_JOB_COMPLETION = _REG.histogram(
    "repro_scheduler_job_completion_seconds",
    "Simulated end-to-end job completion times",
)


@dataclass
class TaskAttempt:
    """One execution attempt of a map task (primary or speculative)."""

    job: Job
    task: MapTask
    machine_id: int
    locality: TaskLocality
    start_time: float
    speculative: bool = False
    cancelled: bool = False


@dataclass(frozen=True)
class QueueConfig:
    """One scheduler queue and its capacity share."""

    name: str
    capacity_share: float

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulerError("queue name must be non-empty")
        if self.capacity_share <= 0:
            raise SchedulerError("capacity_share must be positive")


class _Queue:
    """Runtime state of one queue."""

    def __init__(self, config: QueueConfig) -> None:
        self.config = config
        self.jobs: Deque[Job] = deque()
        self.running_tasks = 0

    @property
    def pressure(self) -> float:
        """Used capacity relative to share (lower = more entitled)."""
        return self.running_tasks / self.config.capacity_share


class MapReduceScheduler:
    """Locality-aware, slot-based MapReduce task scheduler."""

    def __init__(
        self,
        sim: Simulation,
        namenode: Namenode,
        slots_per_machine: int = 14,
        runtime: Optional[TaskRuntimeModel] = None,
        delay_policy: Optional[SchedulingDelayPolicy] = None,
        queues: Optional[List[QueueConfig]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if slots_per_machine < 1:
            raise SchedulerError("slots_per_machine must be >= 1")
        self.sim = sim
        self.namenode = namenode
        self.runtime = runtime or TaskRuntimeModel()
        self.delay_policy = delay_policy or NoDelayPolicy()
        self._rng = rng or random.Random(0)
        self.machines: List[MachineState] = [
            MachineState(machine_id=m, task_slots=slots_per_machine)
            for m in namenode.topology.machines
        ]
        queue_configs = queues or [QueueConfig("default", 1.0)]
        self._queues: Dict[str, _Queue] = {
            q.name: _Queue(q) for q in queue_configs
        }
        self._job_queue: Dict[int, str] = {}
        self.retry_interval = 3.0  # node-manager heartbeat cadence
        self._retry_pending = False
        self._attempts: Dict[tuple, List["TaskAttempt"]] = {}
        self.jobs_submitted = 0
        self.jobs_completed = 0
        # Primary launches by the paper's locality split (Fig. 3a).
        self.local_tasks = 0
        self.remote_tasks = 0
        self.speculative_launches = 0
        self.speculative_wins = 0
        self.completed_jobs: List[Job] = []

    # -- submission ----------------------------------------------------------

    def submit_job(self, job: Job, queue: str = "default") -> None:
        """Enqueue a job and try to place its tasks immediately."""
        if queue not in self._queues:
            raise SchedulerError(f"unknown queue {queue!r}")
        if job.job_id in self._job_queue:
            raise SchedulerError(f"job {job.job_id} already submitted")
        self._queues[queue].jobs.append(job)
        self._job_queue[job.job_id] = queue
        self.jobs_submitted += 1
        self.dispatch()

    # -- liveness ----------------------------------------------------------------

    def machine(self, machine_id: int) -> MachineState:
        """Runtime state of one machine."""
        return self.machines[machine_id]

    def fail_machine(self, machine_id: int) -> None:
        """Kill a machine: attempts on it die; orphaned tasks re-queue.

        A task whose only live attempt ran on the failed machine returns
        to PENDING; a task with a surviving speculative attempt keeps
        running there.
        """
        state = self.machines[machine_id]
        state.fail()
        for key in list(self._attempts):
            attempts = self._attempts[key]
            for attempt in attempts:
                if attempt.machine_id == machine_id:
                    attempt.cancelled = True
            if any(not a.cancelled for a in attempts):
                continue
            job, task = attempts[0].job, attempts[0].task
            del self._attempts[key]
            if task.state is TaskState.RUNNING:
                task.reset()
                self._queues[self._job_queue[job.job_id]].running_tasks -= 1
        self.dispatch()

    def recover_machine(self, machine_id: int) -> None:
        """Bring a machine back and resume placing tasks on it."""
        self.machines[machine_id].recover()
        self.dispatch()

    # -- dispatch ------------------------------------------------------------------

    def dispatch(self) -> int:
        """One scheduling pass over every queue; returns tasks launched.

        Per pending task, in queue-entitlement and job-FIFO order:

        1. **node-local matching** — if a machine holding the task's
           block has a free slot, launch there (least-occupied holder
           first);
        2. **delay scheduling** — otherwise the task may consume one unit
           of its skip budget and keep waiting for locality; once the
           budget is spent it concedes and launches on the best available
           machine (rack-local preferred, then least occupied).

        Dispatch runs on job arrival and task completion; when any task
        chooses to wait, a retry pass is scheduled ``retry_interval``
        seconds later (the node-manager heartbeat cadence), so waiting
        consumes simulated time exactly as delay scheduling intends.
        """
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
                    # Lazy pending scan (no per-pass list build): task
                    # completions are scheduled sim events, never
                    # synchronous within dispatch, so no task's state
                    # changes mid-iteration except the one just launched
                    # — which the scan has already passed.
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

    def _per_job_launch_cap(self) -> Optional[int]:
        """Max launches per job per dispatch pass (None = unlimited).

        The capacity scheduler drains jobs FIFO; the fair scheduler caps
        this at one so concurrent jobs interleave.
        """
        return None

    def _schedule_retry(self) -> None:
        """Queue one retry pass, coalescing concurrent requests."""
        if self._retry_pending:
            return
        self._retry_pending = True

        def retry() -> None:
            self._retry_pending = False
            self.dispatch()

        self.sim.schedule(self.retry_interval, retry)

    def _job_order(self, queue: "_Queue") -> List[Job]:
        """Order in which a queue's jobs are offered slots.

        The capacity scheduler is FIFO within a queue; subclasses (e.g.
        the fair scheduler) override this.
        """
        return list(queue.jobs)

    def _active_queues(self) -> List[_Queue]:
        """Queues with pending work, most entitled first."""
        active = [
            q for q in self._queues.values()
            if any(job.has_pending() for job in q.jobs)
        ]
        active.sort(key=lambda q: q.pressure)
        return active

    def _any_free_slot(self) -> bool:
        return any(m.alive and m.free_slots > 0 for m in self.machines)

    def _free_holder(self, task: MapTask) -> Optional[MachineState]:
        """The least-occupied live replica holder with a free slot."""
        best = None
        for node in self.namenode.blockmap.locations_view(task.block_id):
            machine = self.machines[node]
            if not machine.alive or machine.free_slots <= 0:
                continue
            if not self.namenode.datanodes[node].alive:
                continue
            if best is None or machine.used_slots < best.used_slots:
                best = machine
        return best

    def _best_machine_for(self, task: MapTask) -> Optional[MachineState]:
        """Best non-local machine: rack-local first, then least occupied."""
        live = self.namenode.live_nodes()
        locations = self.namenode.blockmap.live_locations(task.block_id, live)
        if not locations:
            return None  # block unavailable; retry after repair
        replica_racks = {self.namenode.topology.rack_of[n] for n in locations}
        best = None
        best_key = None
        for machine in self.machines:
            if not machine.alive or machine.free_slots <= 0:
                continue
            rack = self.namenode.topology.rack_of[machine.machine_id]
            key = (0 if rack in replica_racks else 1, machine.used_slots)
            if best_key is None or key < best_key:
                best = machine
                best_key = key
        return best

    def _launch(
        self,
        job: Job,
        task: MapTask,
        machine: MachineState,
        speculative: bool = False,
    ) -> Optional["TaskAttempt"]:
        """Start a task attempt on ``machine``.

        A regular launch transitions the task to RUNNING; a speculative
        launch is a backup attempt for an already-running task — whoever
        finishes first wins and the loser is killed.
        """
        try:
            source = self.namenode.record_access(
                task.block_id, machine.machine_id
            )
        except DatanodeUnavailableError:
            return None
        locality = self._classify(machine.machine_id, source)
        machine.reserve_slot()
        attempt = TaskAttempt(
            job=job,
            task=task,
            machine_id=machine.machine_id,
            locality=locality,
            start_time=self.sim.now,
            speculative=speculative,
        )
        key = (job.job_id, task.task_id)
        self._attempts.setdefault(key, []).append(attempt)
        if speculative:
            self.speculative_launches += 1
        else:
            task.start(machine.machine_id, locality, self.sim.now)
            queue = self._queues[self._job_queue[job.job_id]]
            queue.running_tasks += 1
            if locality.is_remote:
                self.remote_tasks += 1
            else:
                self.local_tasks += 1
            if _REG.enabled:
                _TASKS.labels(locality=locality.value).inc()
                _TASK_WAIT.observe(self.sim.now - job.submit_time)
        duration = self.runtime.duration(job.task_duration, locality)
        self.sim.schedule(
            duration, lambda: self._complete(attempt, machine)
        )
        return attempt

    def live_attempts(self, job_id: int, task_id: int) -> List["TaskAttempt"]:
        """Attempts of a task still holding a slot."""
        return [
            a for a in self._attempts.get((job_id, task_id), ())
            if not a.cancelled
        ]

    def launch_speculative(self, job: Job, task: MapTask) -> bool:
        """Launch a backup attempt for a RUNNING task, if a slot exists."""
        if task.state is not TaskState.RUNNING:
            return False
        machine = self._free_holder(task) or self._best_machine_for(task)
        if machine is None:
            return False
        if any(a.machine_id == machine.machine_id
               for a in self.live_attempts(job.job_id, task.task_id)):
            return False
        return self._launch(job, task, machine, speculative=True) is not None

    def _complete(self, attempt: "TaskAttempt", machine: MachineState) -> None:
        if attempt.cancelled:
            return
        attempt.cancelled = True
        machine.release_slot()
        task = attempt.task
        job = attempt.job
        key = (job.job_id, task.task_id)
        if task.state is not TaskState.RUNNING:
            self.dispatch()
            return
        # This attempt wins; kill any sibling attempts immediately.
        for sibling in self.live_attempts(job.job_id, task.task_id):
            sibling.cancelled = True
            other = self.machines[sibling.machine_id]
            if other.alive:
                other.release_slot()
        self._attempts.pop(key, None)
        task.machine = attempt.machine_id
        task.locality = attempt.locality
        task.finish(self.sim.now)
        if _REG.enabled:
            _TASK_RUN.observe(self.sim.now - attempt.start_time)
        if attempt.speculative:
            self.speculative_wins += 1
        queue = self._queues[self._job_queue[job.job_id]]
        queue.running_tasks -= 1
        if job.is_complete():
            job.finish_time = self.sim.now
            queue.jobs.remove(job)
            del self._job_queue[job.job_id]
            self.jobs_completed += 1
            self.completed_jobs.append(job)
            if _REG.enabled:
                _JOB_COMPLETION.observe(job.completion_time)
            _LOG.debug(
                "job %d completed in %.1fs (%d tasks)",
                job.job_id, job.completion_time, len(job.tasks),
            )
        self.dispatch()

    # -- reporting -----------------------------------------------------------------

    def _classify(self, machine_id: int, source: int) -> TaskLocality:
        if machine_id == source:
            return TaskLocality.NODE_LOCAL
        if self.namenode.topology.same_rack(machine_id, source):
            return TaskLocality.RACK_LOCAL
        return TaskLocality.REMOTE

    def tasks_per_machine(self) -> List[int]:
        """Total tasks executed by each machine — the 'machine load' CDF."""
        return [m.tasks_executed for m in self.machines]

    def remote_fraction(self) -> float:
        """Fraction of launched tasks the paper counts as remote."""
        total = self.remote_tasks + self.local_tasks
        if total == 0:
            return 0.0
        return self.remote_tasks / total

    def pending_jobs(self) -> int:
        """Jobs still holding unfinished tasks."""
        return len(self._job_queue)
