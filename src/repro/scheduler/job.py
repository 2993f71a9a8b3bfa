"""Jobs and map tasks.

"In a MapReduce job, a map task takes as input a data block stored in the
distributed file system ... if a map task is scheduled on a machine that
owns a local copy of the input block, the task is called a local task ...
Otherwise, the map task is called a remote task."  A :class:`Job` carries
one :class:`MapTask` per input block; reduce phases are outside the
paper's model (its metrics are all about map-task locality).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import SchedulerError

__all__ = ["TaskState", "TaskLocality", "MapTask", "Job"]


class TaskState(enum.Enum):
    """Lifecycle of a map task."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"


class TaskLocality(enum.Enum):
    """Where the task's input block was read from.

    The paper's experiments use the binary local/remote split; rack-local
    is tracked separately so reports can break it out, and counts as
    *remote* in the paper's metric.
    """

    NODE_LOCAL = "node-local"
    RACK_LOCAL = "rack-local"
    REMOTE = "remote"

    @property
    def is_remote(self) -> bool:
        """Whether the paper counts this task as remote."""
        return self is not TaskLocality.NODE_LOCAL


@dataclass
class MapTask:
    """One map task: processes one input block.

    State transitions must go through :meth:`start`/:meth:`finish`/
    :meth:`reset` — they keep the owning job's pending/done counters
    and pending-task cursor (the scheduler's dispatch index) in sync.
    """

    task_id: int
    job_id: int
    block_id: int
    state: TaskState = TaskState.PENDING
    machine: Optional[int] = None
    locality: Optional[TaskLocality] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    skip_count: int = 0  # delay-scheduling bookkeeping
    _job: Optional["Job"] = field(default=None, repr=False, compare=False)

    def start(self, machine: int, locality: TaskLocality, now: float) -> None:
        """Transition to RUNNING on ``machine``."""
        if self.state is not TaskState.PENDING:
            raise SchedulerError(f"task {self.task_id} is not pending")
        self.state = TaskState.RUNNING
        self.machine = machine
        self.locality = locality
        self.start_time = now
        if self._job is not None:
            self._job._pending_count -= 1

    def finish(self, now: float) -> None:
        """Transition to DONE."""
        if self.state is not TaskState.RUNNING:
            raise SchedulerError(f"task {self.task_id} is not running")
        self.state = TaskState.DONE
        self.finish_time = now
        if self._job is not None:
            self._job._done_count += 1

    def reset(self) -> None:
        """Return a RUNNING task to PENDING (machine failure recovery)."""
        if self.state is not TaskState.RUNNING:
            raise SchedulerError(f"task {self.task_id} is not running")
        self.state = TaskState.PENDING
        self.machine = None
        self.locality = None
        self.start_time = None
        if self._job is not None:
            self._job._pending_count += 1
            self._job._cursor = 0


@dataclass
class Job:
    """One MapReduce job: a bag of map tasks over the blocks of a file."""

    job_id: int
    submit_time: float
    block_ids: Sequence[int]
    task_duration: float
    tasks: List[MapTask] = field(default_factory=list)
    finish_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task_duration <= 0:
            raise SchedulerError("task_duration must be positive")
        if not self.block_ids:
            raise SchedulerError("a job needs at least one input block")
        if not self.tasks:
            self.tasks = [
                MapTask(task_id=index, job_id=self.job_id, block_id=block_id)
                for index, block_id in enumerate(self.block_ids)
            ]
        # Pending/done counters maintained by the task transition
        # methods, so has_pending()/is_complete() are O(1) on the
        # scheduler's dispatch hot path.
        self._pending_count = 0
        self._done_count = 0
        # Index into ``tasks`` at or before the first PENDING task: the
        # scheduler advances it past started tasks, reset() rewinds it.
        self._cursor = 0
        # The scheduler queue (``capacity._Queue``) the job runs in, set
        # on submission.
        self._queue = None
        for task in self.tasks:
            task._job = self
            if task.state is TaskState.PENDING:
                self._pending_count += 1
            elif task.state is TaskState.DONE:
                self._done_count += 1

    @property
    def num_tasks(self) -> int:
        """Total map tasks."""
        return len(self.tasks)

    def pending_tasks(self) -> List[MapTask]:
        """Tasks not yet scheduled."""
        if self._pending_count == 0:
            return []
        return [t for t in self.tasks if t.state is TaskState.PENDING]

    def has_pending(self) -> bool:
        """Whether any task is still waiting to be scheduled (O(1))."""
        return self._pending_count > 0

    @property
    def num_running(self) -> int:
        """Tasks currently RUNNING (O(1))."""
        return len(self.tasks) - self._pending_count - self._done_count

    def is_complete(self) -> bool:
        """Whether every task has finished (O(1))."""
        return self._done_count == len(self.tasks)

    @property
    def completion_time(self) -> float:
        """Submit-to-finish latency; raises until the job completes."""
        if self.finish_time is None:
            raise SchedulerError(f"job {self.job_id} has not finished")
        return self.finish_time - self.submit_time
