"""Task runtime model: local versus remote execution speed.

"As network I/O is typically slower than local disk access, it has been
shown that on average local tasks run 2x faster than remote tasks [20]."
:class:`TaskRuntimeModel` turns a job's base (local) task duration into an
actual duration given the task's locality, with optional multiplicative
jitter for realism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SchedulerError
from repro.obs.registry import get_registry
from repro.scheduler.job import TaskLocality

__all__ = ["TaskRuntimeModel"]

_REG = get_registry()
_TASK_DURATION = _REG.histogram(
    "repro_scheduler_task_duration_seconds",
    "Simulated task durations produced by the runtime model, by locality",
    ["locality"],
)


@dataclass
class TaskRuntimeModel:
    """Maps (base duration, locality) to an execution time.

    ``remote_factor`` defaults to the paper's 2x; ``rack_local_factor``
    sits between 1x and the remote factor because a rack-local read stays
    under one ToR switch.
    """

    rack_local_factor: float = 1.6
    remote_factor: float = 2.0
    jitter: float = 0.0
    rng: Optional[random.Random] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.rack_local_factor < 1.0:
            raise SchedulerError("rack_local_factor must be >= 1")
        if self.remote_factor < self.rack_local_factor:
            raise SchedulerError(
                "remote_factor must be >= rack_local_factor"
            )
        if not 0 <= self.jitter < 1:
            raise SchedulerError("jitter must be in [0, 1)")
        if self.rng is None:
            self.rng = random.Random(0)

    def factor(self, locality: TaskLocality) -> float:
        """Slow-down multiplier for a locality class."""
        if locality is TaskLocality.NODE_LOCAL:
            return 1.0
        if locality is TaskLocality.RACK_LOCAL:
            return self.rack_local_factor
        return self.remote_factor

    def duration(self, base_duration: float, locality: TaskLocality) -> float:
        """Actual task duration for the given locality."""
        if base_duration <= 0:
            raise SchedulerError("base_duration must be positive")
        return self._duration(base_duration, locality)

    def _duration(self, base_duration: float, locality: TaskLocality) -> float:
        """:meth:`duration` for a positive base (a :class:`Job` checks it)."""
        value = base_duration * self.factor(locality)
        if self.jitter:
            value *= 1.0 + self.rng.uniform(-self.jitter, self.jitter)
        if _REG.enabled:
            _TASK_DURATION.labels(locality=locality.value).observe(value)
        return value
