"""Per-machine runtime state: liveness and task slots.

The paper's simulations give each machine a fixed number of task slots
("each machine has sufficient resources for scheduling 14 tasks
simultaneously").  :class:`MachineState` tracks slot occupancy for the
scheduler and a liveness flag for failure experiments; static properties
(rack, capacity) live in :class:`~repro.cluster.topology.ClusterTopology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SchedulerError

__all__ = ["FreeSlotCount", "MachineState"]


class FreeSlotCount:
    """Free slots summed over a set of live machines.

    A scheduler hands one counter to every :class:`MachineState` it
    builds; each slot transition (reserve, release, fail, recover)
    updates it, so "is any slot free?" is one integer read however the
    transition was made.
    """

    __slots__ = ("free",)

    def __init__(self) -> None:
        self.free = 0


@dataclass
class MachineState:
    """Dynamic state of one machine."""

    machine_id: int
    task_slots: int
    alive: bool = True
    used_slots: int = 0
    tasks_executed: int = 0
    failures: int = 0
    slot_count: Optional[FreeSlotCount] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.slot_count is not None:
            self.slot_count.free += self.free_slots

    @property
    def free_slots(self) -> int:
        """Slots currently available for new tasks (0 when dead)."""
        if not self.alive:
            return 0
        return self.task_slots - self.used_slots

    def reserve_slot(self) -> None:
        """Occupy one task slot."""
        if not self.alive:
            raise SchedulerError(
                f"machine {self.machine_id} is down; cannot reserve a slot"
            )
        if self.used_slots >= self.task_slots:
            raise SchedulerError(f"machine {self.machine_id} has no free slots")
        self._take_slot()

    def _take_slot(self) -> None:
        """:meth:`reserve_slot` for a caller that has seen a free slot."""
        self.used_slots += 1
        self.tasks_executed += 1
        if self.slot_count is not None:
            self.slot_count.free -= 1

    def release_slot(self) -> None:
        """Free one task slot."""
        if self.used_slots <= 0:
            raise SchedulerError(
                f"machine {self.machine_id} has no slot to release"
            )
        self.used_slots -= 1
        if self.slot_count is not None:
            self.slot_count.free += 1

    def fail(self) -> None:
        """Mark the machine dead; running tasks are the caller's problem."""
        if self.slot_count is not None:
            self.slot_count.free -= self.free_slots
        self.alive = False
        self.failures += 1
        self.used_slots = 0

    def recover(self) -> None:
        """Bring the machine back with all slots free.

        A no-op on a machine that is already alive — overlapping repair
        events must not wipe the slot ledger of running tasks.
        """
        if self.alive:
            return
        self.alive = True
        self.used_slots = 0
        if self.slot_count is not None:
            self.slot_count.free += self.task_slots
