"""Unit tests for machine runtime state."""

import pytest

from repro.cluster.machine import MachineState
from repro.errors import SchedulerError


class TestMachineState:
    def test_slot_accounting(self):
        machine = MachineState(machine_id=0, task_slots=2)
        assert machine.free_slots == 2
        machine.reserve_slot()
        machine.reserve_slot()
        assert machine.free_slots == 0
        assert machine.tasks_executed == 2
        with pytest.raises(SchedulerError):
            machine.reserve_slot()
        machine.release_slot()
        assert machine.free_slots == 1

    def test_release_without_reserve_raises(self):
        machine = MachineState(machine_id=0, task_slots=1)
        with pytest.raises(SchedulerError):
            machine.release_slot()

    def test_failure_clears_slots(self):
        machine = MachineState(machine_id=0, task_slots=4)
        machine.reserve_slot()
        machine.fail()
        assert not machine.alive
        assert machine.free_slots == 0
        assert machine.failures == 1
        with pytest.raises(SchedulerError):
            machine.reserve_slot()
        machine.recover()
        assert machine.alive
        assert machine.free_slots == 4

