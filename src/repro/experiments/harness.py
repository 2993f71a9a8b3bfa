"""End-to-end experiment harness.

Builds the full stack — DES + DFS + scheduler + (optionally) Aurora or
Scarlett — loads a workload trace, replays its job stream and collects
the metrics the paper's figures report:

* average remote tasks per hour (Figures 3a/4a/5a);
* per-machine task counts, whose CDF is the "machine load" distribution
  (Figures 3b/4b/5b);
* block movements per machine per hour (Figures 3c/4c/5c);
* the fraction of remote tasks, per-job completion times and block
  movement durations (Figure 6).

Cluster scale defaults to a 13-rack cluster like the paper's, with 13
machines per rack instead of 65 so the harness runs on a laptop; pass
``machines_per_rack=65`` for the paper's full 845-machine setup.
"""

from __future__ import annotations

import enum
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.aurora.config import AuroraConfig
from repro.aurora.system import AuroraSystem
from repro.baselines.scarlett import ScarlettConfig, ScarlettScheme, ScarlettSystem
from repro.cluster.topology import ClusterTopology
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.dfs.replication import TransferService
from repro.errors import InvalidProblemError
from repro.obs.exporters import write_snapshot
from repro.obs.telemetry import TelemetrySession
from repro.scheduler.capacity import MapReduceScheduler
from repro.scheduler.delay import DelaySchedulingPolicy
from repro.scheduler.runtime import TaskRuntimeModel
from repro.simulation.engine import Simulation
from repro.workload.trace import WorkloadTrace
from repro.scheduler.job import Job

__all__ = ["SystemKind", "ClusterConfig", "ExperimentConfig", "RunResult",
           "run_experiment"]

_LOG = logging.getLogger(__name__)

_SECONDS_PER_HOUR = 3600.0


class SystemKind(enum.Enum):
    """Which block management system drives the run."""

    HDFS = "hdfs"
    SCARLETT = "scarlett"
    AURORA = "aurora"


@dataclass(frozen=True)
class ClusterConfig:
    """Physical cluster shape.

    Defaults keep the paper's 13 racks but scale machines per rack (65 to
    5) and task slots (14 to 4) down together so the calibrated default
    workload drives the same hot-machine slot contention the paper's
    845-machine trace produced; pass ``machines_per_rack=65,
    slots_per_machine=14`` for the full-scale setup.
    """

    num_racks: int = 13
    machines_per_rack: int = 5
    capacity_blocks: int = 200
    slots_per_machine: int = 4

    @property
    def num_machines(self) -> int:
        """Total machines."""
        return self.num_racks * self.machines_per_rack

    def topology(self) -> ClusterTopology:
        """Materialize the topology."""
        return ClusterTopology.uniform(
            self.num_racks, self.machines_per_rack, self.capacity_blocks
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: system, cluster and algorithm knobs."""

    system: SystemKind
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    replication: int = 3
    rack_spread: int = 2
    epsilon: float = 0.1
    period: float = _SECONDS_PER_HOUR
    window: float = 2 * _SECONDS_PER_HOUR
    max_replication_ops: int = 20_000
    budget_extra_blocks: Optional[int] = None
    delay_scheduling_skips: int = 3
    compression_ratio: float = 1.0
    drain_hours: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.rack_spread <= self.replication:
            raise InvalidProblemError(
                "rack_spread must be in [1, replication]"
            )
        if self.drain_hours < 0:
            raise InvalidProblemError("drain_hours must be non-negative")


@dataclass
class RunResult:
    """Everything a figure needs from one run."""

    system: SystemKind
    epsilon: float
    horizon_hours: float
    num_machines: int
    local_tasks: int = 0
    remote_tasks: int = 0
    machine_task_loads: List[int] = field(default_factory=list)
    moves_completed: int = 0
    replications_completed: int = 0
    movement_durations: List[float] = field(default_factory=list)
    job_completions: Dict[int, float] = field(default_factory=dict)
    jobs_completed: int = 0
    jobs_submitted: int = 0

    @property
    def total_tasks(self) -> int:
        """Launched map tasks."""
        return self.local_tasks + self.remote_tasks

    @property
    def remote_fraction(self) -> float:
        """Paper's locality metric: remote tasks over all tasks."""
        if self.total_tasks == 0:
            return 0.0
        return self.remote_tasks / self.total_tasks

    @property
    def remote_tasks_per_hour(self) -> float:
        """Average remote tasks per simulated hour (Figures 3a/4a/5a)."""
        if self.horizon_hours == 0:
            return 0.0
        return self.remote_tasks / self.horizon_hours

    @property
    def moves_per_machine_per_hour(self) -> float:
        """Block migrations per machine per hour (Figures 3c/4c/5c)."""
        denominator = self.num_machines * self.horizon_hours
        if denominator == 0:
            return 0.0
        return self.moves_completed / denominator

    @property
    def data_movement_per_machine_per_hour(self) -> float:
        """Migrations plus replications per machine-hour (Figure 5c)."""
        denominator = self.num_machines * self.horizon_hours
        if denominator == 0:
            return 0.0
        return (self.moves_completed + self.replications_completed) / denominator


def run_experiment(
    trace: WorkloadTrace,
    config: ExperimentConfig,
    metrics_out: Optional[Path] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> RunResult:
    """Replay ``trace`` under ``config`` and collect the metrics.

    Deterministic for a given (trace, config) pair.  The job stream runs
    to its horizon, periodic optimizers are then cancelled, and the
    simulation drains (bounded by ``drain_hours``) so in-flight jobs and
    transfers finish.

    When ``metrics_out`` is given, a JSON snapshot of the observability
    registry (and tracer spans) is written there after the drain.  The
    registry must already be enabled (``repro.obs.enable()``) for the
    snapshot to contain anything; this function neither enables nor
    resets it, so callers control accumulation across runs.

    When ``telemetry`` is given, the session's recorder is installed on
    this run's simulation clock (and on the Aurora period loop, if any),
    and :meth:`~repro.obs.telemetry.TelemetrySession.finish` is called
    after the drain so SLOs evaluate over the full run.  The session
    resets the registry on install — don't combine with cross-run
    accumulation.
    """
    _LOG.info(
        "run start system=%s machines=%d epsilon=%.2f seed=%d",
        config.system.value, config.cluster.num_machines, config.epsilon,
        config.seed,
    )
    sim = Simulation()
    if telemetry is not None:
        telemetry.install(sim)
    topology = config.cluster.topology()
    transfers = TransferService(
        topology,
        sim=sim,
        compression_ratio=config.compression_ratio,
        rng=random.Random(config.seed + 1),
    )
    namenode = Namenode(
        topology,
        placement_policy=DefaultHdfsPolicy(random.Random(config.seed + 2)),
        sim=sim,
        transfer_service=transfers,
        default_replication=config.replication,
        default_rack_spread=config.rack_spread,
        rng=random.Random(config.seed + 3),
    )
    tokens = []

    aurora: Optional[AuroraSystem] = None
    scarlett: Optional[ScarlettSystem] = None
    if config.system is SystemKind.AURORA:
        budget = None
        if config.budget_extra_blocks is not None:
            budget = (
                trace.total_blocks * config.replication
                + config.budget_extra_blocks
            )
        aurora = AuroraSystem(
            namenode,
            AuroraConfig(
                epsilon=config.epsilon,
                window=config.window,
                period=config.period,
                max_replication_ops=config.max_replication_ops,
                replication_budget=budget,
                min_replication=config.replication,
                rack_spread=config.rack_spread,
            ),
        )
        if telemetry is not None:
            aurora.telemetry = telemetry.recorder
        tokens.append(
            sim.schedule_periodic(config.period, aurora.optimize)
        )
    elif config.system is SystemKind.SCARLETT:
        extra = config.budget_extra_blocks or 0
        scarlett = ScarlettSystem(
            namenode,
            ScarlettConfig(
                budget_blocks=extra,
                scheme=ScarlettScheme.PRIORITY,
                base_replication=config.replication,
                window=config.window,
                period=config.period,
            ),
        )
        tokens.append(
            sim.schedule_periodic(config.period, scarlett.optimize)
        )

    scheduler = MapReduceScheduler(
        sim,
        namenode,
        slots_per_machine=config.cluster.slots_per_machine,
        runtime=TaskRuntimeModel(jitter=0.05, rng=random.Random(config.seed + 4)),
        delay_policy=DelaySchedulingPolicy(
            max_skips=config.delay_scheduling_skips
        ),
        rng=random.Random(config.seed + 5),
    )

    # Load the trace's files into the DFS before the job stream starts.
    file_blocks: Dict[int, List[int]] = {}
    for trace_file in trace.files:
        meta = namenode.create_file(
            f"/data/{trace_file.file_id}",
            num_blocks=trace_file.num_blocks,
            block_size=trace_file.block_size,
            replication=config.replication,
            rack_spread=config.rack_spread,
        )
        file_blocks[trace_file.file_id] = list(meta.block_ids)
    # File loading happens at t=0 and costs no measured movement.
    setup_moves = namenode.moves_completed
    setup_replications = namenode.replications_completed
    setup_durations = len(transfers.durations)

    for trace_job in trace.jobs:
        job = Job(
            job_id=trace_job.job_id,
            submit_time=trace_job.submit_time,
            block_ids=file_blocks[trace_job.file_id],
            task_duration=trace_job.task_duration,
        )
        sim.schedule_at(
            trace_job.submit_time,
            lambda job=job: scheduler.submit_job(job),
        )

    horizon = trace.horizon
    sim.run(until=horizon)
    for token in tokens:
        token.cancel()
    sim.run(until=horizon + config.drain_hours * _SECONDS_PER_HOUR)

    horizon_hours = max(horizon / _SECONDS_PER_HOUR, 1e-9)
    result = RunResult(
        system=config.system,
        epsilon=config.epsilon,
        horizon_hours=horizon_hours,
        num_machines=config.cluster.num_machines,
        local_tasks=scheduler.local_tasks,
        remote_tasks=scheduler.remote_tasks,
        machine_task_loads=scheduler.tasks_per_machine(),
        moves_completed=namenode.moves_completed - setup_moves,
        replications_completed=(
            namenode.replications_completed - setup_replications
        ),
        movement_durations=transfers.durations[setup_durations:],
        job_completions={
            job.job_id: job.completion_time
            for job in scheduler.completed_jobs
        },
        jobs_completed=scheduler.jobs_completed,
        jobs_submitted=scheduler.jobs_submitted,
    )
    _LOG.info(
        "run done system=%s jobs=%d/%d remote_fraction=%.3f moves=%d",
        config.system.value, result.jobs_completed, result.jobs_submitted,
        result.remote_fraction, result.moves_completed,
    )
    if telemetry is not None:
        telemetry.finish(sim.now)
    if metrics_out is not None:
        write_snapshot(metrics_out)
        _LOG.info("metrics snapshot written to %s", metrics_out)
    return result
