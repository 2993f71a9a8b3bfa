"""``sweep_fig3`` — the Figure 3 sweep through the whole DES stack, case by case."""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import repro.experiments.harness as harness
from repro.experiments.harness import (
    ClusterConfig,
    ExperimentConfig,
    SystemKind,
)
from repro.workload.trace import WorkloadTrace
from repro.workload.yahoo import YahooTraceConfig, generate_yahoo_trace

from bench.spans import Tracer
from bench.workloads.base import Finish, Workload, max_over_mean
from bench.workloads.program_spans import SPAN_METRICS, install_program_spans

__all__ = ["SweepFig3"]

#: The three systems of one sweep row: stock HDFS and Aurora at two of
#: the paper's epsilons.  Not 0.8: with few operations admissible its
#: search time is heavy-tailed (0.4-3.3 s per case, CV 53%), and eight
#: such cases per run made ``ops_per_s`` swing 30% between seeds.
_SYSTEMS: Tuple[Tuple[SystemKind, float], ...] = (
    (SystemKind.HDFS, 0.0),
    (SystemKind.AURORA, 0.1),
    (SystemKind.AURORA, 0.3),
)


class SweepFig3(Workload):
    name = "sweep_fig3"
    span_metrics = SPAN_METRICS

    # Frozen sizes (see bench/README.md).  The trace is fig3.default_trace
    # with one change: every file has exactly the mean 8 blocks, because
    # the geometric file sizes make the task count (and so every timing)
    # swing 2x between seeds, which no bound could absorb.
    FILES, BLOCKS_PER_FILE = 120, 8
    JOBS_PER_HOUR, HOURS, TASK_SECONDS = 550.0, 3.0, 90.0
    ROWS_PER_SECOND = 8.0 / 15.0

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        if smoke:
            self.FILES, self.JOBS_PER_HOUR, self.HOURS = 30, 60.0, 2.0
        self.rows = 1 if smoke else max(2, round(self.ROWS_PER_SECOND * seconds))
        self.warmups = 1
        self.num_ops = self.rows * len(_SYSTEMS)
        self.cluster = ClusterConfig()
        self.results: List[Tuple[SystemKind, object]] = []

    def _trace(self, row: int) -> WorkloadTrace:
        return generate_yahoo_trace(YahooTraceConfig(
            num_files=self.FILES,
            mean_blocks_per_file=float("inf"),
            max_blocks_per_file=self.BLOCKS_PER_FILE,
            jobs_per_hour=self.JOBS_PER_HOUR,
            duration_hours=self.HOURS,
            mean_task_duration=self.TASK_SECONDS,
            seed=self.seed * 1000 + row,
        ))

    def _config(self, system: SystemKind, epsilon: float, row: int):
        # Figure 3 is the paper's case 1: no rack-level requirement.
        return ExperimentConfig(
            system=system, cluster=self.cluster, replication=3,
            rack_spread=1, epsilon=epsilon, seed=self.seed * 1000 + row,
        )

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Synthesize the traces; the DFS itself is built inside each case."""
        traces = [self._trace(row) for row in range(-1, self.rows)]
        # Op 0 warms up on a trace of its own; then one row per trace.
        self.cases = [(traces[0], self._config(SystemKind.AURORA, 0.1, -1))]
        for row, trace in enumerate(traces[1:]):
            for system, epsilon in _SYSTEMS:
                self.cases.append((trace, self._config(system, epsilon, row)))

    def install(self, tracer: Tracer) -> None:
        install_program_spans(tracer)
        # The op *is* the harness call, so what the harness does itself
        # (wiring the stack, collecting the result) is a layer's self time.
        tracer.wrap(harness, "run_experiment", "experiments.harness.case")

    # -- ops -----------------------------------------------------------------

    def op(self, index: int) -> None:
        trace, config = self.cases[index]
        self.result = harness.run_experiment(trace, config)

    def check(self, index: int) -> bool:
        result = self.result
        if index >= self.warmups:
            self.results.append(result)
        return (result.jobs_submitted > 0
                and result.jobs_completed == result.jobs_submitted)

    # -- results -------------------------------------------------------------

    def finish(self) -> Finish:
        aurora = [
            max_over_mean(r.machine_task_loads) for r in self.results
            if r.system is SystemKind.AURORA
        ]
        return Finish(ok=True, load_imbalance=statistics.fmean(aurora))

    def counts(self) -> Dict[str, float]:
        tasks = sum(r.total_tasks for r in self.results)
        remote = sum(r.remote_tasks for r in self.results)
        return {
            "scheduler.capacity.tasks_launched": tasks,
            "scheduler.capacity.remote_task_share": remote / tasks,
        }

    def layer_metrics(self, summary) -> Dict[str, float]:
        out = super().layer_metrics(summary)
        by_kind: Dict[bool, List[float]] = {True: [], False: []}
        for number, result in enumerate(self.results):
            by_kind[result.system is SystemKind.AURORA].append(
                summary.op_seconds(number)
            )
        out["experiments.harness.hdfs_case_ms"] = (
            1000.0 * statistics.fmean(by_kind[False])
        )
        out["experiments.harness.aurora_case_ms"] = (
            1000.0 * statistics.fmean(by_kind[True])
        )
        out["experiments.harness.tasks_per_s"] = (
            out["scheduler.capacity.tasks_launched"] / summary.elapsed_s
        )
        engine_s = summary.total_s("simulation.engine.run")
        if engine_s > 0:
            out["simulation.engine.events_per_s"] = (
                out.get("simulation.engine.events_processed", 0) / engine_s
            )
        return out
