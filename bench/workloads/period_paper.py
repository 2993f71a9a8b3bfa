"""``period_paper`` — Algorithm 5 periods on a simulated namenode at paper scale."""

from __future__ import annotations

import random
import statistics
from typing import Dict, List

import numpy as np

from repro.aurora.config import AuroraConfig
from repro.aurora.system import AuroraSystem
from repro.cluster.topology import ClusterTopology
from repro.dfs.fsck import run_fsck
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.dfs.replication import TransferService
from repro.simulation.engine import Simulation
from repro.workload.popularity import PopularityDrift, zipf_weights

from bench.spans import Tracer
from bench.workloads.base import Finish, Workload
from bench.workloads.program_spans import SPAN_METRICS, install_program_spans

__all__ = ["PeriodPaper"]

_HOUR = 3600.0


class PeriodPaper(Workload):
    name = "period_paper"
    span_metrics = SPAN_METRICS

    # Frozen sizes (see bench/README.md).
    RACKS, PER_RACK, CAPACITY = 13, 65, 64
    FILES, BLOCKS_PER_FILE = 800, 4
    READS_PER_PERIOD = 6400
    EXTRA_REPLICAS = 800
    MAX_MOVE_OPS = 100
    SKEW, DRIFT = 1.1, 0.05
    PERIODS_PER_SECOND = 8.0 / 3.0

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        if smoke:
            self.RACKS, self.PER_RACK = 6, 10
            self.FILES, self.READS_PER_PERIOD = 150, 1500
            self.EXTRA_REPLICAS = 150
        self.warmups = 1 if smoke else 3
        self.num_ops = 3 if smoke else max(4, round(
            self.PERIODS_PER_SECOND * seconds
        ))
        rng = random.Random(seed)
        draws = np.random.default_rng(seed).choice(
            self.FILES,
            size=(self.warmups + self.num_ops, self.READS_PER_PERIOD),
            p=zipf_weights(self.FILES, self.SKEW),
        )
        drift = PopularityDrift(self.FILES, self.DRIFT)
        # Per period: the file ids read this hour (rank -> file through
        # the drifting permutation, as the Yahoo! synthesizer does).
        self._reads: List[List[int]] = []
        for ranks in draws:
            perm = drift.permutation
            self._reads.append([perm[r] for r in ranks.tolist()])
            drift.step(rng)
        self._blocks: List[int] = []
        self._window_accesses: List[int] = []
        self._imbalances: List[float] = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        seed = self.seed
        topology = ClusterTopology.uniform(
            self.RACKS, self.PER_RACK, self.CAPACITY
        )
        self.sim = Simulation()
        self.transfers = TransferService(
            topology, sim=self.sim, rng=random.Random(seed + 1)
        )
        self.namenode = Namenode(
            topology,
            placement_policy=DefaultHdfsPolicy(random.Random(seed + 2)),
            sim=self.sim,
            transfer_service=self.transfers,
            rng=random.Random(seed + 3),
        )
        blocks = self.FILES * self.BLOCKS_PER_FILE
        self.aurora = AuroraSystem(self.namenode, AuroraConfig(
            epsilon=0.1,
            replication_budget=3 * blocks + self.EXTRA_REPLICAS,
            max_move_ops=self.MAX_MOVE_OPS,
        ))
        self.file_blocks = [
            list(self.namenode.create_file(
                f"/data/{index}", num_blocks=self.BLOCKS_PER_FILE,
            ).block_ids)
            for index in range(self.FILES)
        ]
        self.reports = []

    def install(self, tracer: Tracer) -> None:
        install_program_spans(tracer)

    # -- ops -----------------------------------------------------------------

    def prepare(self, index: int) -> None:
        file_blocks = self.file_blocks
        self._blocks = [
            block for file_id in self._reads[index]
            for block in file_blocks[file_id]
        ]

    def op(self, index: int) -> None:
        boundary = (index + 1) * _HOUR
        self.aurora.monitor.record_many(self._blocks, boundary - _HOUR / 2)
        self.sim.run(until=boundary)
        self.report = self.aurora.optimize(boundary)
        self.sim.run(until=boundary + _HOUR / 2)

    def check(self, index: int) -> bool:
        self._window_accesses.append(len(self._blocks))
        if index < self.warmups:
            return True
        report = self.report
        self.reports.append(report)
        # The monitor window is two periods wide, so the mean machine
        # load behind this period's cost is the last two periods' reads.
        mean_load = (sum(self._window_accesses[-2:])
                     / self.namenode.topology.num_machines)
        self._imbalances.append(report.cost_after / mean_load)
        return not report.aborted and report.search is not None

    def begin_timed(self) -> None:
        self._bytes_before = self.transfers.bytes_transferred
        self._recorded_before = self.aurora.monitor.total_recorded

    # -- results -------------------------------------------------------------

    def finish(self) -> Finish:
        fsck = run_fsck(self.namenode)
        problems = []
        if not fsck.healthy:
            problems.append(f"fsck: {fsck.counts_by_check()}")
        # Averaged over the timed periods: the final period alone swings
        # 4% between seeds with whichever file was promoted last.
        return Finish(
            ok=not problems,
            load_imbalance=statistics.fmean(self._imbalances),
            problems=problems,
        )

    def counts(self) -> Dict[str, float]:
        reports = self.reports
        return {
            "aurora.bridge.moves_issued": sum(
                r.replay.moves_issued for r in reports
            ),
            "dfs.replication.bytes_moved": (
                self.transfers.bytes_transferred - self._bytes_before
            ),
            "monitor.usage.accesses_recorded": (
                self.aurora.monitor.total_recorded - self._recorded_before
            ),
            "core.local_search.cost_after": reports[-1].cost_after,
        }
