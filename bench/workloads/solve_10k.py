"""``solve_10k`` — cold solver periods through ``repro.core`` at 10,000 machines."""

from __future__ import annotations

import random
import statistics
from typing import Dict, List, Set

import repro.core.local_search as local_search
import repro.core.rep_factor as rep_factor
from repro.cluster.topology import ClusterTopology
from repro.core.instance import BlockSpec, PlacementProblem
from repro.core.operations import MoveOp
from repro.core.placement import PlacementState
from repro.experiments.scale import fast_random_assignment
from repro.workload.popularity import PopularityDrift, zipf_weights

from bench.spans import Tracer
from bench.workloads.base import Finish, Workload
from bench.workloads.program_spans import SPAN_METRICS, install_program_spans

__all__ = ["Solve10k"]

_COST_SLACK = 1e-9


class Solve10k(Workload):
    name = "solve_10k"
    span_metrics = SPAN_METRICS

    # Frozen sizes (see bench/README.md).
    RACKS, PER_RACK = 625, 16
    BLOCKS = 25_000
    REPLICATION, RACK_SPREAD = 3, 2
    TOTAL_POPULARITY = 1_000_000.0
    SKEW, DRIFT = 1.1, 0.05
    MAX_MOVE_OPS = 150
    MAX_FACTOR_STEPS = 1000
    OPS_PER_SECOND = 4.0 / 3.0

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        if smoke:
            self.RACKS, self.BLOCKS = 40, 3000
            self.MAX_MOVE_OPS, self.MAX_FACTOR_STEPS = 50, 200
        self.warmups = 1
        self.num_ops = 3 if smoke else max(4, round(
            self.OPS_PER_SECOND * seconds
        ))
        self._rng = random.Random(seed)
        weights = zipf_weights(self.BLOCKS, self.SKEW)
        self._rank_popularity = [
            float(self.TOTAL_POPULARITY * w) for w in weights
        ]
        # Popularity rank -> block: a seeded shuffle of the block ids,
        # under a rank order that drifts by adjacent swaps before every op.
        self._drift = PopularityDrift(self.BLOCKS, self.DRIFT, promotions=0)
        self._block_of = list(range(self.BLOCKS))
        self._rng.shuffle(self._block_of)
        self._popularity: List[float] = []
        self._imbalances: List[float] = []
        self._failed_audit = False

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        machines = self.RACKS * self.PER_RACK
        capacity = max(8, self.BLOCKS * self.REPLICATION * 2 // machines)
        self.topology = ClusterTopology.uniform(
            self.RACKS, self.PER_RACK, capacity
        )
        problem = PlacementProblem.from_popularities(
            self.topology, [0.0] * self.BLOCKS,
            replication_factor=self.REPLICATION, rack_spread=self.RACK_SPREAD,
        )
        self.assignment: Dict[int, Set[int]] = fast_random_assignment(
            problem, self.seed
        )
        self.min_factors = dict.fromkeys(range(self.BLOCKS), self.REPLICATION)
        self.budget = self.BLOCKS * self.REPLICATION + self.BLOCKS // 4
        self.mean_load = self.TOTAL_POPULARITY / machines
        self.used = [0] * machines
        for holders in self.assignment.values():
            for machine in holders:
                self.used[machine] += 1
        self._last_loads = [0.0] * machines
        self.state = None
        self.stats = None

    def install(self, tracer: Tracer) -> None:
        install_program_spans(tracer)
        # Building the specs and the problem is core work done from the
        # benchmark's side of the call, so the span goes around it here.
        tracer.wrap(self, "_build_state", "core.placement.build")

    # -- ops -----------------------------------------------------------------

    def prepare(self, index: int) -> None:
        """Drift the popularity vector: the op's input."""
        self._drift.step(self._rng)
        popularity = [0.0] * self.BLOCKS
        block_of = self._block_of
        for rank, item in enumerate(self._drift.permutation):
            popularity[block_of[item]] = self._rank_popularity[rank]
        self._popularity = popularity

    def op(self, index: int) -> None:
        self._solve_factors()
        state = self._build_state()
        stats = local_search.balance_rack_aware(
            state, max_operations=self.MAX_MOVE_OPS, log_operations=True
        )
        self._fold(stats.operations)
        self.state, self.stats = state, stats

    def _solve_factors(self) -> None:
        """Algorithm 3 from the deployed factors, then re-place replicas."""
        current = {
            block: len(holders) for block, holders in self.assignment.items()
        }
        factors = rep_factor.compute_replication_factors(
            dict(enumerate(self._popularity)), self.min_factors, self.budget,
            self.topology.num_machines, initial_factors=current,
            max_iterations=self.MAX_FACTOR_STEPS,
        ).factors
        self._apply_factors(current, factors)

    def _build_state(self):
        """The cold build ``snapshot_placement`` does without its cache:
        a spec per block, the problem, and the indexed state."""
        # Freeing the previous period's state is part of replacing it.
        self.state = None
        popularity, spread = self._popularity, self.RACK_SPREAD
        problem = PlacementProblem(
            topology=self.topology,
            blocks=tuple(
                BlockSpec(block, popularity[block], len(holders), spread)
                for block, holders in self.assignment.items()
            ),
        )
        return PlacementState.from_assignment(problem, self.assignment)

    def _fold(self, operations) -> None:
        """Fold the operation log into the assignment, as a replay would."""
        assignment, used = self.assignment, self.used
        for operation in operations:
            if isinstance(operation, MoveOp):
                holders = assignment[operation.block]
                holders.discard(operation.src)
                holders.add(operation.dst)
                used[operation.src] -= 1
                used[operation.dst] += 1
            else:
                holders = assignment[operation.block_i]
                holders.discard(operation.src)
                holders.add(operation.dst)
                holders = assignment[operation.block_j]
                holders.discard(operation.dst)
                holders.add(operation.src)

    def _apply_factors(self, current, factors) -> None:
        """Bring the assignment to Algorithm 3's factors.

        The benchmark plays the placement policy: a dropped replica
        leaves the holder that was most loaded after the previous op
        (keeping the rack spread), a new one lands on the least loaded
        machine with room that does not hold the block yet.
        """
        assignment, used = self.assignment, self.used
        rack_of = self.topology.rack_of
        capacity = self.topology.capacities[0]
        loads = self._last_loads
        for block, target in factors.items():
            holders = assignment[block]
            for _ in range(current[block] - target):
                for machine in sorted(holders, key=loads.__getitem__,
                                      reverse=True):
                    rest = {rack_of[m] for m in holders if m != machine}
                    if len(rest) >= self.RACK_SPREAD:
                        holders.discard(machine)
                        used[machine] -= 1
                        break
        order = sorted(range(len(loads)), key=loads.__getitem__)
        cursor = 0
        for block, target in factors.items():
            holders = assignment[block]
            for _ in range(target - current[block]):
                while True:
                    machine = order[cursor % len(order)]
                    cursor += 1
                    if machine not in holders and used[machine] < capacity:
                        break
                holders.add(machine)
                used[machine] += 1

    def check(self, index: int) -> bool:
        stats, state = self.stats, self.state
        ok = stats.final_cost <= stats.initial_cost + _COST_SLACK
        ok = ok and self.assignment == state.to_assignment()
        self._last_loads = state.loads().tolist()
        if index == self.warmups + self.num_ops - 1:
            try:
                state.audit()
            except AssertionError as exc:
                self._failed_audit = True
                print(f"solve_10k: audit failed: {exc}")
                ok = False
        if index >= self.warmups:
            self._imbalances.append(stats.final_cost / self.mean_load)
        return ok

    # -- results -------------------------------------------------------------

    def finish(self) -> Finish:
        problems = ["state.audit() failed"] if self._failed_audit else []
        return Finish(
            ok=not problems,
            load_imbalance=statistics.fmean(self._imbalances),
            problems=problems,
        )

    def counts(self) -> Dict[str, float]:
        return {
            "core.placement.state_mb": self.state.state_bytes() / 1e6,
            "core.local_search.cost_after": self.stats.final_cost,
        }
