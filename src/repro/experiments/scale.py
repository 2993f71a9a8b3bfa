"""Cluster-scale study: does Aurora's advantage grow with cluster size?

Section VI.B conjectures: "We believe this gain will be higher if larger
clusters are used, as data locality tends to decrease as the number of
machines increases."  This experiment tests that claim directly: the
same workload intensity per machine is replayed on clusters of
increasing size, and the locality gap between stock HDFS and Aurora is
measured at each scale.

The module also hosts the *solver* scale study
(:func:`run_solver_scale_study`): the incremental local-search engine
(:mod:`repro.core.local_search`) timed against the naive reference
transcription (:mod:`repro.core.reference`) on growing instances, with
an equality check on the results; ``repro scale --solver`` prints it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.instance import PlacementProblem
from repro.core.local_search import balance_rack_aware
from repro.core.reference import reference_balance_rack_aware
from repro.experiments.ablation import _random_state, make_instance
from repro.experiments.harness import (
    ClusterConfig,
    ExperimentConfig,
    RunResult,
    SystemKind,
)
from repro.experiments.report import render_table
from repro.experiments.runner import TrialCase, run_trials
from repro.workload.yahoo import YahooTraceConfig, generate_yahoo_trace

__all__ = [
    "ScalePoint",
    "run_scale_study",
    "render_scale_study",
    "SolverScalePoint",
    "run_solver_scale_study",
    "render_solver_scale_study",
    "fast_random_assignment",
]


@dataclass(frozen=True)
class ScalePoint:
    """One cluster size's HDFS-vs-Aurora comparison."""

    num_machines: int
    hdfs: RunResult
    aurora: RunResult

    @property
    def hdfs_remote_fraction(self) -> float:
        """Stock HDFS's remote-task fraction at this scale."""
        return self.hdfs.remote_fraction

    @property
    def gain(self) -> float:
        """Absolute locality gain of Aurora over HDFS."""
        return self.hdfs.remote_fraction - self.aurora.remote_fraction


def run_scale_study(
    machines_per_rack_options: Tuple[int, ...] = (3, 5, 8),
    num_racks: int = 13,
    jobs_per_machine_hour: float = 8.5,
    duration_hours: float = 2.0,
    epsilon: float = 0.1,
    seed: int = 0,
    jobs: int = 1,
) -> List[ScalePoint]:
    """Sweep cluster sizes at constant per-machine workload intensity.

    The job arrival rate scales with the machine count so utilization is
    comparable at every point; only the cluster size (and hence the
    replica dilution random placement suffers) varies.  ``jobs`` fans
    the independent (size, system) cases out to worker processes.
    """
    cases: List[TrialCase] = []
    sizes: List[int] = []
    for per_rack in machines_per_rack_options:
        cluster = ClusterConfig(
            num_racks=num_racks,
            machines_per_rack=per_rack,
            capacity_blocks=200,
            slots_per_machine=4,
        )
        trace = generate_yahoo_trace(YahooTraceConfig(
            num_files=max(40, 2 * cluster.num_machines),
            jobs_per_hour=jobs_per_machine_hour * cluster.num_machines,
            duration_hours=duration_hours,
            mean_task_duration=90.0,
            seed=seed,
        ))
        sizes.append(cluster.num_machines)
        for kind in (SystemKind.HDFS, SystemKind.AURORA):
            cases.append(TrialCase(
                label=f"{kind.value}@{cluster.num_machines}",
                trace=trace,
                config=ExperimentConfig(
                    system=kind,
                    cluster=cluster,
                    rack_spread=2,
                    epsilon=epsilon,
                    seed=seed,
                ),
            ))
    runs = run_trials(cases, jobs=jobs)
    points: List[ScalePoint] = []
    for index, num_machines in enumerate(sizes):
        points.append(ScalePoint(
            num_machines=num_machines,
            hdfs=runs[2 * index],
            aurora=runs[2 * index + 1],
        ))
    return points


def render_scale_study(points: List[ScalePoint]) -> str:
    """Table: machines vs HDFS/Aurora remote fractions and gain."""
    rows = [
        (
            point.num_machines,
            point.hdfs.remote_fraction * 100,
            point.aurora.remote_fraction * 100,
            point.gain * 100,
        )
        for point in points
    ]
    table = render_table(
        ["machines", "HDFS remote %", "Aurora remote %", "gain (pp)"], rows
    )
    claim = (
        "paper's conjecture: the gain grows with cluster size — "
        + ("CONFIRMED" if all(
            later.gain >= earlier.gain - 0.01
            for earlier, later in zip(points, points[1:])
        ) else "NOT CONFIRMED at this scale")
    )
    return f"Scale study (E14)\n{table}\n{claim}"


@dataclass(frozen=True)
class SolverScalePoint:
    """Incremental vs reference solver timings on one instance size."""

    num_machines: int
    num_blocks: int
    operations: int
    reference_seconds: float
    incremental_seconds: float
    pairs_probed: int
    pairs_pruned: int
    results_match: bool

    @property
    def speedup(self) -> float:
        """Reference wall-clock divided by incremental wall-clock."""
        if self.incremental_seconds <= 0.0:
            return float("inf")
        return self.reference_seconds / self.incremental_seconds


def run_solver_scale_study(
    sizes: Tuple[Tuple[int, int, int], ...] = (
        (3, 4, 160),
        (8, 8, 1600),
        (12, 12, 4000),
    ),
    replication: int = 3,
    rack_spread: int = 2,
    seed: int = 0,
) -> List[SolverScalePoint]:
    """Time rack-aware balancing, incremental engine vs naive reference.

    Each ``(num_racks, machines_per_rack, num_blocks)`` size gets a
    Zipf-popular instance with an HDFS-style random initial placement —
    the worst case the controller faces — balanced to convergence by both
    solvers from identical copies.  ``results_match`` records whether
    final cost *and* final placement agree, so a reported speedup can
    never hide a divergence.
    """
    points: List[SolverScalePoint] = []
    for num_racks, per_rack, num_blocks in sizes:
        instance = make_instance(
            num_racks=num_racks,
            machines_per_rack=per_rack,
            num_blocks=num_blocks,
            replication=replication,
            rack_spread=rack_spread,
            seed=seed,
        )
        problem = instance.problem()
        reference_state = _random_state(problem, seed)
        incremental_state = reference_state.copy()
        reference_stats = reference_balance_rack_aware(reference_state)
        incremental_stats = balance_rack_aware(incremental_state)
        matches = (
            reference_stats.final_cost == incremental_stats.final_cost
            and reference_state.to_assignment()
            == incremental_state.to_assignment()
        )
        points.append(SolverScalePoint(
            num_machines=problem.topology.num_machines,
            num_blocks=num_blocks,
            operations=incremental_stats.total_operations,
            reference_seconds=reference_stats.elapsed_seconds,
            incremental_seconds=incremental_stats.elapsed_seconds,
            pairs_probed=incremental_stats.pairs_probed,
            pairs_pruned=incremental_stats.pairs_pruned,
            results_match=matches,
        ))
    return points


def render_solver_scale_study(points: List[SolverScalePoint]) -> str:
    """Table: instance size vs solver wall-clock and speedup."""
    rows = [
        (
            point.num_machines,
            point.num_blocks,
            point.operations,
            f"{point.reference_seconds:.3f}",
            f"{point.incremental_seconds:.3f}",
            f"{point.speedup:.1f}x",
            point.pairs_pruned,
            "yes" if point.results_match else "NO",
        )
        for point in points
    ]
    table = render_table(
        [
            "machines", "blocks", "ops", "reference s",
            "incremental s", "speedup", "pruned", "match",
        ],
        rows,
    )
    return f"Solver scale study (incremental engine vs reference)\n{table}"


def fast_random_assignment(
    problem: PlacementProblem, seed: int
) -> Dict[int, set]:
    """Seeded HDFS-style random placement in ``O(B * r)`` time.

    :func:`repro.experiments.ablation._random_state` samples machines by
    scanning feasibility lists per replica, which is ``O(B * M)`` and
    unusable at 10k machines x 100k blocks.  This builder picks
    ``rack_spread`` distinct racks per block, one holder in each, then
    rejection-samples the remaining replicas cluster-wide — the same
    placement *family* (random, spread-respecting), a different stream.
    """
    rng = random.Random(seed)
    topology = problem.topology
    used = [0] * topology.num_machines
    capacities = topology.capacities
    racks = list(topology.racks)
    assignment: Dict[int, set] = {}
    for spec in problem:
        chosen_racks = rng.sample(racks, spec.rack_spread)
        holders: set = set()
        for rack in chosen_racks:
            members = topology.machines_in_rack(rack)
            while True:
                machine = members[rng.randrange(len(members))]
                if machine not in holders and used[machine] < capacities[machine]:
                    holders.add(machine)
                    used[machine] += 1
                    break
        while len(holders) < spec.replication_factor:
            machine = rng.randrange(topology.num_machines)
            if machine not in holders and used[machine] < capacities[machine]:
                holders.add(machine)
                used[machine] += 1
        assignment[spec.block_id] = holders
    return assignment
