"""The paper's claims as one generated, checked ledger.

Runs every claim driver once at seed 0 and writes one record per claim
to ``benchmarks/claims.json``: its id, a one-line statement, the
``numbers`` it rests on and its ``verdict``.  A verdict is the claim's
comparison evaluated on the unrounded values; the ledger stores floats
to six significant digits and no wall-clock value, so the same code
writes the same bytes::

    PYTHONPATH=src python benchmarks/claims.py          # rewrite
    PYTHONPATH=src python benchmarks/claims.py --check  # compare only

``--check`` exits non-zero when the regenerated ledger differs from the
committed file or any verdict is false.  Rewrite and commit the ledger
only for a change that moves a figure on purpose.  Figure 5 takes most
of the ~2 minute run.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np

from repro.aurora.config import AuroraConfig
from repro.aurora.system import AuroraSystem
from repro.cluster.topology import ClusterTopology
from repro.core.admissibility import theorem9_approximation_factor
from repro.core.exact import solve_exact
from repro.core.initial_placement import place_all_blocks
from repro.core.instance import PlacementProblem
from repro.core.local_search import balance_node_level, balance_rack_aware
from repro.core.placement import PlacementState
from repro.dfs.namenode import Namenode
from repro.dfs.policies import DefaultHdfsPolicy
from repro.experiments.ablation import (
    make_instance,
    render_ablations,
    run_epsilon_ablation,
    run_factor_ablation,
    run_initial_placement_ablation,
)
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.fig3 import default_trace, run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6, speedup_over
from repro.experiments.harness import (
    ExperimentConfig,
    SystemKind,
    run_experiment,
)
from repro.experiments.multitenant import run_multitenant_study
from repro.experiments.overload import OverloadStormConfig, run_overload_pair
from repro.experiments.report import cdf_series
from repro.experiments.scale import run_scale_study
from repro.experiments.sensitivity import (
    run_cap_sensitivity,
    run_window_sensitivity,
)
from repro.simulation.engine import Simulation
from repro.workload.popularity import zipf_weights

LEDGER = Path(__file__).with_name("claims.json")
SEED = 0
DIGITS = 6  # significant digits of every float in the ledger

#: claim(id, statement, numbers, verdict) appends one record.
Claim = Callable[[str, str, Dict[Any, Any], bool], None]


def canonical(value: Any) -> Any:
    """``value`` with floats rounded, numpy scalars unwrapped and keys
    turned into strings."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.{DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def _std(run) -> float:
    return float(np.std(run.machine_task_loads))


def _per_eps(runs, metric: Callable) -> Dict[float, Any]:
    return {eps: metric(run) for eps, run in sorted(runs.items())}


def _remote(run) -> float:
    return run.remote_tasks_per_hour


# -- Figures 3-6 (E1-E8) ------------------------------------------------------

def fig3(claim: Claim) -> None:
    epsilons = (0.1, 0.3, 0.6, 0.8)
    result = run_fig3(trace=default_trace(seed=SEED), epsilons=epsilons,
                      seed=SEED)
    hdfs = result.baseline
    remote = _per_eps(result.aurora, _remote)
    claim("fig3.remote_tasks",
          "Aurora < HDFS remote tasks/h at every eps; best cut > 5%",
          {"hdfs": _remote(hdfs), "aurora": remote,
           "best_reduction": result.best_reduction()},
          _remote(hdfs) > 0 and all(v < _remote(hdfs) for v in remote.values())
          and result.best_reduction() > 0.05)
    series = {"HDFS": cdf_series(hdfs.machine_task_loads, 20)}
    for eps, run in result.aurora.items():
        series[f"eps={eps}"] = cdf_series(run.machine_task_loads, 20)
    claim("fig3.load_cdf",
          "one load CDF per system; Aurora (eps 0.1) load stddev < HDFS's",
          {"cdf_series": len(series), "hdfs_std": _std(hdfs),
           "aurora_std": _per_eps(result.aurora, _std)},
          len(series) == 1 + len(epsilons)
          and _std(result.aurora[0.1]) < _std(hdfs))
    moves = _per_eps(result.aurora, lambda run: run.moves_per_machine_per_hour)
    claim("fig3.movement",
          "HDFS moves nothing; Aurora moves at eps 0.1, no more at eps 0.8",
          {"hdfs": hdfs.moves_per_machine_per_hour, "aurora": moves},
          hdfs.moves_per_machine_per_hour == 0.0
          and moves[0.1] > 0 and moves[0.8] <= moves[0.1])


def fig4(claim: Claim) -> None:
    result = run_fig4(trace=default_trace(seed=SEED),
                      epsilons=(0.1, 0.6, 0.8), seed=SEED)
    hdfs = result.baseline
    remote = _per_eps(result.aurora, _remote)
    claim("fig4.remote_tasks",
          "rho=2: Aurora < HDFS remote tasks/h at every eps",
          {"hdfs": _remote(hdfs), "aurora": remote,
           "best_reduction": result.best_reduction()},
          _remote(hdfs) > 0
          and all(v < _remote(hdfs) for v in remote.values()))
    claim("fig4.load_cdf", "rho=2: Aurora (eps 0.1) load stddev < HDFS's",
          {"hdfs_std": _std(hdfs),
           "aurora_std": _per_eps(result.aurora, _std)},
          _std(result.aurora[0.1]) < _std(hdfs))
    moves = _per_eps(result.aurora, lambda run: run.moves_per_machine_per_hour)
    incomplete = _per_eps(result.aurora,
                          lambda run: run.jobs_submitted - run.jobs_completed)
    claim("fig4.movement",
          "rho=2: Aurora moves at eps 0.1, no more at 0.8; all jobs complete",
          {"aurora": moves, "jobs_incomplete": incomplete},
          moves[0.1] > 0 and moves[0.8] <= moves[0.1]
          and not any(incomplete.values()))


def fig5(claim: Claim) -> None:
    result = run_fig5(trace=default_trace(seed=SEED),
                      epsilons=(0.1, 0.6, 0.8), seed=SEED)
    scarlett = result.scarlett
    remote = _per_eps(result.aurora, _remote)
    claim("fig5.remote_tasks",
          "Aurora's best eps runs fewer remote tasks/h than Scarlett",
          {"scarlett": _remote(scarlett), "aurora": remote,
           "best_reduction": result.best_reduction()},
          _remote(scarlett) > 0 and min(remote.values()) < _remote(scarlett)
          and result.best_reduction() > 0.0)
    claim("fig5.load_cdf",
          "Aurora (eps 0.1) load stddev <= 1.25x Scarlett's",
          {"scarlett_std": _std(scarlett),
           "aurora_std": _per_eps(result.aurora, _std)},
          _std(result.aurora[0.1]) <= _std(scarlett) * 1.25)
    movement = _per_eps(result.aurora,
                        lambda run: run.data_movement_per_machine_per_hour)
    claim("fig5.movement",
          "movement >= 0 at every eps; eps 0.8 <= 1.25x eps 0.1",
          {"aurora": movement},
          all(v >= 0 for v in movement.values())
          and movement[0.8] <= movement[0.1] * 1.25)


def fig6(claim: Claim) -> None:
    result = run_fig6(seed=SEED)
    share = {name: run.remote_fraction for name, run in result.runs().items()}
    claim("fig6.remote_share",
          "remote share: Aurora <= Scarlett + 0.02, Scarlett < HDFS, "
          "HDFS > 0.05",
          share,
          share["Aurora"] <= share["Scarlett"] + 0.02
          and share["Scarlett"] < share["HDFS"] and share["HDFS"] > 0.05)
    ratios = speedup_over(result.scarlett, result.aurora)
    hdfs_ratios = speedup_over(result.scarlett, result.hdfs)
    claim("fig6.speedup",
          "> 100 jobs; mean speed-up over Scarlett: Aurora > 0, HDFS < 0",
          {"jobs": len(ratios), "aurora_mean": np.mean(ratios),
           "aurora_median": np.median(ratios),
           "aurora_p80": np.percentile(ratios, 80),
           "hdfs_mean": np.mean(hdfs_ratios),
           "hdfs_median": np.median(hdfs_ratios)},
          len(ratios) > 100 and float(np.mean(ratios)) > 0.0
          and float(np.mean(hdfs_ratios)) < 0.0)
    aurora = result.aurora
    durations = aurora.movement_durations
    p80 = float(np.percentile(durations, 80)) if durations else 0.0
    median = float(np.median(durations)) if durations else math.inf
    claim("fig6.movement_durations",
          "Aurora moves blocks; duration p80 < 30 s and median < 10 s",
          {"movements": len(durations), "median_s": median, "p80_s": p80,
           "replications_per_hour":
               aurora.replications_completed / aurora.horizon_hours,
           "moves_per_hour": aurora.moves_completed / aurora.horizon_hours},
          bool(durations) and p80 < 30.0 and median < 10.0)


# -- approximation (E9) and the epsilon trade-off (E10) -----------------------

def _worst_ratio(rack_aware: bool, seeds: range) -> float:
    """Largest SOL/OPT of the local search over random small instances."""
    worst = 0.0
    for seed in seeds:
        rng = random.Random(seed)
        if rack_aware:
            topology, k, rho = ClusterTopology.uniform(2, 3, capacity=8), 2, 2
        else:
            topology = ClusterTopology.uniform(1, rng.randint(3, 5),
                                               capacity=8)
            k, rho = 1, 1
        pops = [rng.uniform(0.5, 20.0) for _ in range(rng.randint(4, 8))]
        problem = PlacementProblem.from_popularities(
            topology, pops, replication_factor=k, rack_spread=rho)
        state = PlacementState(problem)
        place_all_blocks(state)
        (balance_rack_aware if rack_aware else balance_node_level)(state)
        optimum = solve_exact(problem).objective
        worst = max(worst, state.cost() / optimum if optimum > 0 else 1.0)
    return worst


def approximation(claim: Claim) -> None:
    for number, rack_aware, seeds, bound in ((1, False, range(12), 2.0),
                                             (2, True, range(10), 4.0)):
        worst = _worst_ratio(rack_aware, seeds)
        claim(f"approx.alg{number}_vs_exact",
              f"Algorithm {number}: worst SOL/OPT <= {bound:g} over "
              f"{len(seeds)} random instances",
              {"instances": len(seeds), "worst_ratio": worst, "bound": bound},
              worst <= bound + 1e-6)
    state = PlacementState(make_instance(num_blocks=300, seed=7).problem())
    place_all_blocks(state)
    stats = balance_rack_aware(state)
    claim("approx.alg2_converges", "Algorithm 2 converges on 300 blocks",
          {"blocks": 300, "operations": stats.total_operations,
           "converged": stats.converged},
          stats.converged)


def epsilon(claim: Claim) -> None:
    epsilons = (0.1, 0.3, 0.6, 0.8)
    rows = run_epsilon_ablation(make_instance(num_blocks=250, seed=11),
                                epsilons=epsilons).rows
    gap = {row["epsilon"]: row for row in rows if row["semantics"] == "gap"}
    moved = {eps: row["blocks_moved"] for eps, row in gap.items()}
    cost = {eps: row["final_cost"] for eps, row in gap.items()}
    claim("epsilon.gap_tradeoff",
          "gap semantics: eps 0.1 moves >= and ends <= cost than eps 0.8",
          {"blocks_moved": moved, "final_cost": cost},
          moved[0.1] >= moved[0.8] and cost[0.1] <= cost[0.8] + 1e-9)
    ops = {(row["epsilon"], row["semantics"]): row["operations"]
           for row in rows}
    claim("epsilon.cost_semantics",
          "cost semantics applies <= the gap semantics' operations at "
          "every eps",
          {"cost_ops": {eps: ops[(eps, "cost")] for eps in epsilons},
           "gap_ops": {eps: ops[(eps, "gap")] for eps in epsilons}},
          all(ops[(eps, "cost")] <= ops[(eps, "gap")] for eps in epsilons))
    node = {eps: theorem9_approximation_factor(False, eps)
            for eps in (0.0, 0.1, 0.3, 0.6, 0.8)}
    rack = {eps: theorem9_approximation_factor(True, eps) for eps in node}
    claim("epsilon.theorem9_factors",
          "Theorem 9 factors: 2 and 4 at eps 0, 2.8 and 6.4 at eps 0.8",
          {"bp_node": node, "bp_rack": rack},
          # Within 1e-6 relative: 2+eps and 4+3eps are float sums.
          node[0.0] == 2.0 and rack[0.0] == 4.0
          and abs(node[0.8] - 2.8) <= 2.8e-6
          and abs(rack[0.8] - 6.4) <= 6.4e-6)


# -- convergence (E15) --------------------------------------------------------

def _drive_aurora(drift: bool, periods: int = 10) -> AuroraSystem:
    """Run Aurora for ``periods`` hours under a synthetic read mix."""
    sim = Simulation()
    topo = ClusterTopology.uniform(4, 4, capacity=120)
    nn = Namenode(topo, sim=sim, rng=random.Random(SEED + 1),
                  placement_policy=DefaultHdfsPolicy(random.Random(SEED)))
    aurora = AuroraSystem(nn, AuroraConfig(
        epsilon=0.1, period=3600.0, replication_budget=400))
    aurora.run_periodic(sim)
    metas = [nn.create_file(f"/f{i}", num_blocks=2) for i in range(20)]
    weights = list(zipf_weights(len(metas), 1.1))
    rng = random.Random(SEED + 2)

    def read_wave():
        if drift and rng.random() < 0.5:
            # Rotate hotness: promote a random cold file to the head.
            index = rng.randrange(len(metas) // 2, len(metas))
            weights.insert(0, weights.pop(index))
        for meta, weight in zip(metas, weights):
            for _ in range(max(1, int(60 * weight))):
                nn.record_access(rng.choice(meta.block_ids),
                                 rng.randrange(topo.num_machines))

    sim.schedule_periodic(600.0, read_wave)
    sim.run(until=periods * 3600.0 + 1.0)
    return aurora


def convergence(claim: Claim) -> None:
    reports = _drive_aurora(drift=False).reports
    ops = [r.search.total_operations if r.search else 0 for r in reports]
    final = reports[-1]
    claim("convergence.stable",
          "stable mix: >= 9 periods; last 3 need <= max(2, first 3) "
          "operations; the last period ends no worse",
          {"ops": ops, "final_cost_before": final.cost_before,
           "final_cost_after": final.cost_after},
          len(reports) >= 9 and sum(ops[-3:]) <= max(2, sum(ops[:3]))
          and final.cost_after <= final.cost_before + 1e-9)
    reports = _drive_aurora(drift=True).reports
    moved = sum(r.replay.blocks_transferred for r in reports)
    replicated = sum(r.replication_increases for r in reports)
    claim("convergence.drift",
          "drifting mix: Aurora keeps working; every period ends no worse",
          {"periods": len(reports), "blocks_moved": moved,
           "replicated": replicated,
           "worst_cost_change": max(r.cost_after - r.cost_before
                                    for r in reports)},
          moved + replicated > 0
          and all(r.cost_after <= r.cost_before + 1e-9 for r in reports))


# -- sensitivity (E16), scale (E14), ablations (E11/E12), extensions (E13) ----

def _knob(rows, key):
    """Rows by knob value, the numbers they yield, and whether every
    setting completed all its jobs."""
    by = {key(row.value): row for row in rows}
    numbers = {
        "remote_fraction": {v: r.remote_fraction for v, r in by.items()},
        "movement": {v: r.movement for v, r in by.items()},
        "replications": {v: r.result.replications_completed
                         for v, r in by.items()},
        "jobs_incomplete": sum(r.result.jobs_submitted
                               - r.result.jobs_completed for r in rows),
    }
    complete = all(r.result.jobs_completed == r.result.jobs_submitted
                   for r in rows)
    return by, numbers, complete


def sensitivity(claim: Claim) -> None:
    trace = default_trace(seed=SEED, duration_hours=2.0)
    by, numbers, complete = _knob(
        run_window_sensitivity(trace, windows_hours=(0.5, 2.0, 4.0)), float)
    default, short = by[2.0], by[0.5]
    claim("sensitivity.window",
          "every W completes all jobs; W 2 h is within 0.05 of W 0.5 h on "
          "locality or within 0.5 on movement",
          numbers,
          complete and (
              default.remote_fraction <= short.remote_fraction + 0.05
              or default.movement <= short.movement + 0.5))
    by, numbers, complete = _knob(
        run_cap_sensitivity(trace, caps=(10, 200, 20_000)), int)
    claim("sensitivity.cap",
          "K 10 replicates <= K 20000; every K completes all jobs",
          numbers,
          by[10].result.replications_completed
          <= by[20_000].result.replications_completed and complete)


def scale(claim: Claim) -> None:
    points = run_scale_study(machines_per_rack_options=(3, 5, 8),
                             duration_hours=2.0)
    machines = [point.num_machines for point in points]
    gains = [point.gain for point in points]
    claim("scale.gain_grows",
          "Aurora's gain over HDFS never drops > 0.01 with size and ends "
          "above its start",
          {"machines": machines, "gain": gains,
           "aurora_remote_fraction": [p.aurora.remote_fraction
                                      for p in points]},
          all(b >= a - 0.01 for a, b in zip(gains, gains[1:]))
          and gains[-1] > gains[0])
    hdfs = [point.hdfs_remote_fraction for point in points]
    claim("scale.hdfs_locality",
          "HDFS remote share, largest >= smallest - 0.05",
          {"machines": machines, "hdfs_remote_fraction": hdfs},
          hdfs[-1] >= hdfs[0] - 0.05)


def ablation(claim: Claim) -> None:
    instance = make_instance(num_blocks=300, seed=5)
    initial = run_initial_placement_ablation(instance)
    claim("ablation.initial_placement",
          "Algorithm 4 starts and converges no costlier than random",
          {"greedy_initial": initial.greedy_initial_cost,
           "random_initial": initial.random_initial_cost,
           "greedy_converged": initial.converged_cost_greedy,
           "random_converged": initial.converged_cost_random},
          initial.greedy_initial_cost <= initial.random_initial_cost
          and initial.converged_cost_greedy
          <= initial.converged_cost_random + 1e-6)
    factors = run_factor_ablation(instance)
    claim("ablation.factors",
          "Algorithm 3's max per-replica popularity <= both Scarlett "
          "heuristics'",
          {"aurora": factors.aurora_max_share,
           "priority": factors.priority_max_share,
           "round_robin": factors.round_robin_max_share},
          factors.aurora_wins()
          and factors.round_robin_max_share >= factors.aurora_max_share)
    report = render_ablations(
        initial, factors, run_epsilon_ablation(instance, epsilons=(0.1, 0.8)))
    sections = {name: name in report for name in ("E10", "E11", "E12")}
    claim("ablation.report", "the ablation report renders E10, E11 and E12",
          sections, all(sections.values()))


def _aurora_namenode(racks, per_rack, capacity, seed, **config):
    topo = ClusterTopology.uniform(racks, per_rack, capacity=capacity)
    nn = Namenode(topo, rng=random.Random(seed),
                  placement_policy=DefaultHdfsPolicy(random.Random(seed)))
    return nn, AuroraSystem(nn, AuroraConfig(**config))


def extensions(claim: Claim) -> None:
    fractions = {}
    for label, probability in (("off", 0.0), ("on", 1.0)):
        nn, _ = _aurora_namenode(3, 4, 200, 0,
                                 replicate_on_read_probability=probability,
                                 replicate_on_read_budget=400)
        metas = [nn.create_file(f"/f{i}", num_blocks=2) for i in range(20)]
        rng = random.Random(1)
        remote = 0
        for _ in range(600):
            block = rng.choice(rng.choice(metas).block_ids)
            reader = rng.randrange(nn.topology.num_machines)
            remote += nn.record_access(block, reader) != reader
        fractions[label] = remote / 600
    claim("extensions.replicate_on_read",
          "replicate-on-read lowers the remote-read fraction",
          fractions, fractions["on"] < fractions["off"])
    trace = default_trace(seed=SEED, duration_hours=2.0)
    medians = {}
    for label, ratio in (("uncompressed", 1.0), ("27x", 27.0)):
        samples = run_experiment(trace, ExperimentConfig(
            system=SystemKind.AURORA, epsilon=0.1, seed=SEED,
            compression_ratio=ratio)).movement_durations
        medians[label] = float(np.median(samples)) if samples else 0.0
    claim("extensions.compression",
          "27x compression cuts the median movement duration > 5x",
          {"median_s": medians},
          medians["27x"] < medians["uncompressed"] / 5)
    nn, aurora = _aurora_namenode(2, 4, 100, 2,
                                  replicate_on_read_probability=1.0,
                                  replicate_on_read_budget=10)
    metas = [nn.create_file(f"/f{i}", num_blocks=1) for i in range(30)]
    rng = random.Random(3)
    for meta in metas:
        for _ in range(3):
            nn.record_access(meta.block_ids[0],
                             rng.randrange(nn.topology.num_machines))
    extras = aurora.replicate_on_read.extra_replicas
    claim("extensions.read_budget",
          "replicate-on-read keeps <= its budget of 10 extra replicas",
          {"extra_replicas": extras, "budget": 10}, extras <= 10)


# -- multitenant (E17), overload, recovery ------------------------------------

def multitenant(claim: Claim) -> None:
    result = run_multitenant_study(duration_hours=1.5)
    regimes = {"unbounded": result.without_quota, "bounded": result.with_quota}
    extras = {k: tenants["noisy"].replicated_blocks
              for k, tenants in regimes.items()}
    claim("multitenant.noisy_capped",
          "the quota holds the noisy tenant to 40 extra replicas, > 5x "
          "below unbounded, and rejects grants",
          {"replicated_blocks": extras,
           "quota_rejections": result.quota_rejections},
          extras["bounded"] <= 40
          and extras["unbounded"] > 5 * extras["bounded"]
          and result.quota_rejections > 0)
    quiet = {k: t["quiet"].remote_fraction for k, t in regimes.items()}
    claim("multitenant.quiet_unharmed",
          "the quota raises the quiet tenant's remote share <= 0.10",
          {"remote_fraction": quiet},
          quiet["bounded"] <= quiet["unbounded"] + 0.10)
    noisy = {k: t["noisy"].remote_fraction for k, t in regimes.items()}
    claim("multitenant.noisy_pays",
          "the capped tenant's remote share does not fall",
          {"remote_fraction": noisy}, noisy["bounded"] >= noisy["unbounded"])


def overload(claim: Claim) -> None:
    # (load multiplier, zipf exponent): one healthy uniform point, then
    # a skewed sweep across the capacity cliff.
    sweep = {(load, zipf_s): run_overload_pair(OverloadStormConfig(
        horizon=300.0, drain=60.0, load_multiplier=load, zipf_s=zipf_s,
        seed=7)) for load, zipf_s in ((0.5, 0.0), (0.8, 1.2), (1.5, 1.2),
                                     (2.5, 1.2))}

    def pair(point, metric):
        protected, unprotected = sweep[point]
        return {"protected": getattr(protected, metric),
                "unprotected": getattr(unprotected, metric)}

    healthy, skew = pair((0.5, 0.0), "availability"), pair((0.8, 1.2),
                                                          "availability")
    shed, attempted = (sweep[(0.5, 0.0)][0].reads_shed,
                       sweep[(0.5, 0.0)][0].reads_attempted)
    claim("overload.free_when_healthy",
          "0.5x uniform: both > 95% within SLO; protection sheds < 1%",
          {"availability": healthy, "shed": shed, "attempted": attempted},
          all(v > 0.95 for v in healthy.values()) and shed < 0.01 * attempted)
    skew_p99 = sweep[(0.8, 1.2)][1].p99_latency
    claim("overload.skew_hotspots",
          "0.8x zipf: protection wins availability; unprotected p99 > 60 s",
          {"availability": skew, "unprotected_p99_s": skew_p99},
          skew["protected"] > skew["unprotected"] and skew_p99 > 60.0)
    over = [point for point in sweep if point[0] > 1.0]
    tails = {point[0]: pair(point, "p99_latency") for point in over}
    claim("overload.tail_bounded",
          "past capacity: protected p99 <= 10 s, unprotected p99 > 60 s",
          {"p99_s": tails},
          all(t["protected"] <= 10.0 and t["unprotected"] > 60.0
              for t in tails.values()))
    served = {point[0]: pair(point, "availability") for point in over}
    claim("overload.availability",
          "past capacity: protection wins availability at every load",
          {"availability": served},
          all(a["protected"] > a["unprotected"] for a in served.values()))
    brownout = pair((2.5, 1.2), "brownout_periods")
    claim("overload.brownout", "2.5x: brownout engages under protection only",
          {"brownout_periods": brownout},
          brownout["protected"] > 0 and brownout["unprotected"] == 0)
    unhealthy = sum(not r.fsck.healthy for p in sweep.values() for r in p)
    claim("overload.fsck", "fsck is healthy after every storm",
          {"storms": 2 * len(sweep), "unhealthy": unhealthy}, unhealthy == 0)


def recovery(claim: Claim) -> None:
    runs = {"unlimited" if throttle is None else throttle: run_chaos(
        ChaosConfig(horizon=3600.0, drain=1800.0, profiles=("crash",),
                    crash_mtbf=1200.0, replication_throttle=throttle,
                    seed=11)) for throttle in (1, 4, None)}
    lost = {t: run.blocks_lost for t, run in runs.items()}
    claim("recovery.no_loss", "no block is lost at any throttle",
          {"blocks_lost": lost}, not any(lost.values()))
    episodes = {t: len(run.recovery_times) for t, run in runs.items()}
    claim("recovery.episodes", "every throttle observes recovery episodes",
          {"episodes": episodes}, all(episodes.values()))
    worst = {t: run.max_recovery_seconds for t, run in runs.items()}
    claim("recovery.bounded",
          "every repair window is in (0 s, 1800 s), inside the drain",
          {"max_s": worst,
           "mean_s": {t: run.mean_recovery_seconds
                      for t, run in runs.items()}},
          all(0.0 < seconds < 1800.0 for seconds in worst.values()))


DRIVERS = (fig3, fig4, fig5, fig6, approximation, epsilon, convergence,
           sensitivity, scale, ablation, extensions, multitenant, overload,
           recovery)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed ledger; "
                             "write nothing")
    args = parser.parse_args(argv)
    # The storms log every fault they inject; the ledger is the output.
    logging.basicConfig(level=logging.ERROR)
    claims = []

    def claim(claim_id, statement, numbers, verdict):
        claims.append({"id": claim_id, "claim": statement,
                       "numbers": canonical(numbers),
                       "verdict": bool(verdict)})

    for driver in DRIVERS:
        started = time.perf_counter()
        driver(claim)
        print(f"{driver.__name__:>13} {time.perf_counter() - started:6.1f} s",
              file=sys.stderr)
    text = json.dumps({"seed": SEED, "float_digits": DIGITS,
                       "claims": claims}, indent=1) + "\n"
    false = [record["id"] for record in claims if not record["verdict"]]
    for claim_id in false:
        print(f"FALSE  {claim_id}")
    if not args.check:
        LEDGER.write_text(text, encoding="utf-8")
        print(f"wrote {len(claims)} claims to {LEDGER}")
        return int(bool(false))
    committed = LEDGER.read_text(encoding="utf-8") if LEDGER.exists() else ""
    if text != committed:
        old = {record["id"]: record
               for record in json.loads(committed or "{}").get("claims", [])}
        for record in claims:
            if old.pop(record["id"], None) != record:
                print(f"DRIFT  {record['id']}")
        for claim_id in old:
            print(f"DRIFT  {claim_id} (no longer produced)")
        print(f"{LEDGER.name} differs from the code: rerun without --check "
              "and commit it if the change is intended")
        return 1
    if false:
        return 1
    print(f"{len(claims)} claims hold and match {LEDGER.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
