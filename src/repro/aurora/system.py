"""Aurora: the dynamic block placement and replication framework.

Ties the paper's Section V components together over the DFS simulator:

* **usage monitor** — every namenode read lands in a sliding-window
  :class:`~repro.monitor.usage.UsageMonitor` (window ``W``);
* **block placement controller** — a
  :class:`~repro.dfs.policies.LoadAwarePolicy` (Algorithm 4) wired into
  the namenode, fed a popularity-based machine load metric;
* **placement optimizer** (Algorithm 5) — each period: snapshot window
  popularity, recompute replication factors with Algorithm 3 (capped at
  ``K`` operations, lazy deletion on decreases), then run the
  epsilon-admissible rack-aware local search (Algorithm 2) and replay
  the resulting moves/swaps as block migrations.

The same object exposes :meth:`optimize` for offline single-shot use and
:meth:`run_periodic` to ride a simulation clock.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.aurora.bridge import (
    PlacementSnapshotCache,
    ReplayReport,
    replay_operations,
    snapshot_placement,
)
from repro.aurora.config import AuroraConfig
from repro.core.admissibility import (
    AdmissibilityPolicy,
    AlwaysAdmissible,
    RelativeCostPolicy,
    RelativeGapPolicy,
)
from repro.core.local_search import SearchStats, balance_rack_aware
from repro.core.rep_factor import compute_replication_factors
from repro.dfs.namenode import Namenode
from repro.dfs.policies import LoadAwarePolicy
from repro.monitor.forecast import HistoricalPredictor, PopularityPredictor
from repro.monitor.usage import UsageMonitor
from repro.obs.registry import get_registry
from repro.obs.tracer import trace
from repro.overload.brownout import BrownoutController
from repro.simulation.engine import Simulation

__all__ = ["AuroraSystem", "PeriodReport"]

_DISK_TIEBREAK_WEIGHT = 1e-6

_LOG = logging.getLogger(__name__)

_REG = get_registry()
_PERIODS = _REG.counter(
    "repro_aurora_periods_total",
    "Completed Algorithm 5 reconfiguration periods",
)
_PERIOD_SECONDS = _REG.histogram(
    "repro_aurora_period_seconds",
    "Wall-clock duration of one full reconfiguration period",
)
_PHASE_SECONDS = _REG.histogram(
    "repro_aurora_phase_seconds",
    "Wall-clock duration of one Algorithm 5 phase",
    ["phase"],
)
_COST = _REG.gauge(
    "repro_aurora_cost",
    "Max per-machine load before/after the latest balancing phase",
    ["stage"],
)
_REPLICATION_CHANGES = _REG.counter(
    "repro_aurora_replication_changes_total",
    "Replica-count deltas applied by the replication phase",
    ["direction"],
)
_OP_CAP_SATURATION = _REG.gauge(
    "repro_aurora_op_cap_saturation_ratio",
    "Fraction of the per-period operation cap K the last period used",
)
_ABORTED_PERIODS = _REG.counter(
    "repro_aurora_aborted_replays_total",
    "Periods whose migration replay aborted after losing a target node",
)
_EFFECTIVE_EPSILON = _REG.gauge(
    "repro_aurora_effective_epsilon",
    "Epsilon actually used by the latest period (raised under brownout)",
)


@dataclass
class PeriodReport:
    """What one Algorithm 5 period did.

    ``elapsed_seconds`` is the period's wall-clock duration;
    ``phase_seconds`` breaks it down by phase (``snapshot``,
    ``rep_factor``, ``local_search``, ``replay``).  ``brownout``,
    ``saturation`` and ``effective_epsilon`` record the overload
    decision this period ran under: during brownout epsilon is raised
    to the config's ``brownout_epsilon`` and (when configured) the
    migration replay is deferred entirely.
    """

    time: float
    cost_before: float = 0.0
    cost_after: float = 0.0
    replication_increases: int = 0
    replication_decreases: int = 0
    replication_rejections: int = 0
    search: Optional[SearchStats] = None
    replay: ReplayReport = field(default_factory=ReplayReport)
    elapsed_seconds: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    brownout: bool = False
    saturation: float = 0.0
    effective_epsilon: float = 0.0

    @property
    def aborted(self) -> bool:
        """Whether this period's migration replay aborted mid-way."""
        return self.replay.aborted

    @property
    def deferred_moves(self) -> int:
        """Migrations planned but deferred (brownout move budget)."""
        return self.replay.moves_deferred

    @property
    def improvement(self) -> float:
        """Relative reduction of the max machine load this period."""
        if self.cost_before <= 0:
            return 0.0
        return (self.cost_before - self.cost_after) / self.cost_before

    @property
    def operations_by_kind(self) -> Dict[str, int]:
        """The search phase's applied operations by kind (empty if none)."""
        if self.search is None:
            return {}
        return self.search.operations_by_kind


class AuroraSystem:
    """The Aurora framework bound to one namenode."""

    def __init__(
        self,
        namenode: Namenode,
        config: Optional[AuroraConfig] = None,
        predictor: Optional[PopularityPredictor] = None,
    ) -> None:
        self.namenode = namenode
        self.config = config or AuroraConfig()
        self.predictor = predictor or HistoricalPredictor()
        self.monitor = UsageMonitor(
            window=self.config.window,
            num_buckets=self.config.monitor_buckets,
            exact=self.config.monitor_exact,
        )
        namenode.access_listeners.append(self.monitor.record_access)
        # Incremental placement snapshots: blocks untouched since the
        # previous period reuse their cached BlockSpec/locations.
        self._snapshot_cache = PlacementSnapshotCache()
        namenode.placement_policy = LoadAwarePolicy()
        if self.config.movement_compression > 1.0:
            namenode.movement_compression = self.config.movement_compression
        self._node_load: List[float] = [0.0] * namenode.topology.num_machines
        self.publish_loads()
        # Brownout mode: hysteresis over the cluster saturation signal.
        # The default signal is the namenode's view of its bounded
        # service queues; experiments can inject their own provider
        # (e.g. demand/capacity derived from the usage monitor).
        self.brownout = BrownoutController(
            enter_threshold=self.config.brownout_enter_threshold,
            exit_threshold=self.config.brownout_exit_threshold,
        )
        self.saturation_provider: Optional[Callable[[], float]] = None
        # Optional TimeSeriesRecorder sampled at every period boundary,
        # so untimed runs (no DES periodic event) still get telemetry
        # points exactly where the system reconfigures.
        self.telemetry = None
        self.reports: List[PeriodReport] = []
        self.replicate_on_read = None
        if self.config.replicate_on_read_probability > 0:
            # The paper's future-work extension: adopt DARE's
            # replicate-on-read inside Aurora.
            from repro.baselines.dare import DareConfig, DareSystem

            self.replicate_on_read = DareSystem(
                namenode,
                DareConfig(
                    probability=self.config.replicate_on_read_probability,
                    budget_blocks=self.config.replicate_on_read_budget,
                ),
            )
            namenode.read_listeners.append(
                lambda block, reader, source, _time:
                self.replicate_on_read.on_read(block, reader, source)
            )

    # -- load metric --------------------------------------------------------

    def publish_loads(self) -> None:
        """Install the popularity vector as the namenode's load metric.

        ``namenode.node_load`` then reads popularity load plus a tiny
        disk-usage tie-breaker.  The popularity component is refreshed
        from the monitor each period (:meth:`refresh_loads`); the live
        disk term spreads the placement of brand-new (zero-popularity)
        blocks across equally loaded machines.
        """
        self.namenode.set_load_vector(self._node_load, _DISK_TIEBREAK_WEIGHT)

    def refresh_loads(self, popularities: Dict[int, float]) -> None:
        """Recompute the per-node popularity load vector."""
        loads = [0.0] * self.namenode.topology.num_machines
        blockmap = self.namenode.blockmap
        for block_id, popularity in popularities.items():
            if popularity <= 0 or block_id not in blockmap:
                continue
            locations = blockmap.locations(block_id)
            if not locations:
                continue
            share = popularity / len(locations)
            for node in locations:
                loads[node] += share
        self._node_load = loads
        self.publish_loads()

    def predicted_popularities(self, now: float) -> Dict[int, float]:
        """Per-block popularity estimate for the coming period.

        Feeds the window snapshot into the predictor (the paper found the
        historical value sufficient, so the default predictor returns the
        snapshot unchanged).
        """
        snapshot = {
            block: float(count)
            for block, count in self.monitor.snapshot(now).items()
        }
        self.predictor.observe(snapshot)
        return self.predictor.predict()

    # -- Algorithm 5 -----------------------------------------------------------

    def admissibility_policy(
        self, epsilon: Optional[float] = None
    ) -> AdmissibilityPolicy:
        """The epsilon policy configured for this system.

        ``epsilon`` overrides the configured value — brownout periods
        pass the raised ``brownout_epsilon`` here.
        """
        if epsilon is None:
            epsilon = self.config.epsilon
        if epsilon == 0.0:
            return AlwaysAdmissible()
        if self.config.use_cost_admissibility:
            return RelativeCostPolicy(epsilon)
        return RelativeGapPolicy(epsilon)

    def observe_saturation(self, now: float) -> float:
        """One brownout-controller update from the saturation signal."""
        saturation = (
            self.saturation_provider()
            if self.saturation_provider is not None
            else self.namenode.cluster_saturation()
        )
        self.brownout.update(now, saturation)
        return saturation

    def optimize(self, now: Optional[float] = None) -> PeriodReport:
        """Run one reconfiguration period (Algorithm 5)."""
        now = self.namenode.now if now is None else now
        period_start = time.perf_counter()
        report = PeriodReport(time=now)
        report.saturation = self.observe_saturation(now)
        report.brownout = self.brownout.active
        report.effective_epsilon = (
            self.config.brownout_epsilon if report.brownout
            else self.config.epsilon
        )
        if report.brownout:
            holding = report.saturation < self.config.brownout_enter_threshold
            _LOG.warning(
                "aurora brownout%s: saturation %.2f (enter >= %.2f, "
                "exit <= %.2f); epsilon %.2f -> %.2f, defer_migrations=%s",
                " held by hysteresis" if holding else "",
                report.saturation, self.config.brownout_enter_threshold,
                self.config.brownout_exit_threshold,
                self.config.epsilon, report.effective_epsilon,
                self.config.brownout_defer_migrations,
            )
        with trace("aurora.period", sim_time=now) as span:
            with trace("aurora.snapshot", sim_time=now) as phase:
                phase_start = time.perf_counter()
                popularities = self.predicted_popularities(now)
                self.refresh_loads(popularities)
                phase.set(tracked_blocks=len(popularities))
                report.phase_seconds["snapshot"] = (
                    time.perf_counter() - phase_start
                )
            if self.config.replication_budget is not None:
                with trace("aurora.rep_factor", sim_time=now) as phase:
                    phase_start = time.perf_counter()
                    self._replication_phase(popularities, report)
                    self.refresh_loads(popularities)
                    phase.set(
                        increases=report.replication_increases,
                        decreases=report.replication_decreases,
                    )
                    report.phase_seconds["rep_factor"] = (
                        time.perf_counter() - phase_start
                    )
            self._balancing_phase(popularities, report, now)
            report.elapsed_seconds = time.perf_counter() - period_start
            span.set(
                cost_before=report.cost_before,
                cost_after=report.cost_after,
                migrations_issued=report.replay.moves_issued,
                bytes_transferred=report.replay.bytes_transferred,
                aborted=report.aborted,
                brownout=report.brownout,
            )
        self._flush_period_metrics(report)
        if self.telemetry is not None:
            self.telemetry.sample(now)
        if report.aborted:
            _LOG.warning(
                "aurora period aborted its replay (%s); block map "
                "reconciled, next period will re-plan",
                report.replay.abort_reason,
            )
        _LOG.info(
            "aurora period done sim_time=%.0f cost=%.6g->%.6g k+=%d k-=%d "
            "migrations=%d deferred=%d brownout=%s elapsed=%.4fs",
            now, report.cost_before, report.cost_after,
            report.replication_increases, report.replication_decreases,
            report.replay.moves_issued, report.deferred_moves,
            report.brownout, report.elapsed_seconds,
        )
        self.reports.append(report)
        return report

    def _flush_period_metrics(self, report: PeriodReport) -> None:
        """Publish one period's outcome to the metrics registry."""
        if not _REG.enabled:
            return
        _PERIODS.inc()
        _PERIOD_SECONDS.observe(report.elapsed_seconds)
        for phase, seconds in report.phase_seconds.items():
            _PHASE_SECONDS.labels(phase=phase).observe(seconds)
        _COST.labels(stage="before").set(report.cost_before)
        _COST.labels(stage="after").set(report.cost_after)
        if report.replication_increases:
            _REPLICATION_CHANGES.labels(direction="increase").inc(
                report.replication_increases
            )
        if report.replication_decreases:
            _REPLICATION_CHANGES.labels(direction="decrease").inc(
                report.replication_decreases
            )
        if report.replication_rejections:
            _REPLICATION_CHANGES.labels(direction="rejected").inc(
                report.replication_rejections
            )
        if report.aborted:
            _ABORTED_PERIODS.inc()
        _EFFECTIVE_EPSILON.set(report.effective_epsilon)
        cap = self.config.max_replication_ops
        if cap > 0:
            used = report.replication_increases + report.replication_decreases
            _OP_CAP_SATURATION.set(min(1.0, used / cap))

    def run_periodic(self, sim: Simulation) -> None:
        """Schedule :meth:`optimize` every ``period`` seconds."""
        sim.schedule_periodic(self.config.period, self.optimize)

    def reports_table(self) -> str:
        """All periods as a rendered table (for logs and reports)."""
        from repro.experiments.report import render_period_reports

        return render_period_reports(self.reports)

    def _replication_phase(
        self, popularities: Dict[int, float], report: PeriodReport
    ) -> None:
        """Recompute factors with Algorithm 3 and apply the deltas."""
        blockmap = self.namenode.blockmap
        block_ids = [b for b in blockmap.block_ids()]
        if not block_ids:
            return
        pops = {b: float(popularities.get(b, 0.0)) for b in block_ids}
        mins = {b: self.config.min_replication for b in block_ids}
        current = {
            b: max(blockmap.meta(b).replication_factor,
                   self.config.min_replication)
            for b in block_ids
        }
        budget = self.config.replication_budget
        assert budget is not None
        budget = max(budget, sum(mins.values()))
        result = compute_replication_factors(
            pops,
            mins,
            budget=budget,
            num_machines=self.namenode.topology.num_machines,
            initial_factors=current,
            max_iterations=self.config.max_replication_ops,
        )
        # Apply decreases first so lazy replicas free budget and space
        # before the increases copy data.  Per-block rejections (e.g. a
        # tenant's directory quota) are tolerated: the period continues
        # with the remaining blocks.
        from repro.errors import DfsError

        increases = []
        remaining_ops = self.config.max_replication_ops
        for block_id, target in result.factors.items():
            if target < current[block_id]:
                try:
                    self.namenode.set_replication(block_id, target)
                except DfsError:
                    report.replication_rejections += 1
                    continue
                report.replication_decreases += current[block_id] - target
            elif target > current[block_id]:
                increases.append((block_id, target))
        for block_id, target in increases:
            grant = target - current[block_id]
            if remaining_ops <= 0:
                break
            grant = min(grant, remaining_ops)
            try:
                self.namenode.set_replication(
                    block_id, current[block_id] + grant
                )
            except DfsError:
                report.replication_rejections += 1
                continue
            report.replication_increases += grant
            remaining_ops -= grant

    def _balancing_phase(
        self,
        popularities: Dict[int, float],
        report: PeriodReport,
        now: float = 0.0,
    ) -> None:
        """Epsilon-admissible rack-aware local search + live replay."""
        with trace("aurora.local_search", sim_time=now) as phase:
            phase_start = time.perf_counter()
            state = snapshot_placement(
                self.namenode, popularities, cache=self._snapshot_cache
            )
            report.cost_before = state.cost()
            stats = balance_rack_aware(
                state,
                policy=self.admissibility_policy(report.effective_epsilon),
                max_operations=self.config.max_move_ops,
                log_operations=True,
            )
            report.search = stats
            report.cost_after = stats.final_cost
            phase.set(
                operations=stats.total_operations,
                converged=stats.converged,
                pairs_probed=stats.pairs_probed,
                pairs_pruned=stats.pairs_pruned,
            )
            report.phase_seconds["local_search"] = (
                time.perf_counter() - phase_start
            )
        with trace("aurora.replay", sim_time=now) as phase:
            phase_start = time.perf_counter()
            max_moves = (
                0 if (report.brownout
                      and self.config.brownout_defer_migrations)
                else None
            )
            report.replay = replay_operations(
                self.namenode, stats.operations, max_moves=max_moves
            )
            phase.set(
                issued=report.replay.moves_issued,
                skipped=report.replay.moves_skipped,
                deferred=report.replay.moves_deferred,
            )
            report.phase_seconds["replay"] = time.perf_counter() - phase_start
