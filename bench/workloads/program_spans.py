"""Span wrappers around the in-process layers' public callables.

One table for every in-process workload: a callable that a workload
never reaches simply records nothing.  Functions imported by name into
the module that calls them (``from x import f``) are wrapped where they
are *bound*, because that is the reference the caller uses.
"""

from __future__ import annotations

import repro.aurora.system as aurora_system
import repro.core.local_search as local_search
import repro.core.rep_factor as rep_factor
from repro.aurora.system import AuroraSystem
from repro.core.placement import PlacementState
from repro.dfs.namenode import Namenode
from repro.monitor.usage import UsageMonitor
from repro.scheduler.capacity import MapReduceScheduler
from repro.simulation.engine import Simulation

from bench.spans import Tracer

__all__ = ["install_program_spans", "SPAN_METRICS"]

#: ``{metric: (kind, span)}`` — see ``Workload.span_metrics``.
SPAN_METRICS = {
    "monitor.usage.record_ms": ("self", "monitor.usage.record"),
    "monitor.usage.snapshot_ms": ("self", "monitor.usage.snapshot"),
    "aurora.bridge.snapshot_ms": ("self", "aurora.bridge.snapshot"),
    "core.placement.build_ms": ("self", "core.placement.build"),
    "core.rep_factor.solve_ms": ("self", "core.rep_factor.solve"),
    "core.local_search.solve_ms": ("self", "core.local_search.solve"),
    "aurora.bridge.replay_ms": ("self", "aurora.bridge.replay"),
    "dfs.namenode.mutate_ms": ("self", "dfs.namenode.mutate"),
    "dfs.namenode.create_file_ms": ("percall", "dfs.namenode.create_file"),
    "simulation.engine.drain_ms": ("total", "simulation.engine.run"),
    "simulation.engine.self_ms": ("self", "simulation.engine.run"),
    "aurora.system.self_ms": ("self", "aurora.system.optimize"),
    "aurora.system.optimize_ms": ("total", "aurora.system.optimize"),
    "scheduler.capacity.submit_ms": ("self", "scheduler.capacity.submit"),
}


def install_program_spans(tracer: Tracer) -> None:
    """Wrap monitor, bridge, core, namenode, engine, scheduler, Aurora."""
    def rep_factor_done(tr: Tracer, result, *_args, **_kwargs) -> None:
        tr.count("core.rep_factor.iterations", result.iterations)

    def search_done(tr: Tracer, stats, *_args, **_kwargs) -> None:
        tr.count("core.local_search.ops_applied", stats.total_operations)
        tr.count("core.local_search.pairs_probed", stats.pairs_probed)
        tr.count("core.local_search.pairs_pruned", stats.pairs_pruned)

    def sim_run(func):
        traced = tracer.traced(func, "simulation.engine.run")

        def run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return traced(sim, *args, **kwargs)
            finally:
                tracer.count(
                    "simulation.engine.events_processed",
                    sim.events_processed - before,
                )

        return run

    tracer.wrap(UsageMonitor, "record_many", "monitor.usage.record")
    tracer.wrap(UsageMonitor, "snapshot", "monitor.usage.snapshot")
    tracer.wrap(aurora_system, "snapshot_placement", "aurora.bridge.snapshot")
    tracer.wrap(PlacementState, "from_assignment", "core.placement.build")
    for module in (aurora_system, rep_factor):
        tracer.wrap(module, "compute_replication_factors",
                    "core.rep_factor.solve", after=rep_factor_done)
    for module in (aurora_system, local_search):
        tracer.wrap(module, "balance_rack_aware",
                    "core.local_search.solve", after=search_done)
    tracer.wrap(aurora_system, "replay_operations", "aurora.bridge.replay")
    tracer.wrap(Namenode, "set_replication", "dfs.namenode.mutate")
    tracer.wrap(Namenode, "move_block", "dfs.namenode.mutate")
    tracer.wrap(Namenode, "create_file", "dfs.namenode.create_file")
    tracer.patch(Simulation, "run", sim_run)
    tracer.wrap(AuroraSystem, "optimize", "aurora.system.optimize")
    tracer.wrap(MapReduceScheduler, "submit_job", "scheduler.capacity.submit")
