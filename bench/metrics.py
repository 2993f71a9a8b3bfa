"""The benchmark's metric catalogue: names, units and directions.

``BENCHMARK.json`` lists exactly these (``bench/tests/test_schema.py``
keeps the two in step).  Every run prints every metric of its mode, so
a per-layer metric of a layer a workload never enters reads 0.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS", "WORKLOADS", "contract"]

#: ``--seconds`` the acceptance driver passes to every run.
RUN_SECONDS = 15

#: ``{name: why this workload exists}`` (one line each).
WORKLOADS: Dict[str, str] = {
    "period_paper": (
        "Algorithm 5 period at paper scale (13x65 machines) on a warm "
        "namenode: namenode mutations, state build, solver, Alg 3, bridge "
        "and monitor"
    ),
    "solve_10k": (
        "cold full-state solver period on repro.core alone at 10k machines: "
        "state build and cluster-size-bound extremes dominate, dfs/monitor idle"
    ),
    "sweep_fig3": (
        "Figure 3 sweep (HDFS, Aurora eps 0.1/0.3) through run_experiment: "
        "DES engine, scheduler and namenode read path dominate"
    ),
    "serve_read": (
        "Zipf block reads over sockets: locate, fetch and access report are "
        "three connections and JSON round trips per op; writes idle"
    ),
    "serve_write": (
        "two-block file writes over sockets: namenode create plus pipeline "
        "PUT with a forward hop; the read path idles"
    ),
}

#: ``(name, unit, better, bound)``
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.20),
    ("ops_per_s", "op/s", "higher", 0.20),
    ("load_imbalance", "ratio", "lower", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

_MS = ("ms", "lower")

#: ``(name, unit, better)``
PER_LAYER: List[Tuple[str, str, str]] = [
    # Normalised self time per op (span minus child spans).
    ("monitor.usage.record_ms", *_MS),
    ("monitor.usage.snapshot_ms", *_MS),
    ("aurora.bridge.snapshot_ms", *_MS),
    ("aurora.bridge.replay_ms", *_MS),
    ("aurora.system.self_ms", *_MS),
    ("aurora.system.optimize_ms", *_MS),
    ("core.placement.build_ms", *_MS),
    ("core.rep_factor.solve_ms", *_MS),
    ("core.local_search.solve_ms", *_MS),
    ("core.local_search.us_per_applied_op", "us", "lower"),
    ("dfs.namenode.mutate_ms", *_MS),
    ("dfs.namenode.create_file_ms", *_MS),
    ("simulation.engine.drain_ms", *_MS),
    ("simulation.engine.self_ms", *_MS),
    ("scheduler.capacity.submit_ms", *_MS),
    ("experiments.harness.hdfs_case_ms", *_MS),
    ("experiments.harness.aurora_case_ms", *_MS),
    ("serve.client.locate_ms", *_MS),
    ("serve.client.fetch_ms", *_MS),
    ("serve.client.report_ms", *_MS),
    ("serve.client.verify_ms", *_MS),
    ("serve.client.create_ms", *_MS),
    ("serve.client.push_ms", *_MS),
    ("serve.client.self_ms", *_MS),
    ("serve.namenode_service.cpu_ms_per_op", *_MS),
    ("serve.datanode_service.cpu_ms_per_op", *_MS),
    ("serve.supervisor.boot_s", "s", "lower"),
    # Counts: exact for a seed on the in-process workloads.
    ("core.local_search.ops_applied", "count", "higher"),
    ("core.local_search.pairs_probed", "count", "lower"),
    ("core.local_search.pairs_pruned", "count", "higher"),
    ("core.local_search.prune_ratio", "ratio", "higher"),
    ("core.local_search.cost_after", "load", "lower"),
    ("core.rep_factor.iterations", "count", "lower"),
    ("core.placement.state_mb", "MB", "lower"),
    ("aurora.bridge.moves_issued", "count", "lower"),
    ("dfs.replication.bytes_moved", "B", "lower"),
    ("monitor.usage.accesses_recorded", "count", "higher"),
    ("simulation.engine.events_processed", "count", "lower"),
    ("simulation.engine.events_per_s", "1/s", "higher"),
    ("scheduler.capacity.tasks_launched", "count", "higher"),
    ("scheduler.capacity.remote_task_share", "ratio", "lower"),
    ("experiments.harness.tasks_per_s", "1/s", "higher"),
    ("serve.httpd.connects_per_op", "count", "lower"),
    ("serve.httpd.calls_per_op", "count", "lower"),
    ("serve.wire.bytes_sent_per_op", "B", "lower"),
    ("serve.wire.bytes_received_per_op", "B", "lower"),
    ("serve.client.failovers", "count", "lower"),
    ("serve.client.read_errors", "count", "lower"),
    # The benchmark's own bookkeeping.
    ("bench.raw_op_p50_ms", *_MS),
    ("bench.raw_ops_per_s", "op/s", "higher"),
    ("bench.raw_setup_s", "s", "lower"),
    ("bench.op_tail_ms", *_MS),
    ("bench.op_tail_pct", "%", "higher"),
    ("bench.op_samples", "count", "higher"),
    ("bench.host_calib_ms", *_MS),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.op_self_ms", *_MS),
    ("bench.layer_coverage_ratio", "ratio", "higher"),
]


def contract() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":  # python3 bench/metrics.py > BENCHMARK.json
    print(json.dumps(contract(), indent=2))
