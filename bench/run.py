#!/usr/bin/env python3
"""The repo benchmark: one command, one workload, one seed.

    python3 bench/run.py --workload period_paper --seed 1 --seconds 15 --trace 0

prints every end-to-end metric by name with its unit and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 1`` runs half the ops untraced and the same half again with
spans recorded around each layer's public callables, prints every
per-layer metric instead and writes the spans to ``.bench_out/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Run as a script from any directory: make ``bench`` and the program
# under ``src/`` importable before importing either.
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from bench.calib import Calibrator, factor, run_sliced, tail  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from bench.spans import OP_SPAN, Tracer, TraceSummary  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _timed_setup(workload, calibrator) -> Tuple[float, float]:
    """Run ``workload.setup()``; returns ``(raw seconds, factor)``."""
    gc.collect()
    before = calibrator.sample()
    start = time.perf_counter()
    workload.setup()
    raw = time.perf_counter() - start
    after = calibrator.sample()
    return raw, factor(before, after) if workload.normalise else 1.0


def _run_phase(workload, calibrator, tracer=None):
    """Warm up, then time every op in calibrated slices.

    Returns ``(TimedPhase, failed op count)``.  An op that raises or
    whose output check fails counts as failed; the run goes on.
    """
    raised: List[int] = []

    def guarded(index: int) -> None:
        try:
            workload.op(index)
        except Exception:  # an op must not end the run; it is reported
            traceback.print_exc()
            raised.append(index)

    for index in range(workload.warmups):
        workload.prepare(index)
        guarded(index)
        workload.check(index)
    workload.begin_timed()
    gc.collect()

    def ops() -> Iterator[Callable[[], None]]:
        for number in range(workload.num_ops):
            index = workload.warmups + number
            workload.prepare(index)
            if tracer is None:
                yield lambda: guarded(index)
            else:
                yield lambda: tracer.run_op(number, lambda: guarded(index))

    failed = [0]

    def between(number: int) -> None:
        index = workload.warmups + number
        ok = workload.check(index) if index not in raised else False
        if not ok:
            failed[0] += 1

    phase = run_sliced(
        ops(), calibrator, between=between, normalise=workload.normalise
    )
    return phase, failed[0]


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(cls, seed: int, seconds: float, smoke: bool):
    """The end-to-end run: returns ``(metrics, attempted, failed, correct)``."""
    calibrator = Calibrator()
    calibrator.sample()
    setups: List[Tuple[float, float]] = []
    workload = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
        workload = cls(seed, seconds, smoke)
        setups.append(_timed_setup(workload, calibrator))
    try:
        phase, failed = _run_phase(workload, calibrator)
        finish = workload.finish()
    finally:
        workload.teardown()
    failed += finish.failed_ops
    for problem in finish.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    latencies = phase.normalised_latencies()
    metrics = {
        "setup_s": statistics.median(raw * f for raw, f in setups),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "ops_per_s": phase.ops / phase.normalised_elapsed,
        "load_imbalance": finish.load_imbalance,
        "peak_rss_mb": _self_rss_mb() + finish.child_rss_mb,
    }
    print(f"# ops timed: {phase.ops} in {len(phase.slices)} slices")
    print("# detail " + json.dumps({
        "raw_op_p50_ms": 1000.0 * statistics.median(phase.raw_latencies()),
        "raw_ops_per_s": phase.ops / phase.raw_elapsed,
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
        "host_calib_ms": calibrator.median_ms(),
    }))
    return metrics, phase.ops, failed, finish.ok and failed == 0


def run_traced(cls, seed: int, seconds: float, smoke: bool,
               trace_out: Path):
    """The per-layer run: half the ops untraced, the same half traced."""
    calibrator = Calibrator()
    calibrator.sample()
    plain = cls(seed, seconds / 2.0, smoke)
    raw_setup, _ = _timed_setup(plain, calibrator)
    try:
        plain_phase, plain_failed = _run_phase(plain, calibrator)
        plain_finish = plain.finish()
    finally:
        plain.teardown()

    tracer = Tracer()
    traced = cls(seed, seconds / 2.0, smoke)
    traced.install(tracer)
    try:
        _, setup_factor = _timed_setup(traced, calibrator)
        try:
            phase, failed = _run_phase(traced, calibrator, tracer)
            finish = traced.finish()
        finally:
            traced.teardown()
    finally:
        tracer.uninstall()

    summary = TraceSummary(
        tracer, phase.op_factors(), setup_factor, phase.normalised_elapsed
    )
    metrics: Dict[str, float] = traced.layer_metrics(summary)
    op_total = summary.total_s(OP_SPAN)
    layer_self = sum(
        summary.self_s(name) for name in summary.totals if name != OP_SPAN
    )
    percentile, tail_value = tail(plain_phase.normalised_latencies())
    raw = plain_phase.raw_latencies()
    metrics.update({
        "bench.raw_op_p50_ms": 1000.0 * statistics.median(raw),
        "bench.raw_ops_per_s": plain_phase.ops / plain_phase.raw_elapsed,
        "bench.raw_setup_s": raw_setup,
        "bench.op_tail_ms": 1000.0 * tail_value,
        "bench.op_tail_pct": percentile,
        "bench.op_samples": plain_phase.ops,
        "bench.host_calib_ms": calibrator.median_ms(),
        "bench.trace_overhead_ratio": (
            phase.normalised_elapsed / plain_phase.normalised_elapsed
        ),
        "bench.op_self_ms": 1000.0 * summary.self_s(OP_SPAN) / summary.ops,
        "bench.layer_coverage_ratio": (
            layer_self / op_total if op_total > 0 else 0.0
        ),
    })
    tracer.dump(trace_out, {
        "workload": cls.name, "seed": seed, "ops": phase.ops,
        "op_factors": phase.op_factors(), "setup_factor": setup_factor,
    })
    print(f"# spans: {len(tracer.spans)} written to {trace_out}")
    failed += plain_failed + finish.failed_ops + plain_finish.failed_ops
    for problem in plain_finish.problems + finish.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = plain_finish.ok and finish.ok and failed == 0
    return metrics, plain_phase.ops + phase.ops, failed, correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="nominal length of the timed phase; each "
                             "workload derives a fixed op count from it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (<3 s per workload) for CI")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"bench/run.py: no program to measure under {ROOT / 'src'}"
        )
    from bench.workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    # The program logs recoverable events (a requeued replication) at
    # WARNING; they are not failures and would drown the metric lines.
    logging.getLogger("repro").setLevel(logging.ERROR)
    # The supervisor's announce files go through ``tempfile``: keep them
    # inside the checkout like everything else the benchmark writes.
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT_DIR / "tmp")

    if args.trace:
        trace_out = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        metrics, attempted, failed, correct = run_traced(
            cls, args.seed, args.seconds, args.smoke, trace_out
        )
        catalogue = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        metrics, attempted, failed, correct = run_untraced(
            cls, args.seed, args.seconds, args.smoke
        )
        catalogue = [(name, unit) for name, unit, _, _ in END_TO_END]

    unknown = set(metrics) - {name for name, _ in catalogue}
    if unknown:
        raise SystemExit(f"metrics missing from bench/metrics.py: {unknown}")
    document = {}
    for name, unit in catalogue:
        value = float(metrics.get(name, 0.0))
        document[name] = {"value": value, "unit": unit}
        print(f"{name:42s} {value:16.6f} {unit}")
    print(f"# ops attempted {attempted}, failed {failed}, "
          f"outputs {'correct' if correct else 'WRONG'}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed), "metrics": document,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
