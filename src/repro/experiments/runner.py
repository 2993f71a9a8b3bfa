"""Process-pool parallel trial runner for experiment sweeps.

Every figure and sweep in :mod:`repro.experiments` reduces to running
:func:`~repro.experiments.harness.run_experiment` over a list of
independent *cases* — (system kind, epsilon, seed) combinations that
share nothing at runtime.  :func:`run_trials` fans such a case list out
to worker processes and returns the :class:`RunResult` list in input
order.

Determinism contract: ``run_experiment`` derives every random stream
from ``config.seed``, so a case's result is a pure function of
``(trace, config)``.  Workers therefore produce results identical to a
sequential loop over the same cases — the parallel/sequential equality
is pinned by ``tests/experiments/test_runner.py``.

Observability: each worker resets its own process-global metrics
registry before its case, runs, and ships the registry snapshot back
with the result; the parent folds the snapshots into its registry with
:meth:`~repro.obs.registry.MetricsRegistry.merge`, in case order.  A
merged parent registry thus holds the same counter/histogram totals a
sequential run would have produced (gauges hold the last case's value,
matching sequential last-write-wins).

Worker processes are forked where the platform allows it (fork is the
cheap path: no re-import, inherited registry enablement); on
fork-less platforms the enablement flag travels with each case.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidProblemError
from repro.experiments.harness import (
    ExperimentConfig,
    RunResult,
    run_experiment,
)
from repro.obs.registry import get_registry
from repro.workload.trace import WorkloadTrace

__all__ = ["TrialCase", "run_trials"]

_LOG = logging.getLogger(__name__)

_REG = get_registry()
_CASES = _REG.counter(
    "repro_runner_cases_total",
    "Experiment cases executed by the trial runner, by execution mode",
    ["mode"],
)


@dataclass(frozen=True)
class TrialCase:
    """One independent experiment case: a trace plus a full config.

    ``label`` is free-form — sweeps use it to map results back to the
    parameter that produced them (it does not influence the run).
    """

    label: str
    trace: WorkloadTrace
    config: ExperimentConfig


def _run_case(payload: Tuple[TrialCase, bool]) -> Tuple[RunResult, Optional[Dict[str, dict]]]:
    """Worker entry: run one case inside a fresh-registry process.

    Returns the run result plus the worker registry's snapshot (None
    when metrics are off, so nothing is pickled back needlessly).
    """
    case, metrics = payload
    registry = get_registry()
    if metrics:
        registry.enable()
        registry.reset()
        result = run_experiment(case.trace, case.config)
        return result, registry.snapshot()
    registry.disable()
    result = run_experiment(case.trace, case.config)
    return result, None


def _pool_context() -> multiprocessing.context.BaseContext:
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_trials(
    cases: Sequence[TrialCase], jobs: int = 1
) -> List[RunResult]:
    """Run every case; results come back in input order.

    ``jobs`` is the worker-process count.  ``jobs=1`` (the default)
    runs sequentially in-process — no pool, no pickling, metrics land
    directly in the parent registry.  With ``jobs > 1`` the cases fan
    out to a process pool capped at ``min(jobs, len(cases))`` workers
    and the parent merges each worker's metrics snapshot in case order.
    """
    if jobs < 1:
        raise InvalidProblemError("jobs must be >= 1")
    if jobs == 1 or len(cases) <= 1:
        results = []
        for case in cases:
            if _REG.enabled:
                _CASES.labels(mode="sequential").inc()
            results.append(run_experiment(case.trace, case.config))
        return results
    registry = get_registry()
    payload = [(case, registry.enabled) for case in cases]
    workers = min(jobs, len(cases))
    _LOG.info(
        "running %d cases on %d worker processes", len(cases), workers
    )
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context()
    ) as pool:
        outcomes = list(pool.map(_run_case, payload))
    results = []
    for result, snapshot in outcomes:
        if snapshot is not None:
            registry.merge(snapshot)
        if registry.enabled:
            _CASES.labels(mode="parallel").inc()
        results.append(result)
    return results
