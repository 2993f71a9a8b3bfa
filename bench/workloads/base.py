"""What every benchmark workload provides to ``bench/run.py``.

A workload generates its inputs from the seed in ``__init__`` (untimed),
builds the program state in :meth:`Workload.setup` (timed as
``setup_s``), and then serves ``warmups + num_ops`` ops by index.  The
runner times :meth:`Workload.op` alone; :meth:`Workload.prepare` and
:meth:`Workload.check` run between ops, outside every timed interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from bench.spans import Tracer

__all__ = ["Finish", "Workload", "max_over_mean"]


def max_over_mean(values) -> float:
    """Max / mean of a load vector (Aktaş & Soljanin's imbalance ratio)."""
    values = list(values)
    total = float(sum(values))
    if not values or total <= 0.0:
        return 0.0
    return max(values) * len(values) / total


@dataclass
class Finish:
    """Result of a workload's end-of-run verification."""

    ok: bool
    load_imbalance: float
    #: Extra ops found wrong only at the end (e.g. a failed read-back).
    failed_ops: int = 0
    #: Peak RSS of processes the workload started, in MiB.
    child_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)


class Workload:
    """Base class; concrete workloads override everything below."""

    name = ""
    #: Whether timings are scaled by the host-speed calibration.
    normalise = True
    #: Untimed ops run before the timed phase (same stream, first indices).
    warmups = 0
    #: Timed ops.
    num_ops = 0
    #: ``{metric: (kind, span name)}``: normalised time of that span in
    #: the traced run.  ``self``/``total`` = ms per op without/with child
    #: spans, ``percall`` = self ms per call, ``setup`` = seconds outside
    #: the ops.
    span_metrics: Dict[str, Tuple[str, str]] = {}

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (processes, big objects)."""

    def install(self, tracer: Tracer) -> None:
        """Wrap this workload's layer boundaries (traced mode only)."""
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Untimed input preparation right before op ``index``."""

    def op(self, index: int) -> None:
        raise NotImplementedError

    def check(self, index: int) -> bool:
        """Untimed verification of op ``index``'s output."""
        return True

    def begin_timed(self) -> None:
        """Called once between the warm-ups and the first timed op."""

    def finish(self) -> Finish:
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """Program-kept counts and ratios over the timed ops."""
        return {}

    def layer_metrics(self, summary) -> Dict[str, float]:
        """Every per-layer metric this workload can fill in.

        ``summary`` is the traced phase's ``TraceSummary``; its counters
        are already named like the metrics they feed.
        """
        out: Dict[str, float] = {
            metric: summary.metric(kind, span)
            for metric, (kind, span) in self.span_metrics.items()
        }
        out.update(summary.counters)
        out.update(self.counts())
        probed = out.get("core.local_search.pairs_probed", 0)
        pruned = out.get("core.local_search.pairs_pruned", 0)
        if probed + pruned:
            out["core.local_search.prune_ratio"] = pruned / (probed + pruned)
        applied = out.get("core.local_search.ops_applied", 0)
        if applied:
            out["core.local_search.us_per_applied_op"] = (
                1e6 * summary.self_s("core.local_search.solve") / applied
            )
        return out
