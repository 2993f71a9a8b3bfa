"""One run's telemetry: recorder + tracer + SLOs, saved as a directory.

:class:`TelemetrySession` is the wiring harness experiments use to turn
on the full pipeline for one run: it enables the registry and tracer,
installs a :class:`~repro.obs.timeseries.TimeSeriesRecorder` on the
simulation clock, hands out a seeded
:class:`~repro.obs.tracing.TraceSampler` for the client, accumulates
:class:`~repro.obs.slo.SloObjective` declarations, and finally writes
everything to a **telemetry directory**::

    telemetry/
      meta.json         run label, seed, sim span, config echo
      timeseries.json   every sampled series (TimeSeriesRecorder.to_dict)
      slo.json          evaluated SloStatus list
      spans.json        the tracer's retained spans (causal, trace_id'd)
      snapshot.json     final metrics snapshot (registry + spans)

``repro report`` and ``repro traces`` consume this layout via
:class:`TelemetryBundle`, which also rehydrates series and traces for
the regression gate in ``repro.obs.gate``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import MetricsError
from repro.obs import exporters
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.slo import SloEngine, SloObjective, SloStatus
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.tracer import Tracer, get_tracer
from repro.obs.tracing import Trace, TraceSampler, assemble_traces

__all__ = ["TelemetrySession", "TelemetryBundle"]

_FILES = ("meta.json", "timeseries.json", "slo.json", "spans.json",
          "snapshot.json")


class TelemetrySession:
    """Telemetry wiring for one instrumented run.

    ``interval`` is the sim-clock sampling cadence; ``trace_sample_rate``
    the fraction of client requests that get a causal trace;
    ``tracer_capacity`` resizes the span ring buffer for the run (request
    traces are chattier than the default 1024 spans expect).
    """

    def __init__(
        self,
        label: str = "run",
        interval: float = 10.0,
        retention: int = 4096,
        trace_sample_rate: float = 0.05,
        tracer_capacity: int = 8192,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.label = label
        self.seed = seed
        self.trace_sample_rate = trace_sample_rate
        self.registry = registry or get_registry()
        self.tracer = tracer or get_tracer()
        self.registry.enable()
        self.tracer.enable()
        if self.tracer.capacity < tracer_capacity:
            self.tracer.resize(tracer_capacity)
        self.recorder = TimeSeriesRecorder(
            self.registry, interval=interval, retention=retention
        )
        self.slo = SloEngine(self.recorder)
        self.meta: Dict[str, Any] = {}
        self._statuses: Optional[List[SloStatus]] = None
        # The spans and registry as :meth:`finish` left them.
        self._final: Optional[Dict[str, Any]] = None

    # -- wiring --------------------------------------------------------------

    def install(self, sim) -> None:
        """Start periodic sampling on the simulation clock.

        Zeros the registry and drops retained spans first: the session
        measures *this* run, and counters carried over from an earlier
        run in the same process would pollute the first window's deltas.
        """
        self.registry.reset()
        self.tracer.clear()
        self.recorder.install(sim)

    def sampler(self, salt: int = 0) -> TraceSampler:
        """A seeded trace sampler for one client."""
        return TraceSampler(
            self.trace_sample_rate, random.Random(self.seed * 7919 + salt)
        )

    def add_objective(self, objective: SloObjective) -> SloObjective:
        """Register an SLO to evaluate at the end of the run."""
        return self.slo.add(objective)

    # -- results -------------------------------------------------------------

    def finish(self, sim_time: float) -> List[SloStatus]:
        """Take the final sample and evaluate every objective.

        Also keeps the run's spans and registry snapshot as they stand,
        so :meth:`write` records this run even after a later session's
        :meth:`install` has cleared the shared registry and tracer.
        """
        self.recorder.sample(sim_time)
        self._statuses = self.slo.evaluate()
        self._final = self._live()
        return self._statuses

    def _live(self) -> Dict[str, Any]:
        return {
            "spans_recorded": self.tracer.recorded,
            "spans.json": self.tracer.as_dicts(),
            "snapshot.json": exporters.snapshot_dict(
                self.registry, self.tracer
            ),
        }

    @property
    def statuses(self) -> List[SloStatus]:
        """Evaluated SLO statuses (empty before :meth:`finish`)."""
        return self._statuses or []

    def traces(self) -> List[Trace]:
        """Assembled causal traces from the tracer buffer, slowest first."""
        return assemble_traces(tracer=self.tracer)

    # -- persistence ---------------------------------------------------------

    def write(self, directory: Path) -> Path:
        """Dump the run's telemetry into ``directory``; returns it."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if self._statuses is None:
            self._statuses = self.slo.evaluate()
        final = self._final or self._live()
        start, end = self.recorder.span()
        meta = {
            "label": self.label,
            "seed": self.seed,
            "sim_start": start,
            "sim_end": end,
            "trace_sample_rate": self.trace_sample_rate,
            "samples_taken": self.recorder.samples_taken,
            "spans_recorded": final["spans_recorded"],
        }
        meta.update(self.meta)
        payloads = {
            "meta.json": meta,
            "timeseries.json": self.recorder.to_dict(),
            "slo.json": [status.to_dict() for status in self._statuses],
            "spans.json": final["spans.json"],
            "snapshot.json": final["snapshot.json"],
        }
        for name, payload in payloads.items():
            (directory / name).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return directory


class TelemetryBundle:
    """A telemetry directory loaded back for reporting and gating."""

    def __init__(
        self,
        meta: Dict[str, Any],
        recorder: TimeSeriesRecorder,
        statuses: List[SloStatus],
        spans: List[Dict[str, Any]],
        snapshot: Dict[str, Any],
    ) -> None:
        self.meta = meta
        self.recorder = recorder
        self.statuses = statuses
        self.spans = spans
        self.snapshot = snapshot

    @staticmethod
    def load(directory: Path) -> "TelemetryBundle":
        """Read a directory written by :meth:`TelemetrySession.write`."""
        directory = Path(directory)
        missing = [
            name for name in _FILES if not (directory / name).exists()
        ]
        if missing:
            raise MetricsError(
                f"{directory} is not a telemetry directory "
                f"(missing {', '.join(missing)})"
            )

        def read(name: str) -> Any:
            return json.loads(
                (directory / name).read_text(encoding="utf-8")
            )

        return TelemetryBundle(
            meta=read("meta.json"),
            recorder=TimeSeriesRecorder.from_dict(read("timeseries.json")),
            statuses=[SloStatus.from_dict(s) for s in read("slo.json")],
            spans=read("spans.json"),
            snapshot=read("snapshot.json"),
        )

    def traces(self) -> List[Trace]:
        """Assembled causal traces, slowest first."""
        return assemble_traces(self.spans)
