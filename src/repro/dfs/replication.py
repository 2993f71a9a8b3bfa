"""Block transfer modelling: the replication pipeline's network cost.

Replicating or migrating a block consumes NIC bandwidth on both endpoints
and crosses the rack fabric when the endpoints sit in different racks.
:class:`TransferService` models a transfer's duration as::

    size / (nic_bandwidth / (1 + concurrent transfers on the busier end))
        * cross_rack_penalty (if racks differ)
        * max endpoint slowdown (gray failures serve slowly)
        / compression_ratio
        * jitter

and either completes it instantly (no simulator attached — placement-only
experiments) or schedules the completion as a simulation event.  Durations
feed the "block movement time" CDF of Figure 6(c), and the compression
knob reproduces the paper's observation that compression can cut movement
traffic dramatically (they cite 27x for Scarlett's workload).

Transfers can also *fail mid-flight*: an installed ``fault_hook`` (see
:class:`repro.faults.injector.FlakyTransferProfile`) or a dead endpoint
turns a transfer into a failure that burns part of its modelled duration
and then fires ``on_failure`` instead of ``on_complete`` — the caller
(namenode) owns retry-on-alternate-source.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.cluster.topology import ClusterTopology
from repro.errors import DfsError
from repro.obs.registry import get_registry
from repro.obs.tracer import TraceContext, get_tracer
from repro.simulation.engine import Simulation

__all__ = ["TransferService", "GIGABIT_PER_SECOND"]

GIGABIT_PER_SECOND = 125_000_000  # bytes/s on a 1 Gb NIC

_REG = get_registry()
_TRACER = get_tracer()
_TRANSFER_FAILURES = _REG.counter(
    "repro_dfs_transfer_failures_total",
    "Block transfers that aborted mid-flight",
)
_WASTED_BYTES = _REG.counter(
    "repro_dfs_transfer_wasted_bytes_total",
    "Bytes burned by transfers that failed before completing",
)
_BYTES_BY_KIND = _REG.counter(
    "repro_dfs_transfer_bytes_total",
    "Bytes moved by completed transfers, by traffic class",
    ["kind"],
)


class TransferService:
    """Executes block transfers with a contention-aware duration model."""

    def __init__(
        self,
        topology: ClusterTopology,
        sim: Optional[Simulation] = None,
        nic_bandwidth: float = GIGABIT_PER_SECOND,
        cross_rack_penalty: float = 2.0,
        compression_ratio: float = 1.0,
        jitter: float = 0.1,
        rng: Optional[random.Random] = None,
    ) -> None:
        if nic_bandwidth <= 0:
            raise DfsError("nic_bandwidth must be positive")
        if cross_rack_penalty < 1.0:
            raise DfsError("cross_rack_penalty must be >= 1")
        if compression_ratio < 1.0:
            raise DfsError("compression_ratio must be >= 1")
        if not 0 <= jitter < 1:
            raise DfsError("jitter must be in [0, 1)")
        self.topology = topology
        self.sim = sim
        self.nic_bandwidth = nic_bandwidth
        self.cross_rack_penalty = cross_rack_penalty
        self.compression_ratio = compression_ratio
        self.jitter = jitter
        self._rng = rng or random.Random(0)
        self._active: Dict[int, int] = {}
        # Seconds each completed transfer took, in completion order.
        self.durations: List[float] = []
        self.bytes_transferred = 0
        # Traffic-class accounting: how many bytes each kind of transfer
        # ("write" pipelines, "replication" repair, "migration" moves)
        # put on the wire — the denominator for "background traffic
        # yielded under client pressure" claims.
        self.bytes_by_kind: Dict[str, int] = {}
        self.transfers_started = 0
        self.transfers_failed = 0
        self.bytes_wasted = 0
        # fn(size, src, dst) -> None for a clean transfer, or the
        # fraction of the modelled duration after which it aborts.
        # Installed by FlakyTransferProfile; None disables fault checks.
        self.fault_hook: Optional[
            Callable[[int, int, int], Optional[float]]
        ] = None
        # fn(node) -> service-rate slowdown (1.0 = healthy); installed
        # by the namenode so gray datanodes stretch transfer times.
        self.node_slowdown: Optional[Callable[[int], float]] = None

    def active_transfers(self, node: int) -> int:
        """Transfers currently in flight touching ``node``."""
        return self._active.get(node, 0)

    def estimate_duration(
        self,
        size: int,
        src: int,
        dst: int,
        compression_ratio: Optional[float] = None,
    ) -> float:
        """Duration of a transfer starting now, given current contention.

        ``compression_ratio`` overrides the service default for this
        transfer — Aurora compresses its movement traffic while ordinary
        write pipelines stay uncompressed.
        """
        ratio = compression_ratio if compression_ratio is not None \
            else self.compression_ratio
        if ratio < 1.0:
            raise DfsError("compression_ratio must be >= 1")
        contention = 1 + max(self.active_transfers(src), self.active_transfers(dst))
        bandwidth = self.nic_bandwidth / contention
        duration = size / bandwidth
        if not self.topology.same_rack(src, dst):
            duration *= self.cross_rack_penalty
        if self.node_slowdown is not None:
            duration *= max(
                1.0, self.node_slowdown(src), self.node_slowdown(dst)
            )
        duration /= ratio
        if self.jitter:
            duration *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return duration

    def transfer(
        self,
        size: int,
        src: int,
        dst: int,
        on_complete: Callable[[], None],
        compression_ratio: Optional[float] = None,
        on_failure: Optional[Callable[..., None]] = None,
        kind: str = "write",
        parent: Optional[TraceContext] = None,
        block_id: Optional[int] = None,
    ) -> float:
        """Start a transfer; ``on_complete`` fires when the bytes land.

        Returns the modelled duration.  Without a simulator the callbacks
        run synchronously (placement-only mode); with one, they are
        scheduled in the simulated future and NIC contention counters
        stay raised until then.

        When the ``fault_hook`` decides this transfer fails mid-flight,
        only a fraction of the duration elapses, the bytes are counted
        as wasted rather than transferred, and ``on_failure`` (when
        given) fires instead of ``on_complete``.  It fires with no
        argument; a transport whose target verifies the bytes in flight
        passes ``"source_corrupt"`` when the target refused them.

        ``parent`` links the transfer into a causal trace across the
        event boundary (re-replication episodes, traced period replays);
        without it the current span stack, if any, provides the link.
        The span is committed immediately — the modelled duration is
        known upfront, so its simulated end is stamped as ``now +
        duration`` rather than waiting for the completion event.

        ``block_id`` names the block moving; the model needs only its
        size, a transport that moves real bytes needs the block.
        """
        if src == dst:
            raise DfsError("transfer endpoints must differ")
        duration = self.estimate_duration(
            size, src, dst, compression_ratio=compression_ratio
        )
        self.transfers_started += 1
        span = None
        if _TRACER.enabled and (
            parent is not None or _TRACER.current_context() is not None
        ):
            span = _TRACER.begin(
                "dfs.transfer",
                sim_time=self.sim.now if self.sim is not None else None,
                parent=parent, size=size, src=src, dst=dst, kind=kind,
            )
        fraction = (
            self.fault_hook(size, src, dst)
            if self.fault_hook is not None else None
        )
        if fraction is not None:
            if not 0 < fraction <= 1:
                raise DfsError("fault fraction must be in (0, 1]")
            return self._fail(
                size, src, dst, duration, fraction, on_failure, span
            )
        if span is not None:
            span.set(outcome="ok", duration=duration)
            _TRACER.finish(
                span,
                end_sim=(
                    self.sim.now + duration if self.sim is not None else None
                ),
            )
        self._land(size, kind, duration)
        if self.sim is None:
            on_complete()
            return duration
        self._hold(src, dst)

        def finish() -> None:
            self._release(src)
            self._release(dst)
            on_complete()

        self.sim.schedule(duration, finish)
        return duration

    def _land(self, size: int, kind: str, duration: float) -> None:
        """Account a completed transfer of ``size`` bytes of ``kind``."""
        self.durations.append(duration)
        self.bytes_transferred += size
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size
        if _REG.enabled:
            _BYTES_BY_KIND.labels(kind=kind).inc(size)

    def _count_failure(self, wasted: int) -> None:
        """Account an aborted transfer that burned ``wasted`` bytes."""
        self.transfers_failed += 1
        self.bytes_wasted += wasted
        if _REG.enabled:
            _TRANSFER_FAILURES.inc()
            _WASTED_BYTES.inc(wasted)

    def _fail(
        self,
        size: int,
        src: int,
        dst: int,
        duration: float,
        fraction: float,
        on_failure: Optional[Callable[[], None]],
        span=None,
    ) -> float:
        """Abort a transfer after ``fraction`` of its duration is wasted."""
        elapsed = duration * fraction
        wasted = int(size * fraction)
        self._count_failure(wasted)
        if span is not None:
            span.set(outcome="failed", wasted_bytes=wasted)
            _TRACER.finish(
                span,
                end_sim=(
                    self.sim.now + elapsed if self.sim is not None else None
                ),
            )
        if self.sim is None:
            if on_failure is not None:
                on_failure()
            return elapsed
        self._hold(src, dst)

        def abort() -> None:
            self._release(src)
            self._release(dst)
            if on_failure is not None:
                on_failure()

        self.sim.schedule(elapsed, abort)
        return elapsed

    def _hold(self, src: int, dst: int) -> None:
        self._active[src] = self._active.get(src, 0) + 1
        self._active[dst] = self._active.get(dst, 0) + 1

    def _release(self, node: int) -> None:
        remaining = self._active.get(node, 0) - 1
        if remaining <= 0:
            self._active.pop(node, None)
        else:
            self._active[node] = remaining
