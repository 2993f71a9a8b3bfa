"""DFS client: the application-facing read/write interface.

"Each application creates a HDFS client to access the file system."  The
client wraps the namenode protocol: writes ask the namenode for targets
and stream the blocks; reads walk the namenode's replica preference
order and classify the resulting access by network distance (node-local
/ rack-local / remote), which is exactly the signal the locality
experiments measure.

Reads are fault tolerant: the namenode's metadata can be *stale* (a
replica holder can crash between heartbeats), so the client discovers a
dead or stale source by trying it and fails over to the next replica in
preference order.  The failover policy (breaker skips, backoff, which
outcome counts what) is the walk in :mod:`repro.dfs.readwalk`, shared
with the wire SDK; the full attempt trail is recorded on the
:class:`ReadResult`.  With the :mod:`repro.overload` wiring installed,
a replica's bounded queue can shed the read, and hedged reads fire a
second request at the next-best replica when the chosen one's projected
latency exceeds a budget; the faster response wins.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dfs.block import DEFAULT_MAX_BLOCK_SIZE, FileMeta
from repro.dfs.datanode import Datanode
from repro.dfs.namenode import Namenode
from repro.dfs.readwalk import FailoverReader, Outcome, Step
from repro.faults.retry import RetryPolicy
from repro.obs.registry import get_registry
from repro.obs.tracer import get_tracer
from repro.obs.tracing import TraceSampler
from repro.overload.breaker import BreakerState, CircuitBreaker
from repro.overload.queueing import Priority

__all__ = ["Locality", "ReadResult", "DfsClient"]

_REG = get_registry()
_TRACER = get_tracer()
_HEDGED = _REG.counter(
    "repro_dfs_hedged_reads_total",
    "Reads that fired a hedge request at a second replica",
)
_HEDGE_WINS = _REG.counter(
    "repro_dfs_hedge_wins_total",
    "Hedged reads where the second replica answered first",
)
# End-to-end simulated read latency: queue wait+service of the serving
# replica plus every backoff paid failing over to it.
_READ_LATENCY = _REG.histogram(
    "repro_dfs_read_latency_seconds",
    "Simulated end-to-end block read latency (service + failover backoff)",
    buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0,
             10.0, 30.0, 60.0, 120.0),
)


class Locality(enum.Enum):
    """Network distance of a block read."""

    NODE_LOCAL = "node-local"
    RACK_LOCAL = "rack-local"
    REMOTE = "remote"


@dataclass(frozen=True)
class ReadResult:
    """Outcome of reading one block.

    ``attempts`` is the trail of nodes the client contacted in order —
    the last entry is the node that served the read, every earlier one a
    replica that turned out dead, stale, or shedding.  ``backoff`` is
    the total simulated wait the retry policy imposed between attempts.
    ``latency`` is the serving queue's wait-plus-service time (0 when
    the node has no bounded queue installed), ``hedged`` marks reads
    that fired a second request at another replica, and ``failovers``
    counts the failed attempts before the serving one (a hedge that won
    is in ``attempts`` but is no failover).
    """

    block_id: int
    source: int
    locality: Locality
    attempts: Tuple[int, ...] = field(default=())
    backoff: float = 0.0
    latency: float = 0.0
    hedged: bool = False
    failovers: int = 0

    @property
    def is_local(self) -> bool:
        """Whether the read avoided the network entirely."""
        return self.locality is Locality.NODE_LOCAL

    @property
    def failed_over(self) -> bool:
        """Whether the first-choice replica did not serve the read."""
        return len(self.attempts) > 1


class DfsClient(FailoverReader):
    """Thin client over a :class:`~repro.dfs.namenode.Namenode`."""

    def __init__(
        self,
        namenode: Namenode,
        retry_policy: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        breakers: Optional[Dict[int, CircuitBreaker]] = None,
        hedge_latency_budget: Optional[float] = None,
        trace_sampler: Optional[TraceSampler] = None,
    ) -> None:
        # Bounds the failover walk; with no rng the backoff is
        # jitter-free, so failover behaviour is fully deterministic.
        # Per-node circuit breakers (see OverloadProtection.breakers())
        # default to off.
        super().__init__(
            retry_policy or RetryPolicy(
                max_attempts=4, base_delay=0.5, max_delay=5.0, jitter=0.1
            ),
            rng,
            breakers,
        )
        self.namenode = namenode
        # Head-based causal tracing: when set (and the tracer is on), a
        # sampled fraction of reads record a "dfs.read" span tree.
        self.trace_sampler = trace_sampler
        # The hedged-read latency budget; None turns hedging off.
        self.hedge_latency_budget = hedge_latency_budget
        self.hedged_reads = 0
        self.hedge_wins = 0

    def write_file(
        self,
        path: str,
        num_blocks: int,
        block_size: int = DEFAULT_MAX_BLOCK_SIZE,
        writer: Optional[int] = None,
        replication: Optional[int] = None,
        rack_spread: Optional[int] = None,
    ) -> FileMeta:
        """Create a file of ``num_blocks`` blocks through the namenode."""
        return self.namenode.create_file(
            path,
            num_blocks,
            block_size=block_size,
            writer=writer,
            replication=replication,
            rack_spread=rack_spread,
        )

    def read_block(self, block_id: int, reader: int) -> ReadResult:
        """Read one block, failing over across replicas as needed.

        Walks :meth:`~repro.dfs.namenode.Namenode.replica_preference`
        (which reflects the namenode's possibly stale belief) once
        through the shared walk of :mod:`repro.dfs.readwalk`, which also
        names the exceptions raised.  Every served read is
        checksum-verified: a mismatch is reported to the namenode and
        never returned to the caller.

        Sampled requests (``trace_sampler``) record a causal "dfs.read"
        span with one "dfs.read.attempt" child per replica contacted.
        """
        sampler = self.trace_sampler
        if (sampler is None or not _TRACER.enabled
                or not sampler.sample()):
            return self._read_block(block_id, reader, None)
        start = self.namenode.now
        with _TRACER.trace("dfs.read", sim_time=start,
                           block=block_id, reader=reader) as span:
            result = self._read_block(block_id, reader, span)
            span.set(
                source=result.source, locality=result.locality.value,
                attempts=len(result.attempts), hedged=result.hedged,
            )
            # The request's simulated latency: serving queue time plus
            # every backoff paid along the failover walk.
            span.end_sim = start + result.latency + result.backoff
            return result

    def _read_block(self, block_id: int, reader: int,
                    span) -> ReadResult:
        """One pass of the shared walk; ``span`` is the sampled root."""
        now = self.namenode.now
        candidates = list(self.namenode.replica_preference(block_id, reader))

        def attempt(node: int) -> Tuple[Outcome, int, Any]:
            dn = self.namenode.datanode(node)
            if not (dn.alive and dn.holds(block_id)):
                return Outcome.UNREACHABLE, node, None
            alternates = candidates[candidates.index(node) + 1:]
            served = self._serve(dn, block_id, now, alternates)
            if served is None:
                return Outcome.SHED, node, None
            serving, latency, hedged = served
            if self.namenode.datanode(serving).verify_replica(block_id):
                return Outcome.SERVED, serving, (latency, hedged)
            # Never surface corrupt bytes: report them for repair.
            self.namenode.report_corrupt_replica(
                block_id, serving, detector="client"
            )
            return Outcome.CORRUPT, serving, (latency, hedged)

        observe = None if span is None else partial(_trace_step, span, now)
        served = self._walk(
            block_id, [candidates], attempt, lambda: now, observe=observe
        )
        latency, hedged = served.detail
        source = self.namenode.record_access(
            block_id, reader, source=served.node
        )
        if _REG.enabled:
            _READ_LATENCY.observe(latency + served.waited)
        return ReadResult(
            block_id=block_id,
            source=source,
            locality=self._classify(reader, source),
            attempts=served.tried,
            backoff=served.waited,
            latency=latency,
            hedged=hedged,
            failovers=served.failures,
        )

    def _serve(
        self,
        dn: Datanode,
        block_id: int,
        now: float,
        alternates: Sequence[int],
    ) -> Optional[Tuple[int, float, bool]]:
        """Offer the read to ``dn``'s queue, hedging when it looks slow.

        Returns ``(serving_node, latency, hedged)``, or ``None`` when the
        queue shed the request.  Nodes without a bounded queue serve
        instantly (the pre-overload behaviour).
        """
        queue = dn.service_queue
        if queue is None:
            return dn.node_id, 0.0, False
        latency = queue.offer(now, Priority.CLIENT_READ)
        if latency is None:
            return None
        budget = self.hedge_latency_budget
        if budget is None or latency <= budget:
            return dn.node_id, latency, False
        alt = self._hedge_candidate(block_id, now, latency, alternates)
        if alt is None:
            return dn.node_id, latency, False
        # Fire the hedge: the second request really consumes capacity on
        # the alternate (both queues do the work; the faster one wins).
        self.hedged_reads += 1
        if _REG.enabled:
            _HEDGED.inc()
        alt_latency = alt.service_queue.offer(now, Priority.CLIENT_READ)
        if alt_latency is not None and alt_latency < latency:
            self.hedge_wins += 1
            if _REG.enabled:
                _HEDGE_WINS.inc()
            # The losing primary still served (slowly) — its breaker
            # must observe that outcome.  The caller only records the
            # *winner*, and the primary's ``allow()`` may have consumed
            # a half-open probe that would otherwise never resolve,
            # leaving the breaker stuck open.
            self._record(dn.node_id, True, now)
            return alt.node_id, alt_latency, True
        # A shed hedge is a real failure signal for the alternate's
        # breaker; one that served but lost the race is still a success.
        self._record(alt.node_id, alt_latency is not None, now)
        return dn.node_id, latency, True

    def _hedge_candidate(
        self,
        block_id: int,
        now: float,
        latency: float,
        alternates: Sequence[int],
    ) -> Optional[Datanode]:
        """The next-best replica worth hedging to, if any.

        Walks past dead, stale, and breaker-open nodes; stops at the
        first servable alternate and hedges only when its *projected*
        latency beats the primary's (a hedge guaranteed to lose is pure
        added load).  Hedges never probe half-open breakers — probing is
        the primary read path's job.
        """
        for node in alternates:
            breaker = self._breaker(node)
            if (breaker is not None
                    and breaker.state(now) is not BreakerState.CLOSED):
                continue
            dn = self.namenode.datanode(node)
            if not (dn.alive and dn.holds(block_id)):
                continue
            if dn.service_queue is None:
                return None  # unqueued alternate would always "win"
            if dn.service_queue.estimate(now) < latency:
                return dn
            return None  # the next-best is no faster; deeper ones rank worse
        return None

    def read_file(self, path: str, reader: int) -> List[ReadResult]:
        """Read every block of ``path`` from ``reader``'s machine."""
        meta = self.namenode.file(path)
        return [self.read_block(block_id, reader) for block_id in meta.block_ids]

    def delete_file(self, path: str) -> None:
        """Remove ``path`` and all its block replicas."""
        self.namenode.delete_file(path)

    def set_replication(self, path: str, factor: int) -> None:
        """Set the replication factor of every block of ``path``.

        This is the public HDFS API the paper notes "must be done
        manually by the operator" without Aurora.
        """
        for block_id in self.namenode.file(path).block_ids:
            self.namenode.set_replication(block_id, factor)

    def _classify(self, reader: int, source: int) -> Locality:
        if reader == source:
            return Locality.NODE_LOCAL
        if self.namenode.topology.same_rack(reader, source):
            return Locality.RACK_LOCAL
        return Locality.REMOTE


def _trace_step(span, now: float, step: Step) -> None:
    """Record one walk step as a "dfs.read.attempt" child of ``span``.

    Sim time stands still during the synchronous walk, but the modeled
    request timeline does not: a step is anchored at ``now`` plus every
    backoff already paid, so the steps tile inside the root span (whose
    duration is latency + total backoff).  A failed attempt spans its
    backoff, a served or corrupt one its queue latency.
    """
    began = now + step.began
    end = began + step.backoff
    outcome = step.outcome
    fields: Dict[str, Any] = {
        "outcome": "breaker_open" if outcome is None else outcome.value,
    }
    if outcome is Outcome.SERVED or outcome is Outcome.CORRUPT:
        latency, hedged = step.detail
        fields["served_by"] = step.answered
        if outcome is Outcome.SERVED:
            fields.update(latency=latency, hedged=hedged)
        end = began + latency
    elif outcome is Outcome.UNREACHABLE:
        fields["backoff"] = step.backoff
    _TRACER.finish(_TRACER.begin(
        "dfs.read.attempt", sim_time=began, parent=span.context,
        node=step.node, **fields,
    ), end_sim=end)
