"""The client read failover walk, shared by both transports.

Which replica serves a read decides the per-machine load Aurora
balances, so :class:`~repro.dfs.client.DfsClient` and the wire SDK
:class:`~repro.serve.client.ServeClient` route every read through
:meth:`FailoverReader._walk`.  A transport supplies only "try this
candidate" and "wait this long"; the walk owns breaker skips, the
outcome table :data:`RULES` (which counter moves, whether the breaker
records success or failure, whether a backoff is paid), the
:class:`~repro.faults.retry.RetryPolicy` and the exception raised on
exhaustion.  ``docs/fault_tolerance.md`` ("Client read failover")
states the policy in prose.
"""

from __future__ import annotations

import enum
import random
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    NoReturn, Optional, Sequence, Set, Tuple)

from repro.errors import (ChecksumError, DatanodeUnavailableError,
                          OverloadSheddedError)
from repro.faults.retry import RetryPolicy
from repro.obs.registry import get_registry
from repro.overload.breaker import CircuitBreaker

__all__ = ["Outcome", "RULES", "Step", "Served", "FailoverReader"]

_REG = get_registry()
#: The read counters every client keeps, each with its registry series.
_SERIES = {
    "read_failovers": _REG.counter(
        "repro_dfs_read_failovers_total",
        "Read attempts that failed over past a dead or stale replica source",
    ),
    "read_errors": _REG.counter(
        "repro_dfs_read_errors_total",
        "Block reads that exhausted every replica candidate",
    ),
    "reads_shed": _REG.counter(
        "repro_dfs_reads_shed_total",
        "Read attempts shed by a bounded datanode service queue",
    ),
    "breaker_skips": _REG.counter(
        "repro_dfs_breaker_skips_total",
        "Replica candidates skipped because their circuit breaker was open",
    ),
    "checksum_failures": _REG.counter(
        "repro_dfs_integrity_client_checksum_failures_total",
        "Read attempts that detected a corrupt replica and failed over",
    ),
}


class Outcome(enum.Enum):
    """How one read attempt ended; the value is its trace label."""

    SERVED = "served"
    SHED = "shed"
    CORRUPT = "corrupt"
    #: Dead node, refused or reset connection, or stale location.
    UNREACHABLE = "failed"


class _Rule(NamedTuple):
    counter: Optional[str]  # per-attempt counter, besides read_failovers
    breaker_success: bool
    backoff: bool


#: A corrupt read is breaker success: the node answered, its data is the
#: problem.  Shed and corrupt reads fail over at once, since the node
#: answered right away and waiting buys nothing.
RULES: Dict[Outcome, _Rule] = {
    Outcome.SERVED: _Rule(None, True, False),
    Outcome.SHED: _Rule("reads_shed", False, False),
    Outcome.CORRUPT: _Rule("checksum_failures", True, False),
    Outcome.UNREACHABLE: _Rule(None, False, True),
}


class Step(NamedTuple):
    """One candidate the walk handled, for transports that trace:
    ``outcome`` None is a breaker skip, ``began`` the backoff already
    paid when the step began, ``backoff`` the one paid after it."""

    node: int
    outcome: Optional[Outcome]
    answered: int
    detail: Any
    began: float
    backoff: float


class Served(NamedTuple):
    """The end of a walk that served: who, what, and at what cost."""

    node: int
    detail: Any
    tried: Tuple[int, ...]
    failures: int
    waited: float


class FailoverReader:
    """Retry policy, breakers, read counters and the failover walk."""

    def __init__(
        self,
        retry_policy: RetryPolicy,
        rng: Optional[random.Random],
        breakers: Optional[Dict[int, CircuitBreaker]],
    ) -> None:
        self.retry_policy = retry_policy
        self._rng = rng
        self.breakers = breakers
        self.read_failovers = 0
        self.read_errors = 0
        self.reads_shed = 0
        self.breaker_skips = 0
        self.checksum_failures = 0

    def _walk(
        self,
        block_id: int,
        passes: Iterable[Sequence[int]],
        attempt: Callable[[int], Tuple[Outcome, int, Any]],
        clock: Callable[[], float],
        wait: Optional[Callable[[float], None]] = None,
        observe: Optional[Callable[[Step], None]] = None,
    ) -> Served:
        """Try candidate nodes until one serves, or raise.

        ``attempt(node)`` returns the outcome, the node that answered (a
        hedge may answer for another) and a transport detail.  After a
        pass of failures the walk asks ``passes`` for the next one; it
        stops when the retry policy no longer admits an attempt or a
        pass attempts nothing.
        """
        tried: List[int] = []
        seen: Set[Outcome] = set()
        failures, waited = 0, 0.0
        for candidates in passes:
            attempted = False
            for node in candidates:
                breaker = self._breaker(node)
                if breaker is not None and not breaker.allow(clock()):
                    self._count("breaker_skips")
                    if observe is not None:
                        observe(Step(node, None, node, None, waited, 0.0))
                    continue
                attempted = True
                tried.append(node)
                outcome, answered, detail = attempt(node)
                if answered != node:
                    tried.append(answered)
                rule = RULES[outcome]
                self._record(answered, rule.breaker_success, clock())
                began, delay, admitted = waited, 0.0, True
                if outcome is not Outcome.SERVED:
                    seen.add(outcome)
                    if rule.counter is not None:
                        self._count(rule.counter)
                    self._count("read_failovers")
                    failures += 1
                    admitted = self.retry_policy.admits(failures, waited)
                    if admitted and rule.backoff:
                        delay = self.retry_policy.delay(failures, self._rng)
                        if wait is not None:
                            wait(delay)
                        waited += delay
                if observe is not None:
                    observe(Step(node, outcome, answered, detail,
                                 began, delay))
                if outcome is Outcome.SERVED:
                    return Served(answered, detail, tuple(tried),
                                  failures, waited)
                if not admitted:
                    self._exhausted(block_id, tried, seen)
            if not attempted:
                break
        self._exhausted(block_id, tried, seen)

    def _breaker(self, node: int) -> Optional[CircuitBreaker]:
        return self.breakers.get(node) if self.breakers else None

    def _record(self, node: int, success: bool, now: float) -> None:
        """Feed one outcome to ``node``'s breaker, if it has one."""
        breaker = self._breaker(node)
        if breaker is not None:
            if success:
                breaker.record_success(now)
            else:
                breaker.record_failure(now)

    def _count(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        if _REG.enabled:
            _SERIES[name].inc()

    def _exhausted(
        self, block_id: int, tried: List[int], seen: Set[Outcome]
    ) -> NoReturn:
        """Count the failed read and raise what it earned: corruption
        over sheds over unreachable replicas."""
        self._count("read_errors")
        if Outcome.CORRUPT in seen:
            error, why = ChecksumError, "no replica served verified data"
        elif Outcome.SHED in seen:
            error = OverloadSheddedError
            why = "every replica shed or failed the read"
        else:
            error, why = DatanodeUnavailableError, "no replica served the read"
        raise error(
            f"block {block_id}: {why} (tried {tried or 'no candidates'})"
        )
