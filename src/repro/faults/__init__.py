"""Fault injection and retry primitives.

The paper's premise is that placement must survive node and ToR-switch
failures.  This package supplies the outages and the recovery dynamics
around them:

* :mod:`repro.faults.retry` — a reusable :class:`RetryPolicy`
  (exponential backoff + jitter, deadline, max attempts) shared by the
  DFS client, the namenode's transfer retries and anything else that
  needs bounded, deterministic persistence;
* :mod:`repro.faults.injector` — a composable :class:`FaultInjector`
  that arms crash, gray/slow-node, rack-partition, flaky-transfer and
  heartbeat message-loss profiles on a live simulation from one seed;
  its ``plan()`` is also the seeded outage schedule (exponential MTBF,
  fixed repair time) for callers that replay it by hand.

Everything is driven by injected :class:`random.Random` instances so a
chaos run replays identically for a given seed.
"""

from repro.faults.injector import (
    BitRotProfile,
    CrashProfile,
    FaultEvent,
    FaultInjector,
    FaultProfile,
    FlakyTransferProfile,
    GrayNodeProfile,
    LeaderKillProfile,
    MessageLossProfile,
    PartitionProfile,
    TornWriteProfile,
    profile_from_name,
)
from repro.faults.retry import RetryPolicy, call_with_retries

__all__ = [
    "RetryPolicy",
    "call_with_retries",
    "FaultInjector",
    "FaultEvent",
    "FaultProfile",
    "CrashProfile",
    "GrayNodeProfile",
    "PartitionProfile",
    "FlakyTransferProfile",
    "MessageLossProfile",
    "LeaderKillProfile",
    "BitRotProfile",
    "TornWriteProfile",
    "profile_from_name",
]
