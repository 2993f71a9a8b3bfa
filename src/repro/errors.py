"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` et al.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidProblemError",
    "InvalidTopologyError",
    "InfeasibleOperationError",
    "CapacityExceededError",
    "ReplicaConstraintError",
    "UnknownBlockError",
    "UnknownMachineError",
    "SimulationError",
    "DfsError",
    "BlockNotFoundError",
    "FileNotFoundInDfsError",
    "FileExistsInDfsError",
    "DatanodeUnavailableError",
    "ChecksumError",
    "SafeModeError",
    "FencedError",
    "EditLogCorruptError",
    "NoLeaderError",
    "QuotaExceededError",
    "SchedulerError",
    "TraceFormatError",
    "MetricsError",
    "FaultConfigError",
    "RetryExhaustedError",
    "OverloadConfigError",
    "OverloadSheddedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidProblemError(ReproError):
    """A placement problem instance violates its own preconditions."""


class InvalidTopologyError(ReproError):
    """A cluster topology description is malformed."""


class InfeasibleOperationError(ReproError):
    """A local-search operation was applied in a state where it is illegal."""


class CapacityExceededError(InfeasibleOperationError):
    """Placing a replica would exceed the machine's block capacity."""


class ReplicaConstraintError(InfeasibleOperationError):
    """An operation would violate a replica-count or rack-spread constraint."""


class UnknownBlockError(ReproError):
    """A block id is not part of the problem instance or file system."""


class UnknownMachineError(ReproError):
    """A machine id is not part of the cluster topology."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class DfsError(ReproError):
    """Base class for errors raised by the HDFS-like simulator."""


class BlockNotFoundError(DfsError):
    """The requested block does not exist in the namespace."""


class FileNotFoundInDfsError(DfsError):
    """The requested file path does not exist in the namespace."""


class FileExistsInDfsError(DfsError):
    """A file is being created over an existing path."""


class DatanodeUnavailableError(DfsError):
    """No live datanode can serve the request."""


class ChecksumError(DatanodeUnavailableError):
    """No replica could serve *verified* data (checksum mismatches).

    Raised by the client when every replica candidate either failed or
    held corrupt bytes — corrupt data is never silently returned.
    Subclasses :class:`DatanodeUnavailableError` so availability
    accounting treats an all-corrupt block as an unavailable one.
    """


class SafeModeError(DfsError):
    """The namenode is in safe mode; mutations are rejected."""


class FencedError(SafeModeError):
    """A deposed leader rejected a write (its term was superseded).

    Subclasses :class:`SafeModeError` so callers that already treat
    safe-mode rejections as "metadata plane temporarily unwritable"
    handle fencing the same way.
    """


class EditLogCorruptError(DfsError):
    """A persisted edit log is corrupt beyond its trailing line."""


class NoLeaderError(DfsError):
    """No namenode replica currently holds a valid leadership lease."""


class QuotaExceededError(DfsError):
    """The operation would exceed a directory quota."""


class SchedulerError(ReproError):
    """The task scheduler reached an inconsistent state."""


class TraceFormatError(ReproError):
    """A workload trace file or record is malformed."""


class MetricsError(ReproError):
    """Misuse of the observability layer (labels, names, buckets)."""


class FaultConfigError(ReproError):
    """A fault profile or retry policy is misconfigured."""


class RetryExhaustedError(ReproError):
    """An operation failed on every attempt a retry policy allowed."""


class OverloadConfigError(ReproError):
    """An overload-protection component is misconfigured or misused."""


class OverloadSheddedError(DatanodeUnavailableError):
    """Every replica candidate shed the read (cluster-wide overload).

    Subclasses :class:`DatanodeUnavailableError` so existing failover
    and availability accounting treat a shed read as an unavailable one.
    """
