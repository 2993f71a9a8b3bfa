"""The client SDK: :class:`~repro.dfs.client.DfsClient` semantics over
real sockets.

A :class:`ServeClient` talks JSON-over-HTTP to one namenode (following
leader redirects when that namenode is a standby) and raw bytes to the
datanode processes.  The read path is a port of the simulated client's
failover walk, so chaos behaves identically on the wire:

* candidates come from the namenode in its ``replica_preference`` order
  and are walked in order, skipping nodes whose circuit breaker is open;
* a dead node (connection refused / reset / timeout) and a stale
  location (404) cost a backoff before the next attempt;
* an overload shed (503) and a corrupt read (checksum mismatch) fail
  over *without* backoff — the node answered instantly, just not
  usefully;
* every served read is verified against the shipped checksum; a
  mismatch is reported to the namenode (which quarantines the replica
  and schedules repair) and never returned to the caller;
* when one pass over the candidates is exhausted but the retry policy
  still admits, the SDK re-fetches locations — re-replication may have
  minted a fresh replica in the meantime;
* exhaustion raises the same exceptions as the in-process client:
  :class:`ChecksumError` when corruption was detected and never
  bypassed, :class:`OverloadSheddedError` when at least one replica
  shed and none served, :class:`DatanodeUnavailableError` otherwise.

Backoffs are real ``time.sleep`` waits driven by the same
:class:`~repro.faults.retry.RetryPolicy`; breakers are the same
:class:`~repro.overload.breaker.CircuitBreaker` objects, fed wall-clock
time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ChecksumError,
    DatanodeUnavailableError,
    DfsError,
    NoLeaderError,
    OverloadSheddedError,
)
from repro.faults.retry import RetryPolicy
from repro.overload.breaker import CircuitBreaker
from repro.serve.httpd import HttpCallError, http_call
from repro.serve.wire import (
    CreateFileRequest,
    FileInfo,
    LocateResponse,
    ReplicaLocation,
    ScrubSummary,
    decode_error,
    payload_checksum,
)

__all__ = ["ServeClient", "BlockRead"]


@dataclass
class BlockRead:
    """One successful over-the-wire block read."""

    block_id: int
    data: bytes
    source: int
    address: str
    attempts: int = 1
    failovers: int = 0
    backoff: float = 0.0
    checksum: int = 0

    @property
    def size(self) -> int:
        return len(self.data)


@dataclass
class _Walk:
    """Accounting for one read's failover walk."""

    tried: List[Tuple[int, str]] = field(default_factory=list)
    failures: int = 0
    waited: float = 0.0
    shed_any: bool = False
    corrupt_any: bool = False


class ServeClient:
    """Synchronous SDK for the networked Aurora service."""

    def __init__(
        self,
        namenode_address: str,
        reader: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        breakers: Optional[Dict[int, CircuitBreaker]] = None,
        timeout: float = 10.0,
        max_redirects: int = 4,
    ) -> None:
        self.namenode_address = namenode_address
        self.reader = reader
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=6, base_delay=0.1, max_delay=2.0, jitter=0.1
        )
        self._rng = rng
        self.breakers = breakers
        self.timeout = timeout
        self.max_redirects = max_redirects
        # Mirrors of the in-process client's counters: failovers and
        # sheds per failed attempt, errors per exhausted read.
        self.read_failovers = 0
        self.read_errors = 0
        self.reads_shed = 0
        self.breaker_skips = 0
        self.checksum_failures = 0

    # -- namenode RPC ------------------------------------------------------

    def _namenode_call(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One metadata call, following leader redirects."""
        address = self.namenode_address
        for _hop in range(self.max_redirects + 1):
            status, body, headers = http_call(
                address, method, path, payload, timeout=self.timeout
            )
            if status == 307:
                leader = None
                if isinstance(body, dict):
                    leader = body.get("leader")
                if not leader:
                    location = headers.get("location", "")
                    leader = location.removeprefix("http://") or None
                if not leader:
                    raise NoLeaderError(
                        f"{address} redirected without naming a leader"
                    )
                address = leader
                continue
            if status >= 400:
                if isinstance(body, dict) and "error" in body:
                    raise decode_error(body)
                raise DfsError(f"{method} {path}: HTTP {status}")
            if not isinstance(body, dict):
                raise DfsError(f"{method} {path}: non-JSON response")
            return body
        raise NoLeaderError(
            f"gave up after {self.max_redirects} leader redirects"
        )

    # -- write path --------------------------------------------------------

    def write_file(
        self,
        path: str,
        blocks: Sequence[bytes],
        replication: Optional[int] = None,
        rack_spread: Optional[int] = None,
    ) -> FileInfo:
        """Create ``path`` and push every block through the write
        pipeline: bytes go to the first allocated replica, which
        forwards them hop-by-hop to the rest."""
        if not blocks:
            raise DfsError("a file needs at least one block")
        block_size = max(len(data) for data in blocks) or 1
        info = FileInfo.from_wire(self._namenode_call(
            "POST", "/v1/files",
            CreateFileRequest(
                path=path, num_blocks=len(blocks), block_size=block_size,
                replication=replication, rack_spread=rack_spread,
                writer=self.reader,
            ).to_wire(),
        ))
        for block, data in zip(info.blocks, blocks):
            self._push_block(block.block_id, block.locations, data)
        return info

    def _push_block(
        self,
        block_id: int,
        locations: Sequence[ReplicaLocation],
        data: bytes,
    ) -> None:
        if not locations:
            raise DatanodeUnavailableError(
                f"block {block_id} has no allocated replicas"
            )
        last_error: Optional[Exception] = None
        for head in range(len(locations)):
            primary = locations[head]
            pipeline = [
                loc.address for loc in locations if loc is not primary
            ]
            query = "?generation=0"
            if pipeline:
                query += f"&pipeline={','.join(pipeline)}"
            try:
                status, body, _ = http_call(
                    primary.address, "PUT",
                    f"/blocks/{block_id}{query}", data,
                    timeout=self.timeout,
                )
            except HttpCallError as exc:
                last_error = exc
                continue
            if status == 200 and isinstance(body, dict) and body.get("ok"):
                return
            last_error = DfsError(
                f"write of block {block_id} to {primary.address} "
                f"failed (HTTP {status})"
            )
        raise DatanodeUnavailableError(
            f"could not push block {block_id} to any allocated replica: "
            f"{last_error}"
        )

    # -- read path ---------------------------------------------------------

    def locate(self, block_id: int) -> LocateResponse:
        return LocateResponse.from_wire(self._namenode_call(
            "GET", f"/v1/blocks/{block_id}/locations?reader={self.reader}"
        ))

    def read_block(self, block_id: int) -> BlockRead:
        """Read one block, failing over across replicas as needed."""
        policy = self.retry_policy
        walk = _Walk()
        while True:
            candidates = [
                loc for loc in self.locate(block_id).candidates
                if (loc.node, loc.address) not in walk.tried
            ]
            made_progress = False
            for candidate in candidates:
                if not policy.admits(walk.failures, walk.waited):
                    break
                breaker = (self.breakers or {}).get(candidate.node)
                if breaker is not None and not breaker.allow(
                    time.monotonic()
                ):
                    self.breaker_skips += 1
                    continue
                made_progress = True
                result = self._attempt(block_id, candidate, walk)
                if result is not None:
                    result.failovers = walk.failures
                    result.attempts = walk.failures + 1
                    result.backoff = walk.waited
                    return result
            if not made_progress or not policy.admits(
                walk.failures, walk.waited
            ):
                break
            # One full pass failed but the policy still admits: the
            # namenode may have repaired or re-replicated by now, so
            # re-fetch locations and keep walking.
            walk.tried.clear()
        self.read_errors += 1
        if walk.corrupt_any:
            raise ChecksumError(
                f"no replica of block {block_id} served verified data"
            )
        if walk.shed_any:
            raise OverloadSheddedError(
                f"every replica of block {block_id} shed the read"
            )
        raise DatanodeUnavailableError(
            f"no replica of block {block_id} is reachable "
            f"({walk.failures} failures)"
        )

    def _attempt(
        self,
        block_id: int,
        candidate: ReplicaLocation,
        walk: _Walk,
    ) -> Optional[BlockRead]:
        """One read attempt; None means failed over (walk updated)."""
        walk.tried.append((candidate.node, candidate.address))
        breaker = (self.breakers or {}).get(candidate.node)
        backoff = True
        try:
            status, body, headers = http_call(
                candidate.address, "GET", f"/blocks/{block_id}",
                timeout=self.timeout,
            )
        except HttpCallError:
            status, body, headers = -1, b"", {}
        if status == 200 and isinstance(body, bytes):
            claimed = int(headers.get("x-repro-checksum", "-1"))
            if payload_checksum(body) == claimed:
                if breaker is not None:
                    breaker.record_success(time.monotonic())
                self._report_access(block_id, candidate.node)
                return BlockRead(
                    block_id=block_id, data=body, source=candidate.node,
                    address=candidate.address, checksum=claimed,
                )
            # Corrupt bytes: report (namenode quarantines + repairs),
            # fail over immediately — the node answered fast, the next
            # replica is the fix, waiting buys nothing.
            self.checksum_failures += 1
            walk.corrupt_any = True
            backoff = False
            self._report_corrupt(block_id, candidate.node)
        elif status == 503:
            walk.shed_any = True
            self.reads_shed += 1
            backoff = False
        if breaker is not None:
            breaker.record_failure(time.monotonic())
        walk.failures += 1
        self.read_failovers += 1
        if backoff and self.retry_policy.admits(walk.failures, walk.waited):
            delay = self.retry_policy.delay(walk.failures, self._rng)
            time.sleep(delay)
            walk.waited += delay
        return None

    def _report_access(self, block_id: int, source: int) -> None:
        try:
            self._namenode_call(
                "POST", f"/v1/blocks/{block_id}/access",
                {"reader": self.reader, "source": source},
            )
        except (DfsError, HttpCallError):
            pass  # accounting is best-effort

    def _report_corrupt(self, block_id: int, node: int) -> None:
        try:
            self._namenode_call(
                "POST", f"/v1/blocks/{block_id}/corrupt",
                {"node": node, "detector": "client"},
            )
        except (DfsError, HttpCallError):
            pass

    # -- namespace / admin -------------------------------------------------

    def lookup(self, path: str) -> FileInfo:
        from urllib.parse import quote

        return FileInfo.from_wire(self._namenode_call(
            "GET", f"/v1/files?path={quote(path, safe='')}"
        ))

    def read_file(self, path: str) -> List[BlockRead]:
        return [
            self.read_block(block.block_id)
            for block in self.lookup(path).blocks
        ]

    def delete_file(self, path: str) -> None:
        from urllib.parse import quote

        self._namenode_call(
            "DELETE", f"/v1/files?path={quote(path, safe='')}"
        )

    def list_files(self) -> List[str]:
        return list(self._namenode_call("GET", "/v1/files")["paths"])

    def set_replication(self, path: str, factor: int) -> None:
        self._namenode_call(
            "POST", "/v1/files/replication",
            {"path": path, "factor": factor},
        )

    def fsck(self, verify: bool = False) -> Dict[str, Any]:
        suffix = "?verify=1" if verify else ""
        return self._namenode_call("GET", f"/v1/fsck{suffix}")

    def scrub(self) -> ScrubSummary:
        return ScrubSummary.from_wire(
            self._namenode_call("POST", "/v1/scrub")
        )

    def status(self) -> Dict[str, Any]:
        return self._namenode_call("GET", "/v1/status")

    def healthz(self) -> Dict[str, Any]:
        return self._namenode_call("GET", "/healthz")
