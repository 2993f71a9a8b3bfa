"""The client SDK: :class:`~repro.dfs.client.DfsClient` semantics over
real sockets.

A :class:`ServeClient` talks JSON-over-HTTP to one namenode (following
leader redirects when that namenode is a standby) and raw bytes to the
datanode processes.  Reads go through the same failover walk as the
simulated client (:mod:`repro.dfs.readwalk`); this module supplies only
the attempt — a refused connection or a 404 is unreachable, a 503 is a
shed, a checksum mismatch is reported to the namenode as corrupt — and
the wait, a real ``time.sleep``.  Breakers are fed wall-clock time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dfs.readwalk import FailoverReader, Outcome
from repro.errors import DatanodeUnavailableError, DfsError, NoLeaderError
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
    failovers: int = 0
    backoff: float = 0.0
    checksum: int = 0

    @property
    def attempts(self) -> int:
        """Replicas contacted: every failed attempt plus the served one."""
        return self.failovers + 1

    @property
    def size(self) -> int:
        return len(self.data)


class ServeClient(FailoverReader):
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
        super().__init__(
            retry_policy or RetryPolicy(
                max_attempts=6, base_delay=0.1, max_delay=2.0, jitter=0.1
            ),
            rng,
            breakers,
        )
        self.namenode_address = namenode_address
        self.reader = reader
        self.timeout = timeout
        self.max_redirects = max_redirects

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
        """Read one block through the shared failover walk.

        Each pass re-locates the block: between passes the namenode may
        have repaired or re-replicated it.
        """
        addresses: Dict[int, str] = {}

        def passes() -> Iterator[List[int]]:
            while True:
                located = self.locate(block_id).candidates
                addresses.update((loc.node, loc.address) for loc in located)
                yield [loc.node for loc in located]

        def attempt(node: int) -> Tuple[Outcome, int, Any]:
            try:
                status, body, headers = http_call(
                    addresses[node], "GET", f"/blocks/{block_id}",
                    timeout=self.timeout,
                )
            except HttpCallError:
                return Outcome.UNREACHABLE, node, None
            if status == 503:
                return Outcome.SHED, node, None
            if status != 200 or not isinstance(body, bytes):
                return Outcome.UNREACHABLE, node, None
            claimed = int(headers.get("x-repro-checksum", "-1"))
            if payload_checksum(body) == claimed:
                return Outcome.SERVED, node, (body, claimed)
            self._report(
                block_id, "corrupt", {"node": node, "detector": "client"}
            )
            return Outcome.CORRUPT, node, None

        served = self._walk(
            block_id, passes(), attempt, time.monotonic, wait=time.sleep
        )
        self._report(
            block_id, "access",
            {"reader": self.reader, "source": served.node},
        )
        data, checksum = served.detail
        return BlockRead(
            block_id=block_id, data=data, source=served.node,
            address=addresses[served.node], failovers=served.failures,
            backoff=served.waited, checksum=checksum,
        )

    def _report(self, block_id: int, what: str,
                payload: Dict[str, Any]) -> None:
        """POST a read's access or corruption report to the namenode."""
        try:
            self._namenode_call(
                "POST", f"/v1/blocks/{block_id}/{what}", payload
            )
        except (DfsError, HttpCallError):
            pass  # accounting is best-effort

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
