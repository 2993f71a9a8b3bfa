"""The transport-agnostic DFS surface both deployment modes implement.

:class:`DfsBackend` is the contract extracted from what experiments and
tools actually call: create a file from block payloads, read blocks back
(verified), delete, list, retarget replication, fsck, status.  Two
implementations exist:

* :class:`SimBackend` — wraps the in-process
  :class:`~repro.dfs.namenode.Namenode` + :class:`~repro.dfs.client.DfsClient`
  pair (the discrete-event path every experiment uses), carrying real
  payload bytes alongside the simulated metadata so reads round-trip
  content exactly like the network does;
* :class:`~repro.serve.client.ServeClient` — the SDK speaking
  JSON-over-HTTP to a live :mod:`repro.serve` cluster.

Code written against the protocol (and its conformance test) runs
unchanged on either; the error surface is shared too — both raise
:class:`~repro.errors.DfsError` subclasses, with the wire codec in
:mod:`repro.serve.wire` guaranteeing class fidelity across the socket.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.dfs.client import DfsClient
from repro.dfs.fsck import run_fsck
from repro.dfs.namenode import Namenode
from repro.errors import BlockNotFoundError, DfsError
from repro.serve.client import BlockRead
from repro.serve.wire import (
    BlockInfo,
    FileInfo,
    ReplicaLocation,
    payload_checksum,
)

__all__ = ["DfsBackend", "SimBackend"]


@runtime_checkable
class DfsBackend(Protocol):
    """What a DFS looks like to code that doesn't care where it runs."""

    def write_file(
        self,
        path: str,
        blocks: Sequence[bytes],
        replication: Optional[int] = None,
        rack_spread: Optional[int] = None,
    ) -> FileInfo:
        """Create ``path`` from one payload per block."""
        ...

    def read_block(self, block_id: int) -> BlockRead:
        """Read one block with failover; bytes are checksum-verified."""
        ...

    def read_file(self, path: str) -> List[BlockRead]:
        ...

    def delete_file(self, path: str) -> None:
        ...

    def list_files(self) -> List[str]:
        ...

    def lookup(self, path: str) -> FileInfo:
        ...

    def set_replication(self, path: str, factor: int) -> None:
        ...

    def fsck(self, verify: bool = False) -> Dict[str, Any]:
        ...

    def status(self) -> Dict[str, Any]:
        ...


class SimBackend:
    """The in-process pair behind the :class:`DfsBackend` surface.

    Payload bytes live in a side table keyed by block id — the simulated
    data plane moves sizes, not content, so the backend carries the
    content itself and hands it back on reads, letting protocol-level
    tests assert byte equality identically against both backends.
    """

    def __init__(
        self,
        namenode: Namenode,
        client: Optional[DfsClient] = None,
        reader: int = 0,
    ) -> None:
        self.namenode = namenode
        self.client = client or DfsClient(namenode)
        self.reader = reader
        self._contents: Dict[int, bytes] = {}

    # -- protocol ----------------------------------------------------------

    def write_file(
        self,
        path: str,
        blocks: Sequence[bytes],
        replication: Optional[int] = None,
        rack_spread: Optional[int] = None,
    ) -> FileInfo:
        if not blocks:
            raise DfsError("a file needs at least one block")
        block_size = max(len(data) for data in blocks) or 1
        meta = self.client.write_file(
            path,
            num_blocks=len(blocks),
            block_size=block_size,
            writer=self.reader,
            replication=replication,
            rack_spread=rack_spread,
        )
        for block_id, data in zip(meta.block_ids, blocks):
            self._contents[block_id] = bytes(data)
        return self._file_info(path)

    def read_block(self, block_id: int) -> BlockRead:
        data = self._contents.get(block_id)
        if data is None:
            raise BlockNotFoundError(f"unknown block {block_id}")
        result = self.client.read_block(block_id, self.reader)
        return BlockRead(
            block_id=block_id,
            data=data,
            source=result.source,
            address=f"sim://{result.source}",
            failovers=result.failovers,
            backoff=result.backoff,
            checksum=payload_checksum(data),
        )

    def read_file(self, path: str) -> List[BlockRead]:
        return [
            self.read_block(block_id)
            for block_id in self.namenode.file(path).block_ids
        ]

    def delete_file(self, path: str) -> None:
        block_ids = self.namenode.file(path).block_ids
        self.namenode.delete_file(path)
        for block_id in block_ids:
            self._contents.pop(block_id, None)

    def list_files(self) -> List[str]:
        return self.namenode.list_files()

    def lookup(self, path: str) -> FileInfo:
        return self._file_info(path)

    def set_replication(self, path: str, factor: int) -> None:
        for block_id in self.namenode.file(path).block_ids:
            self.namenode.set_replication(block_id, factor)

    def fsck(self, verify: bool = False) -> Dict[str, Any]:
        return run_fsck(
            self.namenode, verify_checksums=verify
        ).to_dict()

    def status(self) -> Dict[str, Any]:
        nn = self.namenode
        return {
            "files": len(nn.list_files()),
            "blocks": nn.blockmap.num_blocks,
            "live_datanodes": sorted(nn.live_nodes()),
            "safe_mode": nn.safe_mode,
            "under_replicated": len(
                nn.blockmap.under_replicated(nn.live_nodes())
            ),
            "replications_completed": nn.replications_completed,
        }

    # -- helpers -----------------------------------------------------------

    def _file_info(self, path: str) -> FileInfo:
        nn = self.namenode
        meta = nn.file(path)
        blocks = []
        for block_id in meta.block_ids:
            block_meta = nn.blockmap.meta(block_id)
            blocks.append(BlockInfo(
                block_id=block_id,
                size=block_meta.size,
                locations=[
                    ReplicaLocation(node=node, address=f"sim://{node}")
                    for node in sorted(nn.verified_locations(block_id))
                ],
            ))
        return FileInfo(
            path=meta.path,
            file_id=meta.file_id,
            block_size=meta.block_size,
            blocks=blocks,
        )
