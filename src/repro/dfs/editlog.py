"""Namenode edit log: metadata durability and crash recovery.

Real HDFS journals every namespace mutation to an edit log so a restarted
namenode can reconstruct its metadata (helped along by datanode block
reports).  This module reproduces that mechanism for the simulator:

* :class:`EditLog` records namespace and replication-target mutations as
  plain dict entries (JSON-serializable, so logs can be persisted and
  inspected); every entry carries a monotonically increasing ``seq``
  number so replicated followers can tail the journal and checkpoints
  can truncate it (:meth:`EditLog.entries_after`,
  :meth:`EditLog.truncate_through`);
* :func:`attach_edit_log` wires a namenode (and optionally its
  :class:`~repro.dfs.quota.QuotaManager`) to journal into a log;
* :func:`recover_namenode` replays a log into a fresh namenode and then
  applies the surviving datanodes' block reports — exactly HDFS's
  restart sequence (namespace from the journal, block locations from
  reports);
* :func:`build_checkpoint` / :func:`restore_checkpoint` snapshot the
  full namespace (files, block metadata, directories, quotas, id
  counters) so recovery replays only the journal *tail* past the last
  checkpoint instead of the whole history.

Block *locations* are deliberately not journaled or checkpointed: like
HDFS, the namenode treats them as soft state owned by the datanodes.

The module also declares which public mutators are journaled
(:data:`JOURNALED_MUTATORS`, :data:`QUOTA_JOURNALED_MUTATORS`) and why
the rest are exempt (:data:`EXEMPT_NAMENODE_METHODS`,
:data:`EXEMPT_QUOTA_METHODS`); a guard test diffs these registries
against the live classes so a future mutator cannot ship unjournaled by
accident.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Union,
)

from repro.dfs.datanode import Datanode
from repro.dfs.namenode import Namenode
from repro.errors import DfsError, EditLogCorruptError

__all__ = [
    "EditLog",
    "attach_edit_log",
    "recover_namenode",
    "replay_entries",
    "build_checkpoint",
    "restore_checkpoint",
    "JOURNALED_MUTATORS",
    "QUOTA_JOURNALED_MUTATORS",
    "EXEMPT_NAMENODE_METHODS",
    "EXEMPT_QUOTA_METHODS",
]


#: Namenode mutators wrapped by :func:`attach_edit_log`.  Durable
#: namespace state flows through exactly these.
JOURNALED_MUTATORS: FrozenSet[str] = frozenset({
    "create_file",
    "delete_file",
    "delete_directory",
    "mkdir",
    "rename",
    "set_replication",
})

#: QuotaManager mutators wrapped by :func:`attach_edit_log`.
QUOTA_JOURNALED_MUTATORS: FrozenSet[str] = frozenset({
    "set_quota",
    "clear_quota",
})

#: Public Namenode methods that are deliberately *not* journaled.
#: Queries return state without changing it; the rest mutate only soft
#: state (block locations, liveness, load) that block reports rebuild,
#: or operator state (decommission marks) that is re-issued, never
#: replayed.  A new public method must be added either here or to
#: :data:`JOURNALED_MUTATORS` or the coverage guard test fails.
EXEMPT_NAMENODE_METHODS: FrozenSet[str] = frozenset({
    # pure queries
    "audit",
    "blocked_nodes",
    "can_store",
    "choose_read_replica",
    "cluster_saturation",
    "datanode",
    "file",
    "file_by_id",
    "is_decommissioned",
    "is_file_available",
    "lazy_replicas",
    "list_directory",
    "list_files",
    "live_nodes",
    "node_load",
    "rack_load",
    "rack_targets",
    "replica_preference",
    "verified_locations",
    # soft state: block locations live on datanodes and are rebuilt
    # from block reports, never from the journal (HDFS semantics)
    "move_block",
    "replicate_block",
    "register_block_report",
    "check_replication",
    "retract_replica",
    # liveness / membership: failure-detector beliefs, not metadata
    "fail_node",
    "recover_node",
    "fail_rack",
    "recover_rack",
    "wipe_node",
    "adopt_datanodes",
    # load: Aurora republishes its popularity vector every period
    "set_load_vector",
    # integrity quarantine: derived from on-disk checksums; after a
    # failover the scrubber/clients re-detect any still-corrupt replica,
    # so replaying reports would only duplicate soft state
    "report_corrupt_replica",
    # operator / workload state re-issued by its owner after restart
    "decommission_node",
    "recommission_node",
    "record_access",
})

#: Public QuotaManager methods that are deliberately not journaled
#: (queries only — both mutators are journaled).
EXEMPT_QUOTA_METHODS: FrozenSet[str] = frozenset({
    "quota_of",
    "usage",
})


class EditLog:
    """Append-only journal of namenode metadata mutations.

    Entries carry a monotonically increasing ``seq`` starting at 1.
    :meth:`truncate_through` drops a checkpointed prefix without
    disturbing the numbering, so followers tailing the log via
    :meth:`entries_after` never see a seq reused.
    """

    def __init__(self) -> None:
        self._entries: List[Dict] = []
        self._next_seq = 1
        #: Raw text of a torn trailing line found by :meth:`load` (the
        #: partially written entry a crash mid-append left behind), or
        #: ``None`` when the journal was clean.
        self.torn_line: Optional[str] = None
        #: Optional hook called with each appended entry — the HA layer
        #: points this at a :class:`~repro.dfs.store.MetadataStore` so
        #: the durable backend sees every mutation as it happens.
        self.sink: Optional[Callable[[Dict], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[Dict]:
        """Copy of the retained journal, oldest first."""
        return list(self._entries)

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent append (0 if none yet)."""
        return self._next_seq - 1

    @property
    def first_retained_seq(self) -> int:
        """Seq of the oldest retained entry (``last_seq + 1`` if empty)."""
        if self._entries:
            return self._entries[0]["seq"]
        return self._next_seq

    def entries_after(self, seq: int) -> List[Dict]:
        """Entries with sequence number strictly greater than ``seq``.

        Raises :class:`~repro.errors.DfsError` when ``seq`` predates the
        retained prefix (the caller must restore a checkpoint first).
        """
        if seq + 1 < self.first_retained_seq and seq < self.last_seq:
            raise DfsError(
                f"entries after seq {seq} were truncated "
                f"(oldest retained is {self.first_retained_seq})"
            )
        return [entry for entry in self._entries if entry["seq"] > seq]

    def append(self, op: str, **fields) -> Dict:
        """Record one mutation; returns the entry (with its ``seq``)."""
        entry = {"op": op, "seq": self._next_seq}
        entry.update(fields)
        self._next_seq += 1
        self._entries.append(entry)
        if self.sink is not None:
            self.sink(entry)
        return entry

    def resume_from(self, seq: int) -> None:
        """Continue numbering after ``seq`` (a promoted leader's log).

        The new leader's journal starts empty — history lives in its
        :class:`~repro.dfs.store.MetadataStore` — but its appends must
        extend the cluster-wide sequence, not restart it.
        """
        if self._entries:
            raise DfsError("resume_from requires an empty journal")
        self._next_seq = max(self._next_seq, seq + 1)

    def truncate_through(self, seq: int) -> int:
        """Drop entries with ``seq`` <= the given value; returns count.

        Called after a checkpoint at ``seq`` — the snapshot now covers
        the dropped prefix, so the journal stops growing without bound.
        """
        keep = [entry for entry in self._entries if entry["seq"] > seq]
        dropped = len(self._entries) - len(keep)
        self._entries = keep
        return dropped

    def dump(self, path: Union[str, Path]) -> None:
        """Persist the journal as JSON lines, atomically.

        The journal is written to a sibling temp file and moved into
        place with :func:`os.replace`, so a crash mid-dump leaves the
        previous journal intact rather than a truncated one.
        """
        path = Path(path)
        tmp = path.parent / (path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for entry in self._entries:
                handle.write(json.dumps(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EditLog":
        """Read a journal written by :meth:`dump`.

        A torn *trailing* line (a crash mid-append) is tolerated: the
        partial entry is dropped and kept in :attr:`torn_line` for the
        caller to report.  Corruption anywhere else raises
        :class:`~repro.errors.EditLogCorruptError` — the journal is not
        trustworthy past a mid-file tear.
        """
        log = cls()
        raw_lines = Path(path).read_text(encoding="utf-8").splitlines()
        lines = [(i + 1, line) for i, line in enumerate(raw_lines)
                 if line.strip()]
        for position, (lineno, line) in enumerate(lines):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                if position == len(lines) - 1:
                    log.torn_line = line
                    break
                raise EditLogCorruptError(
                    f"{path}: corrupt journal entry at line {lineno}: "
                    f"{exc}"
                ) from exc
            if "seq" not in entry:  # journals from before seq numbers
                entry["seq"] = log._next_seq
            log._entries.append(entry)
            log._next_seq = max(log._next_seq, entry["seq"] + 1)
        return log


def attach_edit_log(
    namenode: Namenode,
    log: Optional[EditLog] = None,
    quota: Optional["QuotaManager"] = None,
) -> EditLog:
    """Journal every metadata mutation of ``namenode`` into ``log``.

    Wraps the namenode's mutating methods; the wrappers journal *after*
    the operation succeeds, so failed operations leave no trace.  Pass
    the namenode's :class:`~repro.dfs.quota.QuotaManager` to journal
    quota mutations too — without it, quotas silently vanish on
    recovery.
    """
    # Not `log or EditLog()`: an empty EditLog is falsy (len 0), and
    # replacing it would silently drop its sink and resumed seq.
    log = EditLog() if log is None else log

    original_create = namenode.create_file
    original_delete = namenode.delete_file
    original_delete_dir = namenode.delete_directory
    original_mkdir = namenode.mkdir
    original_rename = namenode.rename
    original_set_replication = namenode.set_replication

    def create_file(path, num_blocks, **kwargs):
        meta = original_create(path, num_blocks, **kwargs)
        first_block = namenode.blockmap.meta(meta.block_ids[0])
        log.append(
            "create_file",
            path=path,
            file_id=meta.file_id,
            block_ids=list(meta.block_ids),
            block_size=meta.block_size,
            replication=first_block.replication_factor,
            rack_spread=first_block.rack_spread,
        )
        return meta

    def delete_file(path):
        file_id = namenode.file(path).file_id
        original_delete(path)
        log.append("delete_file", path=path, file_id=file_id)

    def delete_directory(path):
        removed = original_delete_dir(path)
        log.append("delete_directory", path=path)
        return removed

    def mkdir(path):
        original_mkdir(path)
        log.append("mkdir", path=path)

    def rename(source, destination):
        original_rename(source, destination)
        log.append("rename", source=source, destination=destination)

    def set_replication(block_id, factor):
        original_set_replication(block_id, factor)
        log.append("set_replication", block_id=block_id, factor=factor)

    namenode.create_file = create_file  # type: ignore[method-assign]
    namenode.delete_file = delete_file  # type: ignore[method-assign]
    namenode.delete_directory = delete_directory  # type: ignore[method-assign]
    namenode.mkdir = mkdir  # type: ignore[method-assign]
    namenode.rename = rename  # type: ignore[method-assign]
    namenode.set_replication = set_replication  # type: ignore[method-assign]

    if quota is not None:
        original_set_quota = quota.set_quota
        original_clear_quota = quota.clear_quota

        def set_quota(path, max_files=None, max_replicated_blocks=None):
            original_set_quota(
                path,
                max_files=max_files,
                max_replicated_blocks=max_replicated_blocks,
            )
            log.append(
                "set_quota",
                path=path,
                max_files=max_files,
                max_replicated_blocks=max_replicated_blocks,
            )

        def clear_quota(path):
            original_clear_quota(path)
            log.append("clear_quota", path=path)

        quota.set_quota = set_quota  # type: ignore[method-assign]
        quota.clear_quota = clear_quota  # type: ignore[method-assign]
    return log


def replay_entries(
    fresh: Namenode,
    entries: Iterable[Dict],
    quota: Optional["QuotaManager"] = None,
) -> int:
    """Apply journal ``entries`` to ``fresh`` idempotently.

    The workhorse behind :func:`recover_namenode` and follower catch-up
    in :mod:`repro.dfs.ha`.  Already-applied entries are skipped, so an
    interrupted replay can simply be re-run.  Returns the number of
    entries processed.
    """
    from repro.dfs.block import BlockMeta, FileMeta
    from repro.dfs.quota import QuotaManager

    replayed = 0
    for entry in entries:
        replayed += 1
        op = entry["op"]
        if op == "create_file":
            if entry["file_id"] in fresh._files_by_id:
                continue  # already applied by an interrupted recovery
            block_ids = entry["block_ids"]
            for block_id in block_ids:
                fresh.blockmap.register(BlockMeta(
                    block_id=block_id,
                    file_id=entry["file_id"],
                    size=entry["block_size"],
                    replication_factor=entry["replication"],
                    rack_spread=entry["rack_spread"],
                ))
            meta = FileMeta(
                file_id=entry["file_id"],
                path=entry["path"],
                block_ids=tuple(block_ids),
                block_size=entry["block_size"],
            )
            fresh.namespace.add_file(entry["path"], entry["file_id"])
            fresh._files_by_id[entry["file_id"]] = meta
            fresh._next_file_id = max(fresh._next_file_id, entry["file_id"] + 1)
            if block_ids:
                fresh._next_block_id = max(
                    fresh._next_block_id, max(block_ids) + 1
                )
        elif op == "delete_file":
            if entry["file_id"] not in fresh._files_by_id:
                continue  # already applied
            meta = fresh.file(entry["path"])
            fresh.namespace.remove_file(entry["path"])
            for block_id in meta.block_ids:
                fresh.blockmap.unregister(block_id)
            del fresh._files_by_id[meta.file_id]
        elif op == "delete_directory":
            if not fresh.namespace.is_directory(entry["path"]):
                continue  # already applied
            removed = fresh.namespace.remove_directory(entry["path"])
            for file_id in removed:
                meta = fresh._files_by_id.pop(file_id)
                for block_id in meta.block_ids:
                    fresh.blockmap.unregister(block_id)
        elif op == "mkdir":
            if not fresh.namespace.is_directory(entry["path"]):
                fresh.namespace.mkdir(entry["path"])
        elif op == "rename":
            if fresh.namespace.exists(entry["source"]):
                fresh.rename(entry["source"], entry["destination"])
        elif op == "set_replication":
            if entry["block_id"] in fresh.blockmap:
                meta_block = fresh.blockmap.meta(entry["block_id"])
                meta_block.replication_factor = entry["factor"]
                meta_block.rack_spread = min(
                    meta_block.rack_spread, entry["factor"]
                )
                fresh.blockmap.mark_dirty(entry["block_id"])
        elif op in ("set_quota", "clear_quota"):
            if quota is None:
                raise DfsError(
                    "journal contains quota mutations; pass the fresh "
                    "namenode's QuotaManager to replay them"
                )
            # Call the originals through the class so replay never
            # re-journals via an already-attached wrapper.
            if op == "set_quota":
                if fresh.namespace.is_directory(entry["path"]):
                    QuotaManager.set_quota(
                        quota,
                        entry["path"],
                        max_files=entry["max_files"],
                        max_replicated_blocks=entry["max_replicated_blocks"],
                    )
            else:
                QuotaManager.clear_quota(quota, entry["path"])
        else:
            raise DfsError(f"unknown edit log op {op!r}")
    return replayed


def recover_namenode(
    fresh: Namenode,
    log: EditLog,
    surviving_datanodes: Iterable[Datanode],
    quota: Optional["QuotaManager"] = None,
) -> Namenode:
    """Rebuild namenode metadata from a journal plus block reports.

    ``fresh`` must be a newly constructed namenode over the same
    topology — or a partially recovered one: every step is applied
    idempotently (already-applied journal entries and already-known
    replicas are skipped), so a recovery that itself crashed can simply
    be re-run.  The journal restores the namespace, block metadata and
    replication targets; the surviving datanodes' block reports restore
    replica locations.  After recovery, :meth:`Namenode.check_replication`
    repairs whatever the crash lost.
    """
    replay_entries(fresh, log.entries, quota=quota)

    # Block reports from the surviving datanodes restore locations.
    # Applied idempotently so recovery itself can crash and be re-run
    # over the same survivors without tripping duplicate-replica errors.
    # A survivor that died *during* recovery still gets its disk
    # contents restored — the bytes survive a reboot, and its eventual
    # :meth:`Namenode.recover_node` block report re-registers them —
    # but contributes no block-map locations: the map must only
    # reference replicas a live datanode has confirmed, or safe-mode
    # progress and the post-recovery replication check would count
    # replicas nobody can serve.
    for survivor in surviving_datanodes:
        node = survivor.node_id
        target = fresh.datanodes[node]
        # Restoring the disk needs a writable node.  crash()/recover()
        # (not a bare ``alive`` flip) keep the membership epoch moving.
        if not target.alive:
            target.recover()
        for block_id in survivor.blocks():
            if block_id not in fresh.blockmap:
                continue
            if not target.holds(block_id):
                target.store(block_id, fresh.blockmap.meta(block_id).size)
            if (survivor.alive
                    and node not in fresh.blockmap.locations(block_id)):
                fresh.blockmap.add_location(block_id, node)
        if not survivor.alive:
            # Drop anything an earlier, interrupted recovery pass
            # registered before this node crashed.
            for block_id in fresh.blockmap.blocks_on(node):
                fresh.blockmap.remove_location(block_id, node)
            target.crash()
    return fresh


def build_checkpoint(
    namenode: Namenode,
    quota: Optional["QuotaManager"] = None,
    seq: int = 0,
    term: int = 0,
) -> Dict:
    """Snapshot durable namenode metadata as a JSON-serializable dict.

    Captures files, block metadata (sizes, replication targets),
    directories (including empty ones), quotas and the id counters —
    everything the journal would rebuild, so the journal prefix up to
    ``seq`` can be truncated.  Block locations are soft state and are
    *not* captured (block reports rebuild them).
    """
    files = []
    blocks = []
    for path, file_id in namenode.namespace.walk_files("/"):
        meta = namenode.file_by_id(file_id)
        files.append({
            "file_id": meta.file_id,
            "path": path,
            "block_ids": list(meta.block_ids),
            "block_size": meta.block_size,
        })
        for block_id in meta.block_ids:
            block = namenode.blockmap.meta(block_id)
            blocks.append({
                "block_id": block.block_id,
                "file_id": block.file_id,
                "size": block.size,
                "replication": block.replication_factor,
                "rack_spread": block.rack_spread,
            })
    quotas = {}
    if quota is not None:
        for path, limits in sorted(quota._quotas.items()):
            quotas[path] = {
                "max_files": limits.max_files,
                "max_replicated_blocks": limits.max_replicated_blocks,
            }
    return {
        "format": 1,
        "seq": seq,
        "term": term,
        "directories": list(namenode.namespace.walk_directories("/")),
        "files": files,
        "blocks": blocks,
        "quotas": quotas,
        "next_file_id": namenode._next_file_id,
        "next_block_id": namenode._next_block_id,
    }


def restore_checkpoint(
    fresh: Namenode,
    checkpoint: Dict,
    quota: Optional["QuotaManager"] = None,
) -> None:
    """Load a :func:`build_checkpoint` snapshot into a namenode.

    Idempotent, like journal replay: already-present directories, blocks
    and files are skipped, so an interrupted restore can be re-run.
    Journal entries after ``checkpoint["seq"]`` are applied on top via
    :func:`replay_entries`.
    """
    from repro.dfs.block import BlockMeta, FileMeta
    from repro.dfs.quota import QuotaManager

    for directory in checkpoint["directories"]:
        fresh.namespace.mkdir(directory)
    for block in checkpoint["blocks"]:
        if block["block_id"] in fresh.blockmap:
            continue
        fresh.blockmap.register(BlockMeta(
            block_id=block["block_id"],
            file_id=block["file_id"],
            size=block["size"],
            replication_factor=block["replication"],
            rack_spread=block["rack_spread"],
        ))
    for record in checkpoint["files"]:
        if record["file_id"] in fresh._files_by_id:
            continue
        fresh.namespace.add_file(record["path"], record["file_id"])
        fresh._files_by_id[record["file_id"]] = FileMeta(
            file_id=record["file_id"],
            path=record["path"],
            block_ids=tuple(record["block_ids"]),
            block_size=record["block_size"],
        )
    fresh._next_file_id = max(fresh._next_file_id, checkpoint["next_file_id"])
    fresh._next_block_id = max(
        fresh._next_block_id, checkpoint["next_block_id"]
    )
    if checkpoint["quotas"] and quota is None:
        raise DfsError(
            "checkpoint contains quotas; pass the fresh namenode's "
            "QuotaManager to restore them"
        )
    for path, limits in checkpoint["quotas"].items():
        QuotaManager.set_quota(
            quota,
            path,
            max_files=limits["max_files"],
            max_replicated_blocks=limits["max_replicated_blocks"],
        )
