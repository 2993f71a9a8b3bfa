"""fsck: the cluster-wide invariant checker (HDFS's ``hdfs fsck``).

Where :meth:`~repro.dfs.namenode.Namenode.audit` *asserts* internal
consistency (it is a test oracle that crashes on drift), ``run_fsck``
is the operator-facing diagnosis tool: it walks the namespace, the
block map and every datanode, collects *all* violations instead of
stopping at the first, and returns a machine-readable report.  The
chaos and overload storms run it after their drain phase — a healthy
report is part of their acceptance criteria.

Checks performed:

* **location backing** — every block-map location refers to a live
  datanode whose disk actually holds the block (``dead-location`` /
  ``phantom-location``);
* **replication** — every block has at least its target number of live
  replicas, clamped to the number of live nodes (``under-replicated``);
* **rack spread** — live replicas span at least the block's rack-spread
  target, clamped to what the replica count allows (``under-spread``);
* **orphans** — every block belongs to a registered file
  (``orphaned-block``), every file's blocks are registered
  (``missing-block``), and every replica on a live disk is reflected in
  the block map (``unreported-replica``; replicas of *deleted* blocks
  are tolerated — deletion is lazy by design);
* **capacity** — no datanode stores more than its disk allows
  (``over-capacity``);
* **integrity** — a block whose every remaining replica is quarantined
  as corrupt is flagged ``corrupt-last-replica`` (the replica is
  deliberately retained: damaged bytes beat no bytes for offline
  recovery); with ``verify_checksums=True`` fsck re-reads every live
  replica's stored checksum and reports silent rot the namenode has not
  detected yet as ``undetected-corruption`` — the ground-truth check
  the scrubber races against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.dfs.namenode import Namenode
from repro.obs.registry import get_registry

__all__ = ["FsckViolation", "FsckReport", "run_fsck", "render_fsck"]

_REG = get_registry()


@dataclass(frozen=True)
class FsckViolation:
    """One broken invariant, addressable enough to act on."""

    check: str
    detail: str
    block_id: Optional[int] = None
    node: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (JSON-safe)."""
        return {
            "check": self.check,
            "detail": self.detail,
            "block_id": self.block_id,
            "node": self.node,
        }


@dataclass
class FsckReport:
    """Everything one fsck pass looked at and found."""

    time: float = 0.0
    blocks_checked: int = 0
    nodes_checked: int = 0
    files_checked: int = 0
    live_nodes: int = 0
    violations: List[FsckViolation] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """Whether every invariant held."""
        return not self.violations

    def counts_by_check(self) -> Dict[str, int]:
        """Violation tally keyed by check name."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.check] = counts.get(violation.check, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (JSON-safe)."""
        return {
            "time": self.time,
            "healthy": self.healthy,
            "blocks_checked": self.blocks_checked,
            "nodes_checked": self.nodes_checked,
            "files_checked": self.files_checked,
            "live_nodes": self.live_nodes,
            "violation_counts": self.counts_by_check(),
            "violations": [v.to_dict() for v in self.violations],
        }


def run_fsck(
    namenode: Namenode,
    check_replication_targets: bool = True,
    expected_paths: Optional[Iterable[str]] = None,
    verify_checksums: bool = False,
) -> FsckReport:
    """Walk the whole cluster and report every broken invariant.

    ``check_replication_targets=False`` skips the under-replication and
    under-spread checks — useful mid-storm, where blocks are *expected*
    to be below target while repair is still running.

    ``expected_paths`` lists file paths that *must* exist — the
    metadata-loss check after a failover: any path a client successfully
    created on the old leader that the new leader does not know is a
    ``missing-file`` violation.

    ``verify_checksums=True`` additionally re-verifies every replica on
    every live disk — the ground-truth sweep that catches corruption
    nobody has detected yet (``undetected-corruption``).
    """
    report = FsckReport(time=namenode.now)
    live = namenode.live_nodes()
    report.live_nodes = len(live)
    blockmap = namenode.blockmap
    files = [namenode.file(path) for path in namenode.list_files()]
    known_files = {meta.file_id for meta in files}

    for block_id in blockmap.block_ids():
        report.blocks_checked += 1
        meta = blockmap.meta(block_id)
        if meta.file_id not in known_files:
            report.violations.append(FsckViolation(
                check="orphaned-block",
                detail=f"block {block_id} references unknown file "
                       f"{meta.file_id}",
                block_id=block_id,
            ))
        locations = blockmap.locations(block_id)
        for node in locations:
            if node not in live:
                report.violations.append(FsckViolation(
                    check="dead-location",
                    detail=f"block {block_id} mapped to dead node {node}",
                    block_id=block_id,
                    node=node,
                ))
            elif not namenode.datanodes[node].holds(block_id):
                report.violations.append(FsckViolation(
                    check="phantom-location",
                    detail=f"block {block_id} mapped to node {node} whose "
                           f"disk does not hold it",
                    block_id=block_id,
                    node=node,
                ))
        quarantined_nodes = namenode.integrity.nodes_for(block_id)
        if quarantined_nodes and not namenode.verified_locations(block_id):
            report.violations.append(FsckViolation(
                check="corrupt-last-replica",
                detail=f"block {block_id} has no verified replica left; "
                       f"corrupt copies on {sorted(quarantined_nodes)} "
                       f"are retained, not deleted",
                block_id=block_id,
            ))
        if not check_replication_targets:
            continue
        # Quarantined replicas are physically present but unreadable, so
        # they do not count towards the replication target.
        live_count = len(namenode.verified_locations(block_id))
        target = min(meta.replication_factor, len(live)) if live else 0
        if live_count < target:
            report.violations.append(FsckViolation(
                check="under-replicated",
                detail=f"block {block_id} has {live_count} live replicas, "
                       f"target {target}",
                block_id=block_id,
            ))
        live_racks = {
            namenode.topology.rack_of[n]
            for n in namenode.verified_locations(block_id)
        }
        spread_target = min(
            meta.rack_spread,
            live_count,
            len({namenode.topology.rack_of[n] for n in live}),
        )
        if len(live_racks) < spread_target:
            report.violations.append(FsckViolation(
                check="under-spread",
                detail=f"block {block_id} spans {len(live_racks)} racks, "
                       f"target {spread_target}",
                block_id=block_id,
            ))

    for dn in namenode.datanodes:
        report.nodes_checked += 1
        if dn.used_blocks > dn.capacity_blocks:
            report.violations.append(FsckViolation(
                check="over-capacity",
                detail=f"node {dn.node_id} stores {dn.used_blocks} blocks, "
                       f"capacity {dn.capacity_blocks}",
                node=dn.node_id,
            ))
        if not dn.alive:
            continue
        for block_id in dn.blocks():
            # Replicas of deleted blocks linger by design (lazy
            # deletion); a replica of a *known* block missing from the
            # block map is real drift.
            if (block_id in blockmap
                    and dn.node_id not in blockmap.locations(block_id)):
                report.violations.append(FsckViolation(
                    check="unreported-replica",
                    detail=f"node {dn.node_id} holds block {block_id} "
                           f"unknown to the block map",
                    block_id=block_id,
                    node=dn.node_id,
                ))
        if verify_checksums:
            for block_id in dn.blocks():
                if block_id not in blockmap:
                    continue  # lazily deleted remnant
                if namenode.integrity.is_quarantined(block_id, dn.node_id):
                    continue  # already detected and quarantined
                if not dn.verify_replica(block_id):
                    report.violations.append(FsckViolation(
                        check="undetected-corruption",
                        detail=f"replica of block {block_id} on node "
                               f"{dn.node_id} fails its checksum and "
                               f"nobody has noticed",
                        block_id=block_id,
                        node=dn.node_id,
                    ))

    for path in sorted(set(expected_paths or ())):
        if not namenode.namespace.is_file(path):
            report.violations.append(FsckViolation(
                check="missing-file",
                detail=f"acknowledged file {path} is gone from the "
                       f"namespace (metadata loss)",
            ))

    for meta in files:
        report.files_checked += 1
        for block_id in meta.block_ids:
            if block_id not in blockmap:
                report.violations.append(FsckViolation(
                    check="missing-block",
                    detail=f"file {meta.path} references unregistered "
                           f"block {block_id}",
                    block_id=block_id,
                ))

    if _REG.enabled:
        # Registered here, not at import, so only processes that ran an
        # instrumented fsck list them.
        outcome = "healthy" if report.healthy else "violations"
        _REG.counter(
            "repro_dfs_fsck_runs_total",
            "fsck invocations, by outcome",
            ["outcome"],
        ).labels(outcome=outcome).inc()
        _REG.gauge(
            "repro_dfs_fsck_violations",
            "Violations found by the most recent fsck run",
        ).set(len(report.violations))
    return report


def render_fsck(report: FsckReport) -> str:
    """The fsck report as a readable summary."""
    lines = [
        f"fsck at t={report.time:.1f}: "
        + ("HEALTHY" if report.healthy
           else f"{len(report.violations)} violation(s)"),
        f"  blocks checked   {report.blocks_checked}",
        f"  files checked    {report.files_checked}",
        f"  datanodes        {report.nodes_checked} "
        f"({report.live_nodes} live)",
    ]
    for check, count in sorted(report.counts_by_check().items()):
        lines.append(f"  {check:<20} {count}")
    for violation in report.violations[:20]:
        lines.append(f"    - {violation.detail}")
    if len(report.violations) > 20:
        lines.append(
            f"    ... and {len(report.violations) - 20} more"
        )
    return "\n".join(lines)
