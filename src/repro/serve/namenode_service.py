"""The namenode process: the real metadata brain behind an HTTP surface.

The server hosts an actual :class:`~repro.dfs.namenode.Namenode` — the
same namespace, block map, placement policies, replication queue,
quarantine, and fsck machinery every simulation PR built — re-based from
the simulation clock onto a :class:`WallClock`, with two surgical
subclasses that swap simulated data movement for real sockets:

* :class:`NetworkNamenode` allocates write targets without moving bytes
  (the *client* pushes them through the datanode write pipeline), and
  stamps a write grace so block-report reconciliation doesn't mistake an
  in-flight push for a lost replica;
* :class:`NetworkTransferService` turns every replica copy the
  namenode's copy chain issues, repair or migration, into a real
  ``POST /admin/pull`` of that block on the target datanode process —
  so heartbeat expiry, the prioritized re-replication queue, retry-on-
  alternate-source, and corrupt-source quarantine all run unmodified,
  just over TCP.

Belief vs. reality: the in-process ``Datanode`` objects are the
namenode's *belief* of the cluster, updated by registrations, block
reports, and pull completions; the authoritative bytes live in the
datanode processes.  Reconciliation is bidirectional — reality missing
a believed replica (post-grace) retracts the location and queues
repair; reality holding an unbelieved replica (lazy eviction, purge,
file delete) gets a real ``DELETE`` pushed to the node.

The Aurora loop runs here too: client access reports feed a
:class:`~repro.monitor.usage.UsageMonitor`, and a periodic tick runs
Algorithm 3 (:func:`~repro.core.rep_factor.compute_replication_factors`)
over the observed popularity, applying factor changes through
``set_replication`` — increases become real replication pulls.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.cluster.topology import ClusterTopology
from repro.core.rep_factor import compute_replication_factors
from repro.dfs.block import DEFAULT_MAX_BLOCK_SIZE, BlockMeta, FileMeta
from repro.dfs.fsck import run_fsck
from repro.dfs.namenode import Namenode
from repro.dfs.replication import TransferService
from repro.errors import (
    DfsError,
    InvalidProblemError,
    NoLeaderError,
)
from repro.monitor.usage import UsageMonitor
from repro.obs.registry import get_registry
from repro.serve.httpd import (
    HttpCallError,
    HttpRequest,
    HttpServer,
    Response,
    http_call,
)
from repro.serve.wire import (
    AccessReport,
    BlockInfo,
    BlockReportRequest,
    CorruptReport,
    CreateFileRequest,
    FileInfo,
    HeartbeatRequest,
    LocateResponse,
    PullRequest,
    ReplicaLocation,
    ScrubSummary,
    encode_error,
)

__all__ = [
    "WallClock",
    "NetworkTransferService",
    "NetworkNamenode",
    "NamenodeConfig",
    "NamenodeServer",
]

_LOG = logging.getLogger(__name__)

_REG = get_registry()
_HEARTBEATS = _REG.counter(
    "repro_serve_heartbeats_total",
    "Datanode heartbeats received by the namenode process",
)
_EXPIRIES = _REG.counter(
    "repro_serve_heartbeat_expiries_total",
    "Datanodes declared dead after missing their heartbeat window",
)
_PULLS_ISSUED = _REG.counter(
    "repro_serve_pulls_issued_total",
    "Replication pulls issued to datanode processes, by outcome",
    ["outcome"],
)
_AURORA_TICKS = _REG.counter(
    "repro_serve_aurora_ticks_total",
    "Aurora optimizer periods executed by the namenode process",
)
_FACTOR_CHANGES = _REG.counter(
    "repro_serve_aurora_factor_changes_total",
    "Replication-factor changes applied by the Aurora ticker",
    ["direction"],
)


class _ClockToken:
    """Cancellable handle for a :class:`WallClock` timer."""

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()


class WallClock:
    """The :class:`~repro.simulation.engine.Simulation` surface the
    namenode needs (``now`` + ``schedule``), driven by wall time.

    ``schedule`` maps onto the running asyncio loop, so the namenode's
    retry backoffs (:meth:`Namenode._defer`) fire as real timers.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def schedule(self, delay: float, action: Callable[[], None]) -> _ClockToken:
        if self._loop is None:
            raise DfsError("WallClock.schedule before bind()")
        return _ClockToken(self._loop.call_later(max(0.0, delay), action))


class NetworkTransferService(TransferService):
    """Replica copies as real datanode-to-datanode pulls.

    Every repair and migration copy the namenode's copy chain issues
    becomes ``pull_fn(block_id, src, dst, done)``, where ``done(outcome:
    str)`` reports how the pull ended: ``ok``, ``source-corrupt`` when
    the target's in-flight verification refused the source's bytes, or
    any other string for a failed pull.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        pull_fn: Callable[..., None],
    ) -> None:
        super().__init__(topology, sim=None, jitter=0.0)
        self._pull_fn = pull_fn

    def transfer(
        self,
        size: int,
        src: int,
        dst: int,
        on_complete: Callable[[], None],
        compression_ratio: Optional[float] = None,
        on_failure: Optional[Callable[..., None]] = None,
        kind: str = "write",
        parent=None,
        block_id: Optional[int] = None,
    ) -> float:
        self.transfers_started += 1
        self._hold(src, dst)
        started = time.monotonic()

        def done(outcome: str) -> None:
            self._release(src)
            self._release(dst)
            if outcome == "ok":
                self._land(size, kind, time.monotonic() - started)
                on_complete()
                return
            # A pull reports no partial progress, so it wastes no bytes.
            self._count_failure(0)
            if on_failure is None:
                return
            if outcome == "source-corrupt":
                on_failure("source_corrupt")
            else:
                on_failure()

        self._pull_fn(block_id, src, dst, done)
        return 0.0


class NetworkNamenode(Namenode):
    """A :class:`Namenode` whose data plane lives in other processes."""

    # Seconds a freshly allocated replica may stay absent from a block
    # report before reconciliation treats it as lost: the client is
    # still pushing the bytes.
    write_grace = 15.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # (block_id, node) -> allocation wall time, pruned by the tick.
        self.pending_writes: Dict[Tuple[int, int], float] = {}

    def _write_replica(
        self, meta: BlockMeta, node: int, source: Optional[int]
    ) -> None:
        # Allocation only (no pipeline hop): the client pushes the
        # bytes through the datanode write pipeline.
        super()._write_replica(meta, node, source=None)
        self.pending_writes[(meta.block_id, node)] = self.now


@dataclass
class NamenodeConfig:
    """Knobs of one namenode process."""

    num_racks: int = 2
    datanodes_per_rack: int = 2
    capacity_blocks: int = 128
    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_interval: float = 1.0
    heartbeat_expiry: float = 4.0
    default_replication: int = 2
    # Aurora ticker: run Algorithm 3 over observed popularity every
    # ``aurora_period`` seconds; 0 disables the loop.
    aurora_period: float = 30.0
    aurora_window: float = 120.0
    min_replication: int = 1
    replication_budget_factor: float = 3.0
    # Follower mode: redirect every client/datanode call here.
    leader_address: Optional[str] = None
    pull_timeout: float = 15.0

    @property
    def num_datanodes(self) -> int:
        return self.num_racks * self.datanodes_per_rack


class NamenodeServer:
    """One namenode process: metadata plane + control loops."""

    def __init__(self, config: NamenodeConfig) -> None:
        self.config = config
        self.clock = WallClock()
        topology = ClusterTopology.uniform(
            num_racks=config.num_racks,
            machines_per_rack=config.datanodes_per_rack,
            capacity=config.capacity_blocks,
        )
        self.namenode = NetworkNamenode(
            topology,
            sim=self.clock,
            transfer_service=NetworkTransferService(topology, self._pull),
            default_replication=min(
                config.default_replication, config.num_datanodes
            ),
        )
        # Aurora's popularity feed: every reported access lands here.
        self.monitor = UsageMonitor(window=config.aurora_window)
        self.namenode.access_listeners.append(self.monitor.record_access)
        # Until a datanode process registers, its belief twin is down
        # and the namenode is in safe mode.
        self.namenode.safe_mode = True
        for dn in self.namenode.datanodes:
            dn.crash()
        self._addresses: Dict[int, str] = {}
        self._last_beat: Dict[int, float] = {}
        # Reality as last reported per node — drives belief-authority
        # deletes (lazy evictions, purges, file removals).
        self._last_real: Dict[int, Set[int]] = {}
        self.leader_address = config.leader_address
        self._stopping = asyncio.Event()
        self._last_aurora = 0.0
        self._last_check = 0.0
        self.http = HttpServer(label="namenode")
        self._register_routes()

    # -- pull plumbing (NetworkTransferService calls back here) ------------

    def _pull(
        self, block_id: int, src: int, dst: int,
        done: Callable[[str], None],
    ) -> None:
        src_addr = self._addresses.get(src)
        dst_addr = self._addresses.get(dst)
        if src_addr is None or dst_addr is None:
            asyncio.get_running_loop().call_soon(done, "no-address")
            return

        async def go() -> None:
            outcome = "failed"
            try:
                status, body, _ = await asyncio.to_thread(
                    http_call, dst_addr, "POST", "/admin/pull",
                    PullRequest(
                        block_id=block_id, source_address=src_addr,
                    ).to_wire(),
                    self.config.pull_timeout,
                )
                if isinstance(body, dict):
                    if status == 200 and body.get("ok"):
                        outcome = "ok"
                    elif body.get("outcome") == "source-corrupt":
                        outcome = "source-corrupt"
            except HttpCallError as exc:
                _LOG.warning(
                    "pull of block %d to node %d failed: %s",
                    block_id, dst, exc,
                )
            if _REG.enabled:
                _PULLS_ISSUED.labels(outcome=outcome).inc()
            # A source-corrupt pull ends the copy chain as the
            # simulator's ``source_corrupt`` landing does: the chain
            # quarantines the source, which requeues the repair from a
            # verified replica.
            done(outcome)

        asyncio.ensure_future(go())

    # -- registration / heartbeat / report ---------------------------------

    def _reconcile_report(self, report: BlockReportRequest) -> None:
        node = report.node
        if not 0 <= node < self.config.num_datanodes:
            raise DfsError(f"unknown datanode id {node}")
        nn = self.namenode
        self._addresses[node] = report.address
        self._last_beat[node] = self.clock.now
        real = {block_id for (block_id, _gen, _crc) in report.blocks}
        self._last_real[node] = set(real)
        dn = nn.datanodes[node]
        if not dn.alive:
            dn.recover()
        believed = set(dn.blocks())
        # Reality lost a believed replica (fresh disk after a restart,
        # torn write): unless the client push is still inside the write
        # grace, retract the location and let repair re-copy it.
        now = self.clock.now
        for block_id in sorted(believed - real):
            allocated = nn.pending_writes.get((block_id, node))
            if allocated is not None and now - allocated < nn.write_grace:
                continue
            nn.retract_replica(block_id, node)
        # Reality holding an unbelieved replica is handled by the tick's
        # delete push (belief is authoritative); re-registration of
        # believed blocks goes through the standard report path.
        nn.register_block_report(node)
        if nn.safe_mode and len(self._addresses) >= self.config.num_datanodes:
            nn.safe_mode = False
            _LOG.info(
                "all %d datanodes registered; leaving safe mode",
                self.config.num_datanodes,
            )
        nn.check_replication()

    # -- control loops ------------------------------------------------------

    async def _tick_loop(self) -> None:
        interval = min(0.5, self.config.heartbeat_interval / 2)
        while not self._stopping.is_set():
            try:
                self._tick()
            except Exception:  # pragma: no cover - loop must survive
                _LOG.exception("namenode tick failed")
            try:
                await asyncio.wait_for(
                    self._stopping.wait(), timeout=interval
                )
            except asyncio.TimeoutError:
                pass

    def _tick(self) -> None:
        now = self.clock.now
        nn = self.namenode
        # 1. Heartbeat expiry: a registered node that stopped beating is
        #    declared dead; its locations retract and repair begins.
        for node, beat in list(self._last_beat.items()):
            dn = nn.datanodes[node]
            if dn.alive and now - beat > self.config.heartbeat_expiry:
                _LOG.warning(
                    "datanode %d missed its heartbeat window "
                    "(last beat %.1fs ago); declaring dead",
                    node, now - beat,
                )
                if _REG.enabled:
                    _EXPIRIES.inc()
                nn.fail_node(node, re_replicate=not nn.safe_mode)
        # 2. Belief-authority deletes: evictions/purges/file deletes
        #    drop replicas from belief; push the delete to reality.
        for node, real in self._last_real.items():
            dn = nn.datanodes[node]
            if not dn.alive:
                continue
            address = self._addresses.get(node)
            if address is None:
                continue
            for block_id in sorted(real - dn.blocks()):
                real.discard(block_id)
                self._push_delete(address, block_id)
        # 3. Prune stale write-grace stamps.
        grace = NetworkNamenode.write_grace
        nn.pending_writes = {
            key: stamp for key, stamp in nn.pending_writes.items()
            if now - stamp < 2 * grace
        }
        # 4. Periodic replication safety net + Aurora period.
        if not nn.safe_mode and now - self._last_check >= max(
            1.0, self.config.heartbeat_interval
        ):
            self._last_check = now
            nn.check_replication()
        if (self.config.aurora_period > 0 and not nn.safe_mode
                and now - self._last_aurora >= self.config.aurora_period):
            self._last_aurora = now
            self._aurora_tick(now)

    def _push_delete(self, address: str, block_id: int) -> None:
        async def go() -> None:
            try:
                await asyncio.to_thread(
                    http_call, address, "DELETE", f"/blocks/{block_id}"
                )
            except HttpCallError:
                pass  # the next block report re-detects the extra

        asyncio.ensure_future(go())

    def _aurora_tick(self, now: float) -> None:
        """One Aurora period: Algorithm 3 over observed popularity."""
        nn = self.namenode
        blocks = list(nn.blockmap.block_ids())
        if not blocks:
            return
        live = len(nn.live_nodes())
        if live < 1:
            return
        observed = self.monitor.snapshot(now)
        popularities = {b: float(observed.get(b, 0)) for b in blocks}
        min_factor = max(1, min(self.config.min_replication, live))
        min_factors = {b: min_factor for b in blocks}
        budget = max(
            len(blocks) * min_factor,
            int(len(blocks) * self.config.replication_budget_factor),
        )
        current = {b: nn.blockmap.meta(b).replication_factor for b in blocks}
        initial = {
            b: max(min_factor, min(current[b], live)) for b in blocks
        }
        try:
            result = compute_replication_factors(
                popularities, min_factors, budget, num_machines=live,
                initial_factors=initial,
            )
        except InvalidProblemError as exc:
            _LOG.warning("aurora tick skipped: %s", exc)
            return
        raised = lowered = 0
        for block_id, factor in result.factors.items():
            if factor == current[block_id]:
                continue
            try:
                nn.set_replication(block_id, factor)
            except DfsError as exc:
                _LOG.warning(
                    "set_replication(%d, %d) failed: %s",
                    block_id, factor, exc,
                )
                continue
            if factor > current[block_id]:
                raised += 1
            else:
                lowered += 1
        if _REG.enabled:
            _AURORA_TICKS.inc()
            if raised:
                _FACTOR_CHANGES.labels(direction="raise").inc(raised)
            if lowered:
                _FACTOR_CHANGES.labels(direction="lower").inc(lowered)
        if raised or lowered:
            _LOG.info(
                "aurora period at t=%.1f: %d factors raised, %d lowered",
                now, raised, lowered,
            )

    # -- HTTP surface -------------------------------------------------------

    def _register_routes(self) -> None:
        http = self.http
        http.route("GET", "/healthz", self._h_healthz)
        http.route("GET", "/metrics", self._h_metrics)
        http.route("GET", "/v1/status", self._h_status)
        http.route("POST", "/v1/files", self._h_create_file)
        http.route("GET", "/v1/files", self._h_get_file)
        http.route("DELETE", "/v1/files", self._h_delete_file)
        http.route("POST", "/v1/files/replication", self._h_set_replication)
        http.route("GET", "/v1/blocks/{block_id}/locations", self._h_locate)
        http.route("POST", "/v1/blocks/{block_id}/access", self._h_access)
        http.route("POST", "/v1/blocks/{block_id}/corrupt", self._h_corrupt)
        http.route("GET", "/v1/fsck", self._h_fsck)
        http.route("POST", "/v1/scrub", self._h_scrub)
        http.route("POST", "/dn/register", self._h_register)
        http.route("POST", "/dn/heartbeat", self._h_heartbeat)
        http.route("POST", "/dn/report", self._h_report)
        http.route("POST", "/admin/lead", self._h_lead)
        http.route("POST", "/admin/shutdown", self._h_shutdown)

    def _redirect(self) -> Optional[Response]:
        """Follower mode: send the caller to the leader."""
        if self.leader_address is None:
            return None
        exc = NoLeaderError(
            f"not the leader; try {self.leader_address}"
        )
        return Response(
            307,
            encode_error(exc, leader=self.leader_address),
            headers={"Location": f"http://{self.leader_address}"},
        )

    async def _h_healthz(self, request: HttpRequest) -> Response:
        nn = self.namenode
        return Response(200, {
            "ok": True,
            "role": "namenode",
            "leader": self.leader_address is None,
            "leader_address": self.leader_address,
            "safe_mode": nn.safe_mode,
            "registered_datanodes": len(self._addresses),
            "expected_datanodes": self.config.num_datanodes,
            "live_datanodes": sorted(nn.live_nodes()),
        })

    async def _h_metrics(self, request: HttpRequest) -> Response:
        from repro.obs.exporters import to_prometheus_text

        return Response(200, to_prometheus_text(_REG))

    async def _h_status(self, request: HttpRequest) -> Response:
        nn = self.namenode
        return Response(200, {
            "files": len(nn.list_files()),
            "blocks": nn.blockmap.num_blocks,
            "live_datanodes": sorted(nn.live_nodes()),
            "addresses": {
                str(node): addr for node, addr in self._addresses.items()
            },
            "safe_mode": nn.safe_mode,
            "under_replicated": len(
                nn.blockmap.under_replicated(nn.live_nodes())
            ),
            "replications_completed": nn.replications_completed,
            "uptime": self.clock.now,
        })

    def _file_info(self, meta: FileMeta) -> FileInfo:
        nn = self.namenode
        blocks = []
        for block_id in meta.block_ids:
            block_meta = nn.blockmap.meta(block_id)
            locations = [
                ReplicaLocation(node=node, address=self._addresses[node])
                for node in sorted(nn.verified_locations(block_id))
                if node in self._addresses
            ]
            blocks.append(BlockInfo(
                block_id=block_id, size=block_meta.size,
                locations=locations,
            ))
        return FileInfo(
            path=meta.path, file_id=meta.file_id,
            block_size=meta.block_size, blocks=blocks,
        )

    async def _h_create_file(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        req = CreateFileRequest.from_wire(request.json())
        meta = self.namenode.create_file(
            req.path,
            req.num_blocks,
            block_size=req.block_size or DEFAULT_MAX_BLOCK_SIZE,
            writer=req.writer,
            replication=req.replication,
            rack_spread=req.rack_spread,
        )
        return Response(201, self._file_info(meta).to_wire())

    async def _h_get_file(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        path = request.query.get("path")
        if path is None:
            return Response(200, {"paths": self.namenode.list_files()})
        return Response(
            200, self._file_info(self.namenode.file(path)).to_wire()
        )

    async def _h_delete_file(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        path = request.query.get("path", "")
        self.namenode.delete_file(path)
        return Response(200, {"deleted": path})

    async def _h_set_replication(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        body = request.json()
        path = str(body.get("path", ""))
        factor = int(body.get("factor", 0))
        for block_id in self.namenode.file(path).block_ids:
            self.namenode.set_replication(block_id, factor)
        return Response(200, {"path": path, "factor": factor})

    async def _h_locate(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        block_id = int(request.params["block_id"])
        reader = int(request.query.get("reader", "0"))
        nn = self.namenode
        meta = nn.blockmap.meta(block_id)
        candidates = [
            ReplicaLocation(node=node, address=self._addresses[node])
            for node in nn.replica_preference(block_id, reader)
            if node in self._addresses
        ]
        return Response(200, LocateResponse(
            block_id=block_id, size=meta.size, candidates=candidates,
        ).to_wire())

    async def _h_access(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        report = AccessReport.from_wire(
            dict(request.json(), block_id=int(request.params["block_id"]))
        )
        try:
            self.namenode.record_access(
                report.block_id, report.reader, source=report.source
            )
        except DfsError:
            # Belief is momentarily behind reality (the serving replica
            # just got retracted); the read still happened, so Aurora's
            # popularity signal must see it.
            self.monitor.record_access(report.block_id, self.clock.now)
        return Response(200, {"ok": True})

    async def _h_corrupt(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        report = CorruptReport.from_wire(
            dict(request.json(), block_id=int(request.params["block_id"]))
        )
        accepted = self.namenode.report_corrupt_replica(
            report.block_id, report.node, detector=report.detector
        )
        return Response(200, {"accepted": accepted})

    async def _h_fsck(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        if request.query.get("verify") in ("1", "true"):
            await self._scrub_pass()
        report = run_fsck(self.namenode)
        return Response(200, dict(
            report.to_dict(),
            wire={
                "registered_datanodes": len(self._addresses),
                "live_datanodes": sorted(self.namenode.live_nodes()),
            },
        ))

    async def _scrub_pass(self) -> ScrubSummary:
        """Ask every live datanode to re-checksum its replicas."""
        nn = self.namenode
        verified = corrupt = scrubbed = unreachable = 0
        for node in sorted(nn.live_nodes()):
            address = self._addresses.get(node)
            if address is None:
                continue
            try:
                status, body, _ = await asyncio.to_thread(
                    http_call, address, "POST", "/admin/verify",
                )
            except HttpCallError:
                unreachable += 1
                continue
            if status != 200 or not isinstance(body, dict):
                unreachable += 1
                continue
            scrubbed += 1
            verified += int(body.get("verified", 0))
            for block_id in body.get("corrupt", []):
                corrupt += 1
                nn.report_corrupt_replica(
                    int(block_id), node, detector="scrubber"
                )
        return ScrubSummary(
            replicas_verified=verified, corrupt_found=corrupt,
            nodes_scrubbed=scrubbed, nodes_unreachable=unreachable,
        )

    async def _h_scrub(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        summary = await self._scrub_pass()
        return Response(200, summary.to_wire())

    async def _h_register(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        report = BlockReportRequest.from_wire(request.json())
        self._reconcile_report(report)
        _LOG.info(
            "datanode %d registered from %s (%d blocks)",
            report.node, report.address, len(report.blocks),
        )
        return Response(200, {
            "ok": True,
            "heartbeat_interval": self.config.heartbeat_interval,
            "safe_mode": self.namenode.safe_mode,
        })

    async def _h_heartbeat(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        beat = HeartbeatRequest.from_wire(request.json())
        if _REG.enabled:
            _HEARTBEATS.inc()
        known = beat.node in self._addresses
        dn_alive = (
            known and self.namenode.datanodes[beat.node].alive
        )
        if known:
            self._last_beat[beat.node] = self.clock.now
            self.namenode.node_saturation[beat.node] = beat.saturation
        # A beat from an unknown or believed-dead node means this
        # namenode's belief is behind reality — ask for a full report.
        return Response(200, {"ok": True, "report": not dn_alive})

    async def _h_report(self, request: HttpRequest) -> Response:
        redirect = self._redirect()
        if redirect is not None:
            return redirect
        report = BlockReportRequest.from_wire(request.json())
        self._reconcile_report(report)
        return Response(200, {"ok": True})

    async def _h_lead(self, request: HttpRequest) -> Response:
        leader = request.json().get("leader")
        self.leader_address = str(leader) if leader else None
        return Response(200, {
            "ok": True, "leader": self.leader_address is None,
        })

    async def _h_shutdown(self, request: HttpRequest) -> Response:
        self._stopping.set()
        return Response(200, {"ok": True})

    # -- lifecycle ----------------------------------------------------------

    async def run(self, announce=None) -> None:
        """Serve until shut down."""
        self.clock.bind(asyncio.get_running_loop())
        address = await self.http.start(self.config.host, self.config.port)
        if announce is not None:
            announce(address)
        ticker = asyncio.ensure_future(self._tick_loop())
        try:
            await self._stopping.wait()
        finally:
            ticker.cancel()
            await self.http.stop()

    def request_stop(self) -> None:
        self._stopping.set()
