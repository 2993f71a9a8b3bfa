"""``serve_read`` / ``serve_write`` — one SDK client against a live cluster.

Both boot the same supervised cluster (one namenode and four datanode
processes on loopback) and drive it closed-loop from a single
:class:`ServeClient`: one request in flight, the next sent when the
previous returns.
"""

from __future__ import annotations

import os
import random
import socket
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import repro.serve.client as client_module
from repro.errors import DfsError
from repro.serve.client import ServeClient
from repro.serve.httpd import http_call
from repro.serve.supervisor import ClusterSupervisor, ServeConfig
from repro.workload.popularity import zipf_weights

from bench.spans import Tracer
from bench.workloads.base import Finish, Workload, max_over_mean

__all__ = ["ServeRead", "ServeWrite"]

_CLOCK_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")
_FSCK_WAIT_S = 8.0

_SPAN_METRICS = {
    "serve.client.locate_ms": ("self", "serve.client.locate"),
    "serve.client.fetch_ms": ("self", "serve.client.fetch"),
    "serve.client.report_ms": ("self", "serve.client.report"),
    "serve.client.verify_ms": ("self", "serve.client.verify"),
    "serve.client.create_ms": ("self", "serve.client.create"),
    "serve.client.push_ms": ("self", "serve.client.push"),
    "serve.client.self_ms": ("self", "serve.client.call"),
    "serve.supervisor.boot_s": ("setup", "serve.supervisor.boot"),
}


def _call_name(_address: str, method: str, path: str, *_a, **_k) -> str:
    """Which SDK step an ``http_call`` from ``repro.serve.client`` is."""
    method = method.upper()
    if path.startswith("/blocks/"):
        return {"GET": "serve.client.fetch",
                "PUT": "serve.client.push"}.get(method, "serve.client.other")
    if method == "GET" and "/locations" in path:
        return "serve.client.locate"
    if method == "POST" and path.endswith("/access"):
        return "serve.client.report"
    if method == "POST" and path == "/v1/files":
        return "serve.client.create"
    return "serve.client.other"


def _proc_cpu_ms(pid: int) -> float:
    """User + system CPU a live process has used, in milliseconds."""
    stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _CLOCK_TICK_MS


def _proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text("utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class _ServeWorkload(Workload):
    """Cluster lifecycle, tracing and accounting shared by both workloads."""

    span_metrics = _SPAN_METRICS
    # The servers' own periodic work shares the cores with the
    # calibration kernel and inflates samples taken next to it (up to
    # 230 ms), and syscall-bound round trips follow the memory-bound
    # kernel only some of the time: every scaling tried added noise in
    # some batch of runs, so serve timings are reported raw (README).
    normalise = False

    # Frozen cluster shape (see bench/README.md).
    RACKS, DATANODES_PER_RACK, REPLICATION = 2, 2, 2
    HEARTBEAT_S, HEARTBEAT_EXPIRY_S, AURORA_PERIOD_S = 1.0, 4.0, 2.0
    CAPACITY_BLOCKS = 4096
    PAYLOAD_POOL = 64

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        self.supervisor = None
        self.client = None
        if smoke:  # three processes and a fast heartbeat boot quickest
            self.RACKS, self.HEARTBEAT_S, self.HEARTBEAT_EXPIRY_S = 1, 0.25, 2.0
        self._rng = random.Random(seed)
        self._nodes = self.RACKS * self.DATANODES_PER_RACK
        self._cpu_before: Dict[str, float] = {}
        self._cpu_per_op: Dict[str, float] = {}

    def _client_nodes(self, count: int) -> List[int]:
        """The node each op's client sits on: every run of ``nodes``
        consecutive ops visits every node once, in a seeded order, so the
        origin of the load is exactly balanced and ``load_imbalance``
        measures the cluster, not the draw."""
        out: List[int] = []
        nodes = list(range(self._nodes))
        while len(out) < count:
            self._rng.shuffle(nodes)
            out.extend(nodes)
        return out[:count]

    def _payloads(self, size: int) -> List[bytes]:
        return [self._rng.randbytes(size) for _ in range(self.PAYLOAD_POOL)]

    # -- cluster lifecycle ---------------------------------------------------

    def _boot(self) -> None:
        """Start the processes and wait for safe-mode exit."""
        self.supervisor = ClusterSupervisor(ServeConfig(
            num_racks=self.RACKS,
            datanodes_per_rack=self.DATANODES_PER_RACK,
            capacity_blocks=self.CAPACITY_BLOCKS,
            heartbeat_interval=self.HEARTBEAT_S,
            heartbeat_expiry=self.HEARTBEAT_EXPIRY_S,
            default_replication=self.REPLICATION,
            aurora_period=self.AURORA_PERIOD_S,
        ))
        address = self.supervisor.start()
        self.supervisor.wait_ready()
        self.client = ServeClient(address, rng=random.Random(self.seed))

    def setup(self) -> None:
        try:
            self._boot()
            self._pin()
            self._fill()
        except BaseException:
            self.teardown()
            raise

    def _pin(self) -> None:
        """Put the client and the booted servers on one CPU.

        One request is in flight at a time, so client and servers take
        turns; on one CPU they do so without cross-core wake-ups and
        migrations, which halves the run-to-run spread (raw ops/s range
        16% unpinned, 8% pinned, same median).  Booting stays unpinned:
        five interpreters starting on one core take a second longer.
        """
        self._affinity = os.sched_getaffinity(0)
        cpu = {min(self._affinity)}
        os.sched_setaffinity(0, cpu)
        for pids in self._server_pids().values():
            for pid in pids:
                os.sched_setaffinity(pid, cpu)

    def _fill(self) -> None:
        """Data the workload needs in the cluster before the first op."""

    def teardown(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        if self._affinity:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = set()

    def _server_pids(self) -> Dict[str, List[int]]:
        return {
            "namenode": [self.supervisor.namenode_proc.pid],
            "datanode": [
                proc.pid for proc in self.supervisor.datanode_procs.values()
            ],
        }

    def _server_cpu_ms(self) -> Dict[str, float]:
        return {
            role: sum(_proc_cpu_ms(pid) for pid in pids)
            for role, pids in self._server_pids().items()
        }

    def begin_timed(self) -> None:
        self._cpu_before = self._server_cpu_ms()

    def _end_timed(self) -> float:
        """Server accounting, read before shutdown; returns peak RSS."""
        after = self._server_cpu_ms()
        self._cpu_per_op = {
            role: (after[role] - self._cpu_before[role]) / self.num_ops
            for role in after
        }
        return sum(
            _proc_peak_rss_mb(pid)
            for pids in self._server_pids().values() for pid in pids
        )

    def _wait_healthy(self) -> bool:
        """Wire fsck, polled while in-flight re-replication settles."""
        deadline = time.monotonic() + _FSCK_WAIT_S
        while True:
            if self.client.fsck().get("healthy"):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.25)

    # -- tracing -------------------------------------------------------------

    def install(self, tracer: Tracer) -> None:
        tracer.wrap(ClusterSupervisor, "start", "serve.supervisor.boot")
        tracer.wrap(ClusterSupervisor, "wait_ready", "serve.supervisor.boot")
        tracer.wrap(ServeClient, "read_block", "serve.client.call")
        tracer.wrap(ServeClient, "write_file", "serve.client.call")
        tracer.wrap(
            client_module, "http_call", "", namer=_call_name,
            after=lambda tr, *_a, **_k: tr.count("serve.httpd.calls"),
        )
        tracer.wrap(client_module, "payload_checksum", "serve.client.verify")
        _install_socket_counters(tracer)

    def counts(self) -> Dict[str, float]:
        return {
            "serve.namenode_service.cpu_ms_per_op": self._cpu_per_op["namenode"],
            "serve.datanode_service.cpu_ms_per_op": self._cpu_per_op["datanode"],
            "serve.client.failovers": self.client.read_failovers,
            "serve.client.read_errors": self.client.read_errors,
        }

    def layer_metrics(self, summary) -> Dict[str, float]:
        out = super().layer_metrics(summary)
        for counter in ("serve.httpd.calls", "serve.httpd.connects",
                        "serve.wire.bytes_sent", "serve.wire.bytes_received"):
            out[f"{counter}_per_op"] = out.pop(counter, 0) / summary.ops
        return out


def _install_socket_counters(tracer: Tracer) -> None:
    """Count the benchmark process's TCP connects and wire bytes.

    The counters sit on ``socket.socket`` itself, below ``http.client``,
    so they stay exact whatever transport the SDK grows (pooling,
    keep-alive); :meth:`Tracer.count` ignores traffic outside timed ops.
    """

    def counting(counter: str, amount):
        """Patch factory: add ``amount(result, args)`` to ``counter``."""
        def make(func):
            def counted(sock, *args, **kwargs):
                result = func(sock, *args, **kwargs)
                tracer.count(counter, amount(result, args))
                return result
            return counted
        return make

    sent, received = "serve.wire.bytes_sent", "serve.wire.bytes_received"
    patches = {
        "connect": counting("serve.httpd.connects", lambda _r, _a: 1),
        "sendall": counting(sent, lambda _r, args: len(args[0])),
        "send": counting(sent, lambda done, _a: done),
        "recv_into": counting(received, lambda done, _a: done),
        "recv": counting(received, lambda data, _a: len(data)),
    }
    for method, make in patches.items():
        tracer.patch(socket.socket, method, make)


class ServeRead(_ServeWorkload):
    name = "serve_read"

    FILES, BLOCKS_PER_FILE, BLOCK_BYTES = 128, 4, 4096
    SKEW = 1.1
    READS_PER_SECOND = 140.0

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        if smoke:
            self.FILES = 8
        self.warmups = 8 if smoke else 50
        self.num_ops = 60 if smoke else max(100, round(
            self.READS_PER_SECOND * seconds
        ))
        total = self.warmups + self.num_ops
        generator = np.random.default_rng(seed)
        # The client's node varies per op, as map tasks on every machine
        # would; a fixed one pins every read to its local replica and
        # every write's first replica to one datanode.
        self._readers = self._client_nodes(total)
        # Popularity is a property of files (the paper's model): a
        # Zipf-chosen file, then one of its blocks uniformly.
        ranks = generator.choice(
            self.FILES, size=total, p=zipf_weights(self.FILES, self.SKEW)
        ).tolist()
        within = generator.integers(self.BLOCKS_PER_FILE, size=total).tolist()
        order = list(range(self.FILES))
        self._rng.shuffle(order)
        self._picks = [
            order[rank] * self.BLOCKS_PER_FILE + block
            for rank, block in zip(ranks, within)
        ]
        self._pool = self._payloads(self.BLOCK_BYTES)
        self._served = [0] * self._nodes

    def _fill(self) -> None:
        self.block_ids: List[int] = []
        self.expected: Dict[int, bytes] = {}
        pool = self._pool
        for index in range(self.FILES):
            data = [
                pool[(index * self.BLOCKS_PER_FILE + b) % len(pool)]
                for b in range(self.BLOCKS_PER_FILE)
            ]
            self.client.reader = index % self._nodes
            info = self.client.write_file(f"/bench/read/{index}", data)
            for block, payload in zip(info.blocks, data):
                self.block_ids.append(block.block_id)
                self.expected[block.block_id] = payload

    def op(self, index: int) -> None:
        self.client.reader = self._readers[index]
        self.read = self.client.read_block(self.block_ids[self._picks[index]])

    def check(self, index: int) -> bool:
        read = self.read
        if index >= self.warmups:
            self._served[read.source] += 1
        return read.data == self.expected[read.block_id]

    def finish(self) -> Finish:
        child_rss = self._end_timed()
        problems = [] if self._wait_healthy() else ["wire fsck unhealthy"]
        return Finish(
            ok=not problems,
            load_imbalance=max_over_mean(self._served),
            child_rss_mb=child_rss,
            problems=problems,
        )


class ServeWrite(_ServeWorkload):
    name = "serve_write"

    BLOCKS_PER_FILE, BLOCK_BYTES = 2, 16384
    WRITES_PER_SECOND = 70.0
    READ_BACK_FILES = 48

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        self.warmups = 4 if smoke else 20
        self.num_ops = 30 if smoke else max(100, round(
            self.WRITES_PER_SECOND * seconds
        ))
        self._pool = self._payloads(self.BLOCK_BYTES)
        self._writers = self._client_nodes(self.warmups + self.num_ops)
        self._written: List[Tuple[str, List[bytes]]] = []

    def _data(self, index: int) -> List[bytes]:
        pool = self._pool
        return [
            pool[(index * self.BLOCKS_PER_FILE + b) % len(pool)]
            for b in range(self.BLOCKS_PER_FILE)
        ]

    def prepare(self, index: int) -> None:
        self._path = f"/bench/write/{index}"
        self._blocks = self._data(index)
        self.client.reader = self._writers[index]

    def op(self, index: int) -> None:
        self.info = self.client.write_file(self._path, self._blocks)

    def check(self, index: int) -> bool:
        self._written.append((self._path, self._blocks))
        blocks = self.info.blocks
        return (len(blocks) == self.BLOCKS_PER_FILE
                and all(block.locations for block in blocks))

    def finish(self) -> Finish:
        child_rss = self._end_timed()
        problems = []
        # Read back an evenly spaced sample of the timed writes; reading
        # all of them would take as long as the timed phase itself.
        timed = self._written[self.warmups:]
        step = max(1, len(timed) // self.READ_BACK_FILES)
        wrong = 0
        for path, data in timed[::step]:
            try:
                reads = self.client.read_file(path)
            except DfsError as exc:
                problems.append(f"read back of {path} failed: {exc}")
                wrong += 1
                continue
            if [read.data for read in reads] != data:
                problems.append(f"read back of {path} differs")
                wrong += 1
        if not self._wait_healthy():
            problems.append("wire fsck unhealthy")
        stored = []
        for address in self.supervisor.datanode_addresses.values():
            _status, body, _headers = http_call(address, "GET", "/healthz")
            stored.append(body["blocks"])
        return Finish(
            ok=not problems,
            load_imbalance=max_over_mean(stored),
            failed_ops=wrong,
            child_rss_mb=child_rss,
            problems=problems,
        )
