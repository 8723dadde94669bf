"""Outside-in tracing and process probes for the traced benchmark run.

Nothing here edits the program.  :class:`Tracer` swaps wrappers onto
the public entry points of each runtime layer — at the names the
callers look up, e.g. ``repro.runtime.node.routing_table`` — and puts
the originals back on :meth:`Tracer.uninstall`.  Each wrapper either
records a span (name, start, end, parent span, request id) into
in-memory columns or only bumps counters, whichever the layer's metric
needs.  Spans are written out once, when the run ends.

Synchronous spans nest through a plain stack: they cannot yield, so
the innermost open span is their parent.  Coroutine spans (placement
decisions, membership operations, bootstrap RPCs) are recorded without
a parent, because other tasks run while they are suspended.

The probes (GC pauses via ``gc.callbacks``, an event-loop lag sampler,
an inbox-depth sampler) each time their own callbacks so the traced run
can report what observing costs.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import repro.runtime.node as node_module
from repro.core.routing import routing_table_cache_info
from repro.net.message import MessageKind
from repro.runtime import AdmissionController, FrameEncoder, LiveCluster, RuntimeClient
from repro.runtime.scaleout import BootstrapServer

import loadgen

SPAN_CAP = 3_000_000
"""Spans kept in memory; later spans are counted but not stored."""

MEMBERSHIP_OPS = ("crash", "join", "leave", "announce_crash")


class Tracer:
    """Wrappers around the layer entry points, plus what they recorded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_req = array("q")
        self.dropped = 0
        self.frames_by_kind: Counter = Counter()
        self.frame_bytes = 0
        self.flushes = 0
        self.send_by_kind: Counter = Counter()
        self.dequeued = 0
        self.sheds = 0
        self.replicas = 0
        self._inboxes: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cache0: dict[str, int] = {}

    # -- span storage ------------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _record(self, name_id: int, start: float, end: float, parent: int,
                req: int) -> int:
        if len(self.span_start) >= SPAN_CAP:
            self.dropped += 1
            return -1
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_req.append(req)
        return len(self.span_start) - 1

    def _sync_span(self, name: str, fn, req_of=None):
        """Wrap a synchronous callable in a nesting span."""
        name_id = self._name(name)
        stack = self._stack
        record = self._record
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            # Reserve the slot so children can name it as their parent.
            slot = record(name_id, 0.0, 0.0, parent,
                          req_of(args) if req_of is not None else -1)
            stack.append(slot)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if slot >= 0:
                    tracer.span_start[slot] = start
                    tracer.span_end[slot] = end

        return wrapper

    def _async_span(self, name: str, fn, on_result=None):
        """Wrap a coroutine function in a parentless span."""
        name_id = self._name(name)
        record = self._record

        async def wrapper(*args, **kwargs):
            start = perf_counter()
            result = await fn(*args, **kwargs)
            record(name_id, start, perf_counter(), -1, -1)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- install / uninstall ------------------------------------------------

    def install(self, nodes=None) -> None:
        """Wrap every layer; ``nodes`` are in-process node servers whose
        inbox dequeues are counted."""
        tracer = self

        self._patch(RuntimeClient, "request_future", self._sync_span(
            "client.request_future", RuntimeClient.request_future,
            req_of=lambda args: args[1].request_id,
        ))
        self._patch(loadgen.OpenLoop, "_fire", self._sync_span(
            "loadgen.fire", loadgen.OpenLoop._fire))
        self._patch(loadgen.OpenLoop, "_on_reply", self._sync_span(
            "loadgen.reply", loadgen.OpenLoop._on_reply))
        self._patch(node_module, "routing_table", self._sync_span(
            "routing.table", node_module.routing_table))

        add = FrameEncoder.add

        def counted_add(encoder, msg, version=2):
            size = add(encoder, msg, version)
            tracer.frames_by_kind[msg.kind] += 1
            tracer.frame_bytes += size
            return size

        flush_to = FrameEncoder.flush_to

        def counted_flush(encoder, writer):
            tracer.flushes += 1
            return flush_to(encoder, writer)

        self._patch(FrameEncoder, "add", counted_add)
        self._patch(FrameEncoder, "flush_to", counted_flush)

        send = LiveCluster.send

        async def counted_send(cluster, src, msg):
            tracer.send_by_kind[msg.kind] += 1
            return await send(cluster, src, msg)

        self._patch(LiveCluster, "send", counted_send)

        # Node consumers bind their inbox once, so dequeues are counted
        # on each queue instance: one ``task_done`` per dequeued message.
        for node in (nodes or {}).values():
            inbox = node.inbox
            task_done = inbox.task_done

            def counted_done(_done=task_done):
                tracer.dequeued += 1
                _done()

            inbox.task_done = counted_done
            self._inboxes.append(inbox)

        admit = AdmissionController.admit

        def counted_admit(controller, msg, conn=None):
            accepted, victims = admit(controller, msg, conn)
            tracer.sheds += len(victims) + (0 if accepted else 1)
            return accepted, victims

        self._patch(AdmissionController, "admit", counted_admit)

        def count_replica(target) -> None:
            if target is not None:
                tracer.replicas += 1

        self._patch(LiveCluster, "decide_replication", self._async_span(
            "coord.decide", LiveCluster.decide_replication, count_replica))
        self._patch(LiveCluster, "catalog_advance", self._async_span(
            "coord.advance", LiveCluster.catalog_advance))
        for op in MEMBERSHIP_OPS:
            self._patch(LiveCluster, op, self._async_span(
                "coord.membership", getattr(LiveCluster, op)))
        self._patch(BootstrapServer, "_handle", self._async_span(
            "bootstrap.rpc", BootstrapServer._handle))
        self._cache0 = routing_table_cache_info()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for inbox in self._inboxes:
            del inbox.task_done
        self._inboxes.clear()
        info = routing_table_cache_info()
        self.cache_hits = info["hits"] - self._cache0.get("hits", 0)
        self.cache_misses = info["misses"] - self._cache0.get("misses", 0)

    # -- analysis -----------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        parents = self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """One line per span: id, name, start, end, parent, request id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest_id\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t"
                    f"{self.span_req[i]}\n"
                )

    @property
    def update_frames(self) -> int:
        return self.send_by_kind[MessageKind.UPDATE]

    @property
    def get_frames(self) -> int:
        return self.send_by_kind[MessageKind.GET]


class Probes:
    """GC, loop-lag and inbox-depth probes, each timing its own cost."""

    INTERVAL = 0.005

    def __init__(self, nodes=None) -> None:
        self.nodes = nodes
        self.gc_pause = 0.0
        self.gc_max = 0.0
        self.gc_collections = Counter()
        self.gc_cost = 0.0
        self.lag = array("d")
        self.lag_cost = 0.0
        self.depth = array("d")
        self.depth_sum = 0.0
        self.depth_samples = 0
        self.inbox_cost = 0.0
        self._gc_start = 0.0
        self._timers: list[asyncio.TimerHandle] = []
        self._running = False

    def _on_gc(self, phase: str, info: dict) -> None:
        t0 = perf_counter()
        if phase == "start":
            self._gc_start = t0
        else:
            pause = t0 - self._gc_start
            self.gc_pause += pause
            self.gc_max = max(self.gc_max, pause)
            self.gc_collections[info.get("generation", -1)] += 1
        self.gc_cost += perf_counter() - t0

    def _lag_tick(self, expected: float) -> None:
        t0 = perf_counter()
        loop = asyncio.get_running_loop()
        now = loop.time()
        self.lag.append(max(0.0, now - expected))
        if self._running:
            self._timers[0] = loop.call_at(
                now + self.INTERVAL, self._lag_tick, now + self.INTERVAL
            )
        self.lag_cost += perf_counter() - t0

    def _inbox_tick(self) -> None:
        t0 = perf_counter()
        total = 0
        for node in list(self.nodes.values()):
            depth = node.inbox.qsize()
            self.depth.append(depth)
            total += depth
        self.depth_sum += total
        self.depth_samples += 1
        if self._running:
            self._timers[1] = asyncio.get_running_loop().call_later(
                self.INTERVAL, self._inbox_tick
            )
        self.inbox_cost += perf_counter() - t0

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._running = True
        gc.callbacks.append(self._on_gc)
        now = loop.time()
        self._timers = [
            loop.call_at(now + self.INTERVAL, self._lag_tick, now + self.INTERVAL),
        ]
        if self.nodes is not None:
            self._timers.append(loop.call_later(self.INTERVAL, self._inbox_tick))

    def stop(self) -> None:
        self._running = False
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def cpu_seconds() -> float:
    """User + system CPU of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(ospid: int) -> float:
    """User + system CPU of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{ospid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # Fields after the command name: utime and stime are the 12th and
    # 13th (``stat`` fields 14 and 15).
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mib(ospid: int) -> float:
    """Peak resident set of another process (``VmHWM``)."""
    with open(f"/proc/{ospid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
