"""`NodeServer`: one live LessLog node as an asyncio service.

Each node is a single consumer task draining an inbox of decoded
frames, plus one housekeeping task (the load monitor / overload
sweeper) and one reader task per open connection.  The consumer never
blocks on a reply — multi-message flows (an INSERT fanning out to its
``2**b`` homes, a GET climbing the lookup tree) park their state in a
pending table keyed by ``request_id`` and resume when the matching
ACK / GET_REPLY frame arrives.  That keeps every node deadlock-free by
construction: a node can always make progress on its inbox.

The node serves the paper's four flows with the *existing core
algebra* — the same calls `LessLogSystem` makes, just spread across
messages:

* **GET** (§2.2/§3/§4) climbs ``first_alive_ancestor`` within the
  entry's subtree, migrating across the remaining ``2**b - 1``
  subtrees on a fault; the serving node replies toward the request's
  ``origin`` node, which relays to the client connection.
* **INSERT** (§3/§4) computes one storage node per subtree and fans
  out, acking the client once every home confirmed.
* **UPDATE** (§2.2) broadcasts top-down from each subtree root
  (bypassing a dead root to its children list); holders re-broadcast,
  non-holders discard.
* **REPLICATE** (§2.2/§3) runs the placement policy inside the
  overloaded node's subtree via the §4 identity reduction — the exact
  computation ``LessLogSystem.replicate`` performs — and pushes the
  copy to the chosen node.

Dead peers are discovered the §3 way: a failed send marks the peer
dead in this node's own status word and the routing step recomputes —
the message-level ``FINDLIVENODE``.

**Overload control plane.**  With ``RuntimeConfig(inbox_limit=N)`` the
node consults an :class:`~repro.runtime.overload.AdmissionController`
for every wire arrival: data GETs beyond the bound are shed per the
configured shed × queue × victim policy cell, and every victim is
answered with an OVERLOAD frame naming the shedding node and a
redirect hint — never silently dropped, so dropped-vs-rerouted-vs-
served accounting stays conserved.  Control traffic is never shed.
With a finite ``slo_budget`` the sweeper also watches a windowed
enqueue-to-serve latency p99 and replicates away load when it drifts
past budget, before the raw hit counter trips.

**Fast path.**  Routing decisions read the LRU-cached
:class:`~repro.core.routing.RoutingTable` instead of re-deriving the
bitwise walks per message: the node's status word fingerprints its own
content (``cache_token``), so next-hop, FINDLIVENODE, and children
lists are O(1) array/memo lookups, and any word mutation (a failed
send, a REGISTER frame) changes the token and transparently
invalidates the cache.  Subtree decisions reuse per-``(root, sid)``
identity reductions (:func:`identity_tree` + :class:`SvidLiveness`)
memoized on the node.  The inbox consumer drains a bounded *batch* of
messages per scheduling tick (``RuntimeConfig.batch_max``), and the
sweeper optionally runs counter-based idle decay: a REPLICATED copy
whose access counter has not moved for ``idle_timeout`` seconds is
REMOVEd via a frame to self and the decision is recorded in the oplog
for conformance replay.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING

from ..core.errors import NoLiveNodeError
from ..core.routing import routing_table
from ..core.subtree import (
    SubtreeView,
    SvidLiveness,
    identity_tree,
    subtree_of_pid,
)
from ..core.tree import LookupTree
from ..net.message import Message, MessageKind, fast_message
from ..node.loadmon import LoadMonitor
from ..node.storage import FileOrigin, FileStore
from .overload import AdmissionController, LatencyTracker
from .wire import FrameEncoder, FrameError, FrameReader

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import LiveCluster

__all__ = ["CLIENT", "NodeServer", "subtree_children"]

CLIENT = -1
"""``src`` of a request arriving straight from a client connection."""

_WRITE_HIGH_WATER = 1 << 16
"""Transport buffer level above which a writer awaits ``drain()``."""

_SLO_MIN_SAMPLES = 8
"""Windowed latency samples required before the p99 SLO trigger can
fire — a lone slow request must not cause a replication round."""


def subtree_children(view: SubtreeView, pid: int, word) -> list[int]:
    """Advanced children list of ``pid`` within its subtree.

    The same reduction ``LessLogSystem._subtree_children_list`` runs:
    identity-map the subtree to a standalone tree, take the §3 children
    list there, map back to PIDs.  Served from the LRU routing-table
    cache — the table memoizes children lists per PID, so repeated
    broadcast steps at the same liveness cost one dict lookup.
    """
    itree = identity_tree(view)
    sliveness = SvidLiveness(view, word)
    try:
        table = routing_table(itree, sliveness)
    except NoLiveNodeError:
        return []
    svid = view.tree.vid_of(pid) >> view.b
    return [
        view.pid_of_svid(s)
        for s in table.children_list(svid, itree, sliveness)
    ]


@dataclass(eq=False)
class _Connection:
    """One open stream (client or peer) attached to this node."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    encoder: FrameEncoder
    """Reusable reply-frame buffer: replies within one inbox batch
    accumulate here and leave in a single vectored ``writelines``."""
    flush_scheduled: bool = False
    """A tick-coalesced flush callback is pending for this connection."""
    closed: bool = False

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class _PendingGet:
    """A client GET this node entered into the overlay, awaiting a reply."""

    conn: _Connection


@dataclass
class _PendingInsert:
    """A client INSERT awaiting ACKs from its remote homes."""

    conn: _Connection
    awaiting: int
    reply: Message


class NodeServer:
    """One live node: storage, membership view, and the four flows."""

    def __init__(self, pid: int, cluster: "LiveCluster") -> None:
        self.pid = pid
        self.cluster = cluster
        config = cluster.config
        self.m = config.m
        self.b = config.b
        self.word = cluster.word.copy()
        self.store = FileStore()
        self.monitor = LoadMonitor(capacity=1.0, window=config.window)
        self.inbox: asyncio.Queue[tuple[Message, _Connection | None]] = asyncio.Queue()
        self.pending: dict[int, _PendingGet | _PendingInsert] = {}
        self.admission = (
            AdmissionController(
                config.overload_policy(), config.inbox_limit,
                seed=(config.seed * 69_069 + pid) & 0x7FFFFFFF,
            )
            if config.inbox_limit > 0
            else None
        )
        self.latency = LatencyTracker(window=config.window)
        self._track_latency = config.slo_budget != float("inf")
        self._arrivals: dict[int, float] = {}
        self.busy = False
        self.served_total = 0
        self.shed_total = 0
        self.decode_errors = 0
        self.last_replication = -float("inf")
        self._decision_count = 0
        self._sub_ctx: dict[
            tuple[int, int], tuple[SubtreeView, LookupTree, SvidLiveness]
        ] = {}
        # file → last observed alternative-holder set; the (lagging)
        # knowledge _redirect_hint falls back on when the fresh holder
        # view offers no alternative.
        self._hint_cache: dict[str, tuple[int, ...]] = {}
        self._access_marks: dict[str, tuple[int, float]] = {}
        self._batch_conns: set[_Connection] | None = None
        self._conns: set[_Connection] = set()
        self._tasks: list[asyncio.Task] = []
        self._serve_queue: deque[tuple[float, Message, float | None]] = deque()
        self._serve_waiter: asyncio.Future | None = None
        self._serving = False
        self._pipelined = config.batch_max > 1
        self._running = True

    def start(self) -> None:
        """Spawn the consumer, sweeper, and serve-worker tasks."""
        loop = asyncio.get_running_loop()
        self._tasks.append(loop.create_task(self._consume(), name=f"node:{self.pid}"))
        self._tasks.append(loop.create_task(self._sweep(), name=f"sweep:{self.pid}"))
        if self._pipelined and self.cluster.config.service_time > 0:
            self._tasks.append(
                loop.create_task(self._serve_worker(), name=f"serve:{self.pid}")
            )

    # -- connection plumbing ------------------------------------------------

    def attach(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Adopt an accepted stream: spawn its frame-reader task."""
        conn = _Connection(reader, writer, FrameEncoder())
        self._conns.add(conn)
        task = asyncio.get_running_loop().create_task(
            self._read_loop(conn), name=f"read:{self.pid}"
        )
        self._tasks.append(task)

    async def _read_loop(self, conn: _Connection) -> None:
        """Batch-decode incoming frames off one connection.

        One ``FrameReader.read_batch`` await drains every complete
        frame the transport has buffered — a burst of pipelined
        requests costs one scheduling round trip, not one per frame.
        Well-framed bodies that fail to decode are counted and skipped
        (framing stays aligned); framing damage ends the connection.
        """
        frames = FrameReader(conn.reader, self.cluster.config.max_frame)
        stage = self.cluster.stage_seconds
        inbox_put = self.inbox.put_nowait
        enqueued = self.cluster.msg_enqueued
        decoded = 0.0
        try:
            while self._running:
                msgs, errors = await frames.read_batch()
                if errors:
                    # Well-framed but malformed bodies: count them and
                    # keep the connection — framing is still aligned.
                    self.decode_errors += errors
                    for _ in range(errors):
                        self.cluster.note_decode_error(self.pid)
                admission = self.admission
                if admission is None and not self._track_latency:
                    for msg in msgs:
                        inbox_put((msg, conn))
                        enqueued(self.pid, msg.src)
                else:
                    now = asyncio.get_running_loop().time()
                    for msg in msgs:
                        if self._track_latency and msg.kind is MessageKind.GET:
                            self._arrivals[msg.request_id] = now
                        if admission is not None:
                            accepted, victims = admission.admit(msg, conn)
                            for victim_msg, victim_conn in victims:
                                await self._shed(victim_msg, victim_conn)
                            if not accepted:
                                await self._shed(msg, conn)
                                # The shed arrival never reaches the
                                # inbox, but the sender's in-flight
                                # accounting must still settle or
                                # drain() hangs on this frame forever.
                                enqueued(self.pid, msg.src)
                                continue
                        inbox_put((msg, conn))
                        enqueued(self.pid, msg.src)
                stage["decode"] += frames.decode_seconds - decoded
                decoded = frames.decode_seconds
        except (EOFError, FrameError, ConnectionError, OSError):
            pass
        finally:
            self._conns.discard(conn)
            await conn.close()

    def deliver_local(self, msg: Message) -> None:
        """Enqueue a message this node addressed to itself."""
        self.inbox.put_nowait((msg, None))

    async def _write_client(self, conn: _Connection, msg: Message) -> None:
        """Best-effort reply to a client connection.

        The frame lands in the connection's reusable encoder buffer.
        Mid-batch (the inbox consumer holds ``_batch_conns``) the flush
        is deferred so every reply of the batch leaves in one vectored
        ``writelines``.  Outside a batch, one ``call_soon`` flush is
        scheduled per connection per event-loop iteration — replies
        from serve tasks whose timers expired in the same tick share a
        single syscall; a backlogged transport is flushed and drained
        at once instead.
        """
        if conn.closed:
            return
        try:
            t0 = perf_counter()
            conn.encoder.add(msg)
            self.cluster.stage_seconds["encode"] += perf_counter() - t0
            if self._batch_conns is not None:
                self._batch_conns.add(conn)
                return
            transport = conn.writer.transport
            if (
                transport is not None
                and transport.get_write_buffer_size() > _WRITE_HIGH_WATER
            ):
                conn.encoder.flush_to(conn.writer)
                await conn.writer.drain()
            elif not conn.flush_scheduled:
                conn.flush_scheduled = True
                asyncio.get_running_loop().call_soon(
                    self._flush_conn_soon, conn
                )
        except (ConnectionError, OSError):
            await conn.close()

    def _flush_conn_soon(self, conn: _Connection) -> None:
        """Tick-coalesced flush: every reply buffered this iteration."""
        conn.flush_scheduled = False
        if conn.closed or not conn.encoder.pending:
            return
        try:
            conn.encoder.flush_to(conn.writer)
        except (ConnectionError, OSError):  # pragma: no cover - client died
            conn.encoder.reset()

    async def _flush_batch_conns(self, conns: set[_Connection]) -> None:
        """Flush every connection a consumer batch wrote replies to."""
        for conn in conns:
            if conn.closed or not conn.encoder.pending:
                continue
            try:
                conn.encoder.flush_to(conn.writer)
                transport = conn.writer.transport
                if (
                    transport is not None
                    and transport.get_write_buffer_size() > _WRITE_HIGH_WATER
                ):
                    await conn.writer.drain()
            except (ConnectionError, OSError):
                await conn.close()
        conns.clear()

    async def _send(self, msg: Message) -> bool:
        """Send toward a peer; a dead peer is marked in our own word.

        Returning ``False`` is the §3 fault-discovery moment: the
        caller recomputes its routing step against the updated word.
        """
        from .cluster import PeerUnreachableError

        try:
            await self.cluster.send(self.pid, msg)
            return True
        except PeerUnreachableError:
            if 0 <= msg.dst < (1 << self.m) and msg.dst != self.pid:
                self.word.register_dead(msg.dst)
            return False

    # -- main loop ----------------------------------------------------------

    async def _consume(self) -> None:
        """Drain the inbox in bounded batches per scheduling tick.

        After the first (awaited) message, up to ``batch_max - 1`` more
        already-queued messages are processed without yielding back to
        the event loop — amortising the task switch over the batch.
        The per-message accounting (``task_done``, error counters)
        is unchanged, so ``drain()`` semantics are preserved.

        Batch-aware encode: while the batch runs, reply frames written
        through :meth:`_write_client` accumulate in their connection's
        encoder buffer and are flushed once per batch as a single
        vectored write — one ``writelines`` per (connection, batch)
        instead of one write per reply.
        """
        inbox = self.inbox
        batch_max = self.cluster.config.batch_max
        batch_conns: set[_Connection] = set()
        while self._running:
            msg, conn = await inbox.get()
            self.busy = True
            drained = 1
            self._batch_conns = batch_conns
            try:
                while True:
                    try:
                        await self._dispatch(msg, conn)
                    except asyncio.CancelledError:  # pragma: no cover
                        raise
                    except Exception:  # pragma: no cover - defensive
                        self.cluster.note_handler_error(self.pid)
                    finally:
                        inbox.task_done()
                    if drained >= batch_max:
                        break
                    try:
                        msg, conn = inbox.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    drained += 1
            finally:
                self._batch_conns = None
                if batch_conns:
                    await self._flush_batch_conns(batch_conns)
                self.busy = False

    async def _dispatch(self, msg: Message, conn: _Connection | None) -> None:
        kind = msg.kind
        if kind is MessageKind.GET:
            await self._handle_get(msg, conn)
        elif kind in (MessageKind.GET_REPLY, MessageKind.GET_FAULT,
                      MessageKind.ERROR):
            await self._handle_reply(msg)
        elif kind is MessageKind.ACK:
            await self._handle_ack(msg)
        elif kind is MessageKind.INSERT:
            await self._handle_insert(msg, conn)
        elif kind is MessageKind.UPDATE:
            await self._handle_update(msg, conn)
        elif kind is MessageKind.REPLICATE:
            self._handle_replicate(msg)
        elif kind is MessageKind.OVERLOAD:
            payload = msg.payload if isinstance(msg.payload, dict) else {}
            if "shed_by" in payload:
                # A shed reply travelling back toward its entry node:
                # relay it to the waiting client like any terminal reply.
                await self._handle_reply(msg)
            else:
                # Admin trigger (src == ADMIN): treat this node as
                # overloaded and run one placement decision.
                await self._replicate_decision(msg.file, seed=payload.get("seed"))
        elif kind is MessageKind.TRANSFER:
            self._handle_transfer(msg)
        elif kind is MessageKind.DEMOTE:
            if msg.file in self.store:
                self.store.get(msg.file, count_access=False).origin = (
                    FileOrigin.REPLICATED
                )
        elif kind is MessageKind.REMOVE:
            self.store.discard(msg.file)
            payload = msg.payload if isinstance(msg.payload, dict) else {}
            if payload.get("decay"):
                # Idle-decay removal: mirror the oracle's post-remove
                # orphan GC so downstream-only holders don't linger.
                self.cluster.resolve_pending_removal(msg.file, self.pid)
                await self.cluster.gc_after_removal(msg.file)
        elif kind is MessageKind.REGISTER_LIVE:
            self.word.register_live(int(msg.payload["pid"]))
        elif kind is MessageKind.REGISTER_DEAD:
            self.word.register_dead(int(msg.payload["pid"]))

    # -- routing-table helpers ---------------------------------------------

    def _subtree_ctx(
        self, tree: LookupTree, sid: int
    ) -> tuple[SubtreeView, LookupTree, SvidLiveness]:
        """Memoized §4 identity reduction for one ``(root, sid)``.

        The view/tree pair is pure structure; the ``SvidLiveness``
        wraps this node's *mutable* word, so routing tables fetched
        through it invalidate on any word change via the cache token.
        """
        key = (tree.root, sid)
        ctx = self._sub_ctx.get(key)
        if ctx is None:
            view = SubtreeView(tree, self.b, sid)
            ctx = (view, identity_tree(view), SvidLiveness(view, self.word))
            self._sub_ctx[key] = ctx
        return ctx

    # -- GET ----------------------------------------------------------------

    async def _handle_get(self, msg: Message, conn: _Connection | None) -> None:
        admission = self.admission
        if admission is not None and admission.release(msg):
            return  # shed while queued; its OVERLOAD reply already left
        arrival = (
            self._arrivals.pop(msg.request_id, None)
            if self._track_latency else None
        )
        if msg.src == CLIENT:
            # Entry node: stamp the origin and remember the client.
            # (fast_message — this runs for every client GET and both
            # dataclasses.replace and the frozen __init__ cost more.)
            msg = fast_message(
                msg.kind, msg.src, msg.dst, msg.file, msg.payload,
                msg.version, msg.hops, self.pid, msg.request_id,
            )
            if conn is not None:
                self.pending[msg.request_id] = _PendingGet(conn)
        if msg.file in self.store:
            if self._pipelined and self.cluster.config.service_time > 0:
                # Fast path: overlap the (simulated) service latencies
                # instead of serializing them through the consumer.
                # Arrivals are FIFO and the service time is constant,
                # so due times are monotonic: one worker task with one
                # timer per wake replaces a task + sleep per request,
                # and requests due in the same wake share the tick.
                self._serve_queue.append(
                    (asyncio.get_running_loop().time()
                     + self.cluster.config.service_time, msg, arrival)
                )
                waiter = self._serve_waiter
                if waiter is not None:
                    self._serve_waiter = None
                    if not waiter.done():
                        waiter.set_result(None)
            else:
                await self._serve(msg, arrival=arrival)
            return
        if self.b == 0:
            await self._forward_whole_tree(msg)
        else:
            await self._forward_within_subtree(msg)
        if admission is not None:
            # Forwarded (or faulted) away: the GET's stay here is over.
            admission.finish(msg)

    async def _serve_worker(self) -> None:
        """Drain the due-time serve queue with one timer per wake."""
        loop = asyncio.get_running_loop()
        queue = self._serve_queue
        while self._running:
            if not queue:
                waiter = loop.create_future()
                self._serve_waiter = waiter
                await waiter
                continue
            delay = queue[0][0] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
                continue
            self._serving = True
            try:
                while queue and queue[0][0] <= loop.time():
                    _, msg, arrival = queue.popleft()
                    try:
                        await self._serve(msg, slept=True, arrival=arrival)
                    except asyncio.CancelledError:  # pragma: no cover
                        raise
                    except Exception:  # pragma: no cover - defensive
                        self.cluster.note_handler_error(self.pid)
            finally:
                self._serving = False

    async def _serve(
        self, msg: Message, slept: bool = False, arrival: float | None = None
    ) -> None:
        service_time = self.cluster.config.service_time
        if service_time > 0 and not slept:
            await asyncio.sleep(service_time)
        t0 = perf_counter()
        copy = self.store.get(msg.file)
        now = asyncio.get_running_loop().time()
        self.monitor.record_served(msg.file, msg.src, now)
        if arrival is not None:
            # Enqueue-to-serve latency: the windowed p99 the SLO-aware
            # replication trigger watches.
            self.latency.record(now, now - arrival)
        if self.admission is not None:
            self.admission.finish(msg)
        self.served_total += 1
        reply = fast_message(
            MessageKind.GET_REPLY, msg.dst, msg.origin, msg.file,
            {"payload": copy.payload, "server": self.pid},
            copy.version, msg.hops, msg.origin, msg.request_id,
        )
        self.cluster.stage_seconds["serve"] += perf_counter() - t0
        await self._finish(msg, reply)

    async def _fault(self, msg: Message) -> None:
        self.cluster.count("get_faults")
        await self._finish(
            msg, replace(msg.reply(MessageKind.GET_FAULT), dst=msg.origin)
        )

    async def _shed(self, msg: Message, conn: _Connection | None) -> None:
        """Answer a shed GET with an OVERLOAD reply — never a silent drop.

        The reply names the shedding node and a redirect hint (another
        live holder of the file, when one exists) so the client — or
        the DES reliability layer's ``RequestTracker`` — reroutes with
        backoff instead of waiting out its timeout.  Shedding happens
        pre-dispatch, so a client-entry GET (``src == CLIENT``) was
        never stamped and is answered straight down its connection; a
        peer-forwarded GET is answered toward its origin node, which
        relays like any terminal reply.
        """
        self.shed_total += 1
        self.cluster.count("overload_shed")
        self._arrivals.pop(msg.request_id, None)
        payload = {"shed_by": self.pid, "redirect": self._redirect_hint(msg.file)}
        if msg.src == CLIENT:
            if conn is not None:
                await self._write_client(
                    conn,
                    fast_message(
                        MessageKind.OVERLOAD, self.pid, CLIENT, msg.file,
                        payload, msg.version, msg.hops, msg.origin,
                        msg.request_id,
                    ),
                )
            return
        await self._send(
            fast_message(
                MessageKind.OVERLOAD, self.pid, msg.origin, msg.file,
                payload, msg.version, msg.hops, msg.origin, msg.request_id,
            )
        )  # a dead origin drops the reply: the client times out

    def _redirect_hint(self, name: str) -> int:
        """A live alternative holder of ``name``, or ``-1`` when there is
        none — a coordination-plane read, like the placement policies'
        documented oracle view.

        When the fresh view offers no alternative the node falls back
        on the last holder set it observed — what a real peer, with no
        oracle, actually knows.  That cached knowledge lags churn, so
        the candidates are intersected with this node's *own* status
        word: a hint names the client's next attempt, and under churn
        this node can know a replica is dead (a failed send — the §3
        FINDLIVENODE discovery) before the coordination plane has
        processed the retirement.  Never hand out a hint the sender
        itself would refuse to route to.  A *silent* crash defeats even
        the word filter — nobody was told — which is why the client
        treats a dead hint as a reroute, not a verdict.
        """
        holders = self.cluster.holders(name)
        holders.discard(self.pid)
        if holders:
            self._hint_cache[name] = tuple(sorted(holders))
        else:
            holders = set(self._hint_cache.get(name, ()))
        choices = sorted(p for p in holders if self.word.is_live(p))
        if not choices:
            return -1
        if len(choices) == 1:
            return choices[0]
        rng = self.admission.rng if self.admission is not None else random
        return choices[rng.randrange(len(choices))]

    async def _finish(self, request: Message, reply: Message) -> None:
        """Route a terminal reply: direct to our client, or via origin."""
        if request.origin == self.pid:
            pend = self.pending.pop(request.request_id, None)
            if isinstance(pend, _PendingGet):
                await self._write_client(
                    pend.conn,
                    fast_message(
                        reply.kind, reply.src, CLIENT, reply.file,
                        reply.payload, reply.version, reply.hops,
                        reply.origin, reply.request_id,
                    ),
                )
            return
        await self._send(reply)  # a dead origin drops the reply: client times out

    async def _handle_reply(self, msg: Message) -> None:
        pend = self.pending.pop(msg.request_id, None)
        if isinstance(pend, (_PendingGet, _PendingInsert)):
            await self._write_client(
                pend.conn,
                fast_message(
                    msg.kind, msg.src, CLIENT, msg.file, msg.payload,
                    msg.version, msg.hops, msg.origin, msg.request_id,
                ),
            )

    async def _forward_whole_tree(self, msg: Message) -> None:
        """§3 routing on the full tree, rerouting around dead peers.

        One cached-table lookup per attempt: ``next_hop[pid]`` is the
        nearest live ancestor, falling back to the storage node at the
        top of the chain; ``next_hop[pid] == pid`` means this node *is*
        the storage node — a fault, since the file is not here.
        """
        cluster = self.cluster
        tree = cluster.tree(cluster.psi_of(msg.file))
        stage = cluster.stage_seconds
        while True:
            t0 = perf_counter()
            try:
                table = routing_table(tree, self.word)
                nxt = int(table.next_hop[self.pid])
            except NoLiveNodeError:  # pragma: no cover - we are live
                stage["route"] += perf_counter() - t0
                await self._fault(msg)
                return
            stage["route"] += perf_counter() - t0
            if nxt == self.pid:
                await self._fault(msg)
                return
            if await self._send(msg.forwarded(self.pid, nxt)):
                return

    async def _forward_within_subtree(self, msg: Message) -> None:
        """§4 routing: stay inside the subtree, migrate on a fault.

        The payload carries the subtree identifiers left to try
        (``None`` on first entry from a client), exactly like the DES
        driver.  Any failed send marks the peer dead and re-runs the
        whole decision against the updated word.  Decisions are cached
        table lookups over the per-``(root, sid)`` identity reduction.
        """
        cluster = self.cluster
        tree = cluster.tree(cluster.psi_of(msg.file))
        stage = cluster.stage_seconds
        count = 1 << self.b
        while True:
            # The route window covers the whole §4 decision — remaining-
            # list normalisation, the identity-reduction context, and
            # the cached next-hop lookup — not just the final table
            # read; sends happen outside it.
            t0 = perf_counter()
            remaining = msg.payload
            if remaining is None:
                own = subtree_of_pid(tree, self.pid, self.b)
                remaining = [(own + off) % count for off in range(count)]
            remaining = [int(s) for s in remaining]
            sid = remaining[0]
            view, itree, sliveness = self._subtree_ctx(tree, sid)
            if remaining != msg.payload:
                msg = fast_message(
                    msg.kind, msg.src, msg.dst, msg.file, remaining,
                    msg.version, msg.hops, msg.origin, msg.request_id,
                )
            if view.contains(self.pid):
                svid = tree.vid_of(self.pid) >> self.b
                try:
                    nxt = int(routing_table(itree, sliveness).next_hop[svid])
                except NoLiveNodeError:  # pragma: no cover - we are live
                    nxt = svid
                if nxt != svid:
                    target = view.pid_of_svid(nxt)
                    stage["route"] += perf_counter() - t0
                    if await self._send(msg.forwarded(self.pid, target)):
                        return
                    continue
                # next_hop maps the storage node to itself: the file is
                # absent at its home — fall through to migrate (§4).
            stage["route"] += perf_counter() - t0
            send_failed = False
            for offset, next_sid in enumerate(remaining[1:], start=1):
                nview, nitree, nsliveness = self._subtree_ctx(tree, next_sid)
                try:
                    target = nview.pid_of_svid(
                        routing_table(nitree, nsliveness).home
                    )
                except NoLiveNodeError:
                    continue
                cluster.count("migrations")
                hop = fast_message(
                    msg.kind, msg.src, msg.dst, msg.file, remaining[offset:],
                    msg.version, msg.hops, msg.origin, msg.request_id,
                )
                if await self._send(hop.forwarded(self.pid, target)):
                    return
                send_failed = True
                break
            if send_failed:
                continue
            await self._fault(msg)
            return

    # -- INSERT -------------------------------------------------------------

    async def _handle_insert(self, msg: Message, conn: _Connection | None) -> None:
        if msg.src != CLIENT:
            # A home receiving its copy: store and confirm to the origin.
            self.store.store(
                msg.file, msg.payload, msg.version, FileOrigin.INSERTED,
                now=asyncio.get_running_loop().time(),
            )
            await self._send(
                Message(
                    kind=MessageKind.ACK,
                    src=self.pid,
                    dst=msg.origin,
                    file=msg.file,
                    version=msg.version,
                    origin=msg.origin,
                    request_id=msg.request_id,
                )
            )
            return
        # Entry node: the client-facing ADVANCEDINSERTFILE (§3/§4).
        name = msg.file
        r = self.cluster.psi_of(name)
        tree = self.cluster.tree(r)
        if not await self.cluster.catalog_check(name):
            await self._client_error(msg, conn, f"file {name!r} already inserted")
            return
        homes: list[int] = []
        t0 = perf_counter()
        for sid in range(1 << self.b):
            view, itree, sliveness = self._subtree_ctx(tree, sid)
            try:
                homes.append(
                    view.pid_of_svid(routing_table(itree, sliveness).home)
                )
            except NoLiveNodeError:  # empty subtree: degree degrades (§4)
                continue
        self.cluster.stage_seconds["route"] += perf_counter() - t0
        if not homes:
            await self._client_error(msg, conn, f"no live storage node for {name!r}")
            return
        if not await self.cluster.catalog_claim(name, r, msg.payload):
            # Another entry node won the race between check and claim
            # (possible only when the catalog is a remote service).
            await self._client_error(msg, conn, f"file {name!r} already inserted")
            return
        reply = replace(
            msg.reply(
                MessageKind.ACK,
                payload={"homes": homes, "target": r},
            ),
            version=1,
            dst=CLIENT,
        )
        remote = [h for h in homes if h != self.pid]
        if self.pid in homes:
            self.store.store(
                name, msg.payload, 1, FileOrigin.INSERTED,
                now=asyncio.get_running_loop().time(),
            )
        stamped = replace(msg, origin=self.pid, version=1)
        for home in remote:
            await self._send(stamped.forwarded(self.pid, home))
        if not remote:
            if conn is not None:
                await self._write_client(conn, reply)
            return
        if conn is not None:
            self.pending[msg.request_id] = _PendingInsert(conn, len(remote), reply)

    async def _handle_ack(self, msg: Message) -> None:
        pend = self.pending.get(msg.request_id)
        if not isinstance(pend, _PendingInsert):
            return
        pend.awaiting -= 1
        if pend.awaiting <= 0:
            del self.pending[msg.request_id]
            await self._write_client(pend.conn, pend.reply)

    async def _client_error(
        self, msg: Message, conn: _Connection | None, reason: str
    ) -> None:
        self.cluster.count("client_errors")
        if conn is not None:
            await self._write_client(
                conn,
                replace(msg.reply(MessageKind.ERROR, payload={"reason": reason}),
                        dst=CLIENT),
            )

    # -- UPDATE -------------------------------------------------------------

    async def _handle_update(self, msg: Message, conn: _Connection | None) -> None:
        if msg.src != CLIENT:
            # §2.2 top-down broadcast step: refresh + re-broadcast, or discard.
            if msg.file not in self.store:
                self.cluster.count("update_discards")
                return
            self.store.update(msg.file, msg.payload, msg.version)
            tree = self.cluster.tree(self.cluster.psi_of(msg.file))
            sid = subtree_of_pid(tree, self.pid, self.b)
            view, _itree, _sliveness = self._subtree_ctx(tree, sid)
            for child in subtree_children(view, self.pid, self.word):
                await self._send(msg.forwarded(self.pid, child))
            return
        # Entry node: assign the next version, start at each subtree root.
        name = msg.file
        version = await self.cluster.catalog_advance(name, msg.payload)
        if version is None:
            await self._client_error(msg, conn, f"file {name!r} not inserted")
            return
        tree = self.cluster.tree(self.cluster.psi_of(name))
        stamped = replace(msg, origin=self.pid, version=version)
        for sid in range(1 << self.b):
            view, _itree, _sliveness = self._subtree_ctx(tree, sid)
            root = view.root_pid
            if self.word.is_live(root):
                targets = [root]
            else:
                # §3: bypass a dead root to its children list.
                targets = subtree_children(view, root, self.word)
            for target in targets:
                hop = stamped.forwarded(self.pid, target)
                if target == self.pid:
                    self.deliver_local(replace(hop, src=self.pid))
                else:
                    await self._send(hop)
        if conn is not None:
            await self._write_client(
                conn,
                replace(msg.reply(MessageKind.ACK, payload={}), version=version,
                        dst=CLIENT),
            )

    # -- REPLICATE ----------------------------------------------------------

    def _handle_replicate(self, msg: Message) -> None:
        payload = msg.payload if isinstance(msg.payload, dict) else {}
        self.store.store(
            msg.file, payload.get("payload"), msg.version,
            FileOrigin.REPLICATED, now=asyncio.get_running_loop().time(),
        )
        self.cluster.resolve_pending_holder(msg.file, self.pid)

    def _handle_transfer(self, msg: Message) -> None:
        """§5 churn migration: adopt an original copy as its new home."""
        payload = msg.payload if isinstance(msg.payload, dict) else {}
        self.store.store(
            msg.file, payload.get("payload"), msg.version,
            FileOrigin.INSERTED, now=asyncio.get_running_loop().time(),
        )

    async def _replicate_decision(self, name: str, seed: int | None = None) -> int | None:
        """One placement decision for this (overloaded) holder.

        The node contributes what only it knows — whether it still
        holds the copy, the derived rng seed, its monitor's observed
        forwarder rates — and the coordination plane runs the
        ``LessLogSystem.replicate`` computation and records the
        decision (:meth:`LiveCluster.decide_replication`).  When the
        plane is in-process the node then pushes the copy itself; the
        scale-out bootstrap pushes it atomically with the record.
        """
        if name not in self.store:
            return None
        if seed is None:
            seed = self._derived_seed()
        self._decision_count += 1
        cluster = self.cluster
        now = asyncio.get_running_loop().time()
        rates = dict(self.monitor.source_rates(name, now))
        target = await cluster.decide_replication(name, self.pid, seed, rates)
        if target is None:
            return None
        if cluster.pushes_replicas:
            # Scale-out: the coordination plane already pushed the
            # REPLICATE frame atomically with the oplog record.
            return target
        copy = self.store.get(name, count_access=False)
        sent = await self._send(
            Message(
                kind=MessageKind.REPLICATE,
                src=self.pid,
                dst=target,
                file=name,
                payload={"payload": copy.payload},
                version=copy.version,
            )
        )
        if not sent:  # pragma: no cover - target died this instant
            cluster.resolve_pending_holder(name, target)
        return target

    # -- overload sweeper ---------------------------------------------------

    def inherit_load(self, name: str, rate: float) -> None:
        """Attribute demand a crashed holder of ``name`` was carrying.

        Called by the cluster's §5.3 recovery when this node is the
        heir of a crashed holder's copy: the victim's last observed
        service rate is seeded into the load monitor (linearly decaying
        over one window) so the sweeper's rate trigger and hottest-file
        choice react to the inherited pressure *before* a full window
        of real samples accumulates here.
        """
        self.monitor.inherit(name, rate, asyncio.get_running_loop().time())

    async def _sweep(self) -> None:
        """The per-node load monitor: replicate away sustained pressure.

        Overload is either a saturated in-flight window (inbox depth at
        or beyond ``inflight_limit``) or a served rate above
        ``capacity`` — the paper's requests-per-second threshold.  The
        replica goes toward the max-traffic child subtree by the
        logless argument: the policy's children-list choice.

        With a finite ``idle_timeout`` the same tick also runs
        counter-based removal (§5-adjacent, the live dual of
        ``LessLogSystem.remove_replica``): a REPLICATED copy whose
        access counter has not advanced for ``idle_timeout`` seconds is
        removed via a REMOVE frame to self, recorded in the oplog.
        """
        config = self.cluster.config
        decay = config.idle_timeout != float("inf")
        while self._running:
            await asyncio.sleep(config.check_interval)
            if not self.cluster.replication_enabled:
                continue
            now = asyncio.get_running_loop().time()
            if decay:
                self._decay_idle(now)
            rate = self.monitor.total_rate(now)
            saturated = self.inbox.qsize() >= config.inflight_limit
            slo_breach = (
                self._track_latency
                and self.latency.count(now) >= _SLO_MIN_SAMPLES
                and self.latency.p99(now) > config.slo_budget
            )
            if not saturated and not slo_breach and rate <= config.capacity:
                continue
            if now - self.last_replication < config.cooldown:
                continue
            name = self.monitor.hottest_file(now)
            if name is None or name not in self.store:
                continue
            self.last_replication = now
            await self._replicate_decision(name)

    def _decay_idle(self, now: float) -> None:
        """Counter-based idle decay over this node's REPLICATED copies.

        Each tick compares every replica's access counter against the
        last observed mark; a counter that moved resets the clock, one
        that sat still past ``idle_timeout`` makes the copy cold.  The
        removal is recorded *before* the REMOVE frame is enqueued (the
        cluster also marks it pending, so concurrent placement
        decisions stop seeing this holder in decision order), and the
        frame's ``decay`` flag triggers the oracle-mirroring orphan GC
        when it lands.
        """
        config = self.cluster.config
        cold: list[str] = []
        for copy in self.store.replicated_files():
            count = copy.access_count
            mark = self._access_marks.get(copy.name)
            if mark is None or mark[0] != count:
                self._access_marks[copy.name] = (count, now)
                continue
            if now - mark[1] >= config.idle_timeout:
                cold.append(copy.name)
        for name in cold:
            self._access_marks.pop(name, None)
            self.cluster.record_removal(name, self.pid)
            self.deliver_local(
                Message(
                    kind=MessageKind.REMOVE, src=self.pid, dst=self.pid,
                    file=name, payload={"decay": True},
                )
            )

    def _derived_seed(self) -> int:
        """Deterministic per-decision rng seed (pid- and count-keyed)."""
        return (
            self.cluster.config.seed * 1_000_003
            + self.pid * 8_191
            + self._decision_count
        ) & 0x7FFFFFFF

    # -- lifecycle ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Is any work pending here?  (Used by the cluster's drain.)"""
        return bool(
            self.busy or self.inbox.qsize() or self._serve_queue or self._serving
        )

    def drain_lost_gets(self) -> list[Message]:
        """GETs queued here at crash time, for the cluster to bounce.

        A crashing node takes its inbox and serve queue down with it,
        but the client GETs inside are not its to lose: each has an
        origin entry still holding the client's connection, and had the
        death landed one frame earlier the entry's failed send
        (FINDLIVENODE, §3) would have rerouted around this node.  The
        cluster re-injects these at their origins — the moral
        equivalent of the entry's retransmit-on-connection-reset — so
        a mid-burst crash costs the request latency, not the client.
        """
        lost: list[Message] = []
        try:
            while True:
                msg, _conn = self.inbox.get_nowait()
                self.inbox.task_done()
                if msg.kind is MessageKind.GET and msg.src != CLIENT:
                    lost.append(msg)
        except asyncio.QueueEmpty:
            pass
        for _due, msg, _arrival in self._serve_queue:
            if msg.src != CLIENT:
                lost.append(msg)
        self._serve_queue.clear()
        return lost

    async def shutdown(self) -> None:
        """Stop serving: cancel tasks, close every connection."""
        self._running = False
        self._serve_queue.clear()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()
        for conn in list(self._conns):
            await conn.close()
        self._conns.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeServer(pid={self.pid}, files={len(self.store)}, "
            f"served={self.served_total})"
        )
