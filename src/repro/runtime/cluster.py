"""`LiveCluster`: boot and operate N `NodeServer`s as one deployment.

The cluster is two planes:

* **Data plane** — every file operation and membership fact crosses a
  real stream connection as a wire frame (`repro.runtime.wire`).  By
  default connections are in-process ``socket.socketpair`` streams; with
  ``RuntimeConfig(tcp=True)`` every node listens on a real TCP port on
  loopback and the exact same frames flow through the kernel's stack.
* **Coordination plane** — the cluster object itself plays the roles a
  deployment would delegate to a tracker: it owns the authoritative §5
  status word, the file catalog (name → target, version), and the
  churn orchestration that computes §5's migration plans.  The plans
  are *executed* purely as messages (TRANSFER / DEMOTE / REMOVE /
  REGISTER_*) — node stores only ever change when a frame arrives.
  This mirrors the DES driver's documented "oracle view" convention:
  policies and plans may read global state, data may not teleport.

Every placement-mutating decision is appended to ``oplog`` in decision
order; ``repro.runtime.conformance`` replays that log through the
synchronous ``LessLogSystem`` oracle and diffs final state.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from ..baselines.base import PlacementContext
from ..baselines.lesslog_policy import LessLogPolicy
from ..core.bits import check_id, check_width
from ..core.errors import ConfigurationError, MembershipError, NoLiveNodeError
from ..core.hashing import Psi
from ..core.subtree import SubtreeView, SvidLiveness, check_b, identity_tree, subtree_of_pid
from ..core.tree import LookupTree
from ..net.message import Message, MessageKind
from ..node.membership import StatusWord
from ..node.storage import FileOrigin
from .addressing import PeerUnreachableError, dial_node, start_listener
from .node import CLIENT, NodeServer, subtree_children
from .overload import OverloadPolicy
from .wire import MAX_FRAME, FrameEncoder, WireError

__all__ = [
    "ADMIN",
    "RuntimeConfig",
    "PeerUnreachableError",
    "OpRecord",
    "LiveCluster",
]

ADMIN = -2
"""``src`` of coordination-plane messages (the cluster orchestrator)."""


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs for a live cluster."""

    m: int
    b: int = 0
    seed: int = 0
    tcp: bool = False
    capacity: float = float("inf")
    """Served requests/second beyond which a node is overloaded
    (``inf`` disables rate-triggered replication — the conformance
    default, so sequential replays stay deterministic)."""
    window: float = 1.0
    check_interval: float = 0.02
    cooldown: float = 0.1
    inflight_limit: int = 10**9
    """Inbox depth at which the in-flight window counts as saturated."""
    service_time: float = 0.0
    """Simulated per-GET service latency (seconds); lets small bursts
    actually queue so the load monitor has something to measure."""
    max_frame: int = MAX_FRAME
    drain_timeout: float = 30.0
    batch_max: int = 16
    """Messages a node's inbox consumer drains per scheduling tick
    (``1`` serializes the consumer: each GET is served before the next
    message is dequeued)."""
    idle_timeout: float = float("inf")
    """Counter-based removal: a REPLICATED copy whose access counter
    sits still this long is REMOVEd (``inf`` disables decay)."""
    inbox_limit: int = 0
    """Bounded-inbox admission control: the most queued data GETs a
    node accepts before the shed/queue/victim policy evicts one and
    answers OVERLOAD (``0`` disables admission control — the default,
    so existing profiles are untouched)."""
    shed_policy: str = "conservative"
    """How much to evict when the bound trips: ``conservative`` sheds
    the minimum, ``aggressive`` clears backlog to half the limit."""
    queue_policy: str = "fcfs"
    """``fcfs`` treats queued requests equally; ``priority`` protects
    peer-forwarded requests and sheds fresh client entries first."""
    victim_policy: str = "lifo"
    """Which candidate is evicted: ``lifo`` (newest), ``fifo``
    (oldest / drop-head), or ``random`` (seeded)."""
    slo_budget: float = float("inf")
    """SLO-aware replication: replicate away load when a node's
    windowed response-latency p99 drifts past this budget (seconds),
    not just when the raw hit counter trips (``inf`` disables)."""

    def __post_init__(self) -> None:
        check_width(self.m)
        check_b(self.b, self.m)
        if self.capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.service_time < 0:
            raise ConfigurationError("service_time must be non-negative")
        if self.inflight_limit < 1:
            raise ConfigurationError("inflight_limit must be at least 1")
        if self.batch_max < 1:
            raise ConfigurationError("batch_max must be at least 1")
        if self.idle_timeout <= 0:
            raise ConfigurationError("idle_timeout must be positive")
        if self.inbox_limit < 0:
            raise ConfigurationError("inbox_limit must be non-negative")
        if self.slo_budget <= 0:
            raise ConfigurationError("slo_budget must be positive")
        try:
            self.overload_policy()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None

    def overload_policy(self) -> OverloadPolicy:
        """The validated shed × queue × victim cell this config names."""
        return OverloadPolicy(
            shed=self.shed_policy,
            queue=self.queue_policy,
            victim=self.victim_policy,
        )


@dataclass(frozen=True)
class OpRecord:
    """One placement-mutating decision, in cluster decision order."""

    kind: str
    """insert | update | replicate | remove | join | leave | crash, plus
    the split churn halves: ``kill``/``recover`` (crash effect vs
    detection+recovery), ``arrive``/``settle`` (join registration vs
    migration), ``depart``/``reinsert`` (leave effect vs re-homing).
    Halves are appended when their *effects* land, so replication
    decisions taken mid-churn interleave between them in true decision
    order — the order the conformance replay needs."""
    name: str = ""
    payload: Any = None
    pid: int = -1
    version: int = 0
    seed: int = 0
    target: int | None = None
    rates: dict[int, float] | None = None
    """Replicate only: the deciding holder's observed forwarder rates —
    replayed verbatim so the oracle's max-traffic-child choice matches."""


@dataclass
class _CatalogEntry:
    name: str
    target: int
    version: int


_SINK_HIGH_WATER = 1 << 16
"""Transport buffer level above which a sink's writer is awaited."""


class _FrameSink:
    """One peer stream whose frames leave once per event-loop tick.

    Frames are encoded straight into the sink's reusable
    :class:`~repro.runtime.wire.FrameEncoder` buffer — no per-frame
    ``bytes`` object exists.  The first frame of an event-loop
    iteration schedules one ``call_soon`` flush, so every frame the
    sender produces before the loop goes back to sleep leaves in a
    single vectored ``writelines`` — one syscall instead of one per
    frame, at zero added latency.  A buffer that reaches the high-water
    mark is flushed at once.

    In-flight accounting happens at :meth:`LiveCluster.send` time
    (before buffering), so a buffered frame still holds the cluster
    un-quiet until it lands.
    """

    __slots__ = ("writer", "encoder", "_scheduled")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.encoder = FrameEncoder()
        self._scheduled = False

    def add(self, msg: Message) -> None:
        """Encode one frame into the sink buffer (no flush).

        Raises :class:`WireError` on an unencodable message (the
        buffer is rolled back, the sink stays usable) and
        ``ConnectionError`` on a stream the peer already closed.
        Callers follow up with :meth:`poke` — encoding and flushing
        are split so the bench's ``encode`` stage never absorbs a
        write syscall.
        """
        if self.writer.is_closing():
            raise ConnectionError("peer stream is closing")
        self.encoder.add(msg)

    def poke(self) -> None:
        """Schedule the tick flush, or flush now past the high-water
        mark (propagating ``ConnectionError``/``OSError``)."""
        if self.encoder.pending_bytes >= _SINK_HIGH_WATER:
            self.encoder.flush_to(self.writer)
        elif not self._scheduled:
            self._scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_soon)

    def _flush_soon(self) -> None:
        self._scheduled = False
        if not self.encoder.pending:
            return
        try:
            self.encoder.flush_to(self.writer)
        except (ConnectionError, OSError):  # pragma: no cover - peer died
            self.encoder.reset()

    async def drain_if_needed(self) -> None:
        transport = self.writer.transport
        if (
            transport is not None
            and transport.get_write_buffer_size() > _SINK_HIGH_WATER
        ):
            await self.writer.drain()

    def close(self) -> None:
        self.encoder.reset()
        try:
            self.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


class LiveCluster:
    """N live LessLog nodes over streams, plus the coordination plane."""

    pushes_replicas = False
    """Whether the coordination plane delivers REPLICATE frames itself.

    ``False`` here: after :meth:`decide_replication` picks a target the
    deciding `NodeServer` pushes its own copy, as §2.2 describes.  The
    scale-out worker facade sets ``True`` — the bootstrap pushes the
    frame in the same step that appends the oplog record, so a
    ``kill -9`` can never land between the record and the copy."""

    def __init__(self, config: RuntimeConfig, live: set[int] | None = None) -> None:
        self.config = config
        total = 1 << config.m
        pids = set(live) if live is not None else set(range(total))
        if not pids:
            raise ConfigurationError("a cluster needs at least one live node")
        for pid in pids:
            check_id(pid, config.m)
        self.psi = Psi(config.m)
        self.policy = LessLogPolicy()
        self.word = StatusWord(config.m, pids)
        self.nodes: dict[int, NodeServer] = {}
        self.catalog: dict[str, _CatalogEntry] = {}
        self.faults: list[str] = []
        self.oplog: list[OpRecord] = []
        self.replication_enabled = True
        self.counters: dict[str, int] = {}
        self.initial_live: tuple[int, ...] = tuple(sorted(pids))
        self.stage_seconds: dict[str, float] = {
            "encode": 0.0, "decode": 0.0, "route": 0.0, "serve": 0.0,
        }
        self._pending_holders: dict[str, set[int]] = {}
        self._pending_removals: dict[str, set[int]] = {}
        self._silent_deaths: set[int] = set()
        self._crash_loads: dict[int, dict[str, float]] = {}
        self._psi_cache: dict[str, int] = {}
        self._trees: dict[int, LookupTree] = {}
        self._auth_ctx: dict[
            tuple[int, int], tuple[SubtreeView, LookupTree, SvidLiveness]
        ] = {}
        self._inflight_to: dict[int, int] = {}
        self._peer_conns: dict[tuple[int, int], _FrameSink] = {}
        self._servers: dict[int, asyncio.base_events.Server] = {}
        self.addresses: dict[int, tuple[str, int]] = {}
        self._started = False

    # -- boot / teardown ----------------------------------------------------

    @classmethod
    async def start(
        cls, config: RuntimeConfig, live: set[int] | None = None
    ) -> "LiveCluster":
        cluster = cls(config, live)
        for pid in sorted(cluster.word.live_pids()):
            await cluster._boot_node(pid)
        cluster._started = True
        return cluster

    async def _boot_node(self, pid: int) -> None:
        node = NodeServer(pid, self)
        self.nodes[pid] = node
        node.start()
        if self.config.tcp:
            server, address = await start_listener(node.attach)
            self._servers[pid] = server
            self.addresses[pid] = address

    async def shutdown(self) -> None:
        """Stop every node and close every connection and listener."""
        for sink in self._peer_conns.values():
            sink.close()
        self._peer_conns.clear()
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for node in list(self.nodes.values()):
            await node.shutdown()
        self.nodes.clear()

    # -- connections --------------------------------------------------------

    async def open_connection(
        self, pid: int
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """A fresh stream to ``P(pid)`` (client side of the pair)."""
        node = self.nodes.get(pid)
        if node is None:
            raise PeerUnreachableError(f"P({pid}) is not serving")
        address = self.addresses.get(pid) if self.config.tcp else None
        return await dial_node(address, attach=node.attach)

    async def send(self, src: int, msg: Message) -> None:
        """Deliver one frame from ``src`` (a PID or ``ADMIN``) to ``msg.dst``.

        Raises :class:`PeerUnreachableError` when the destination is
        not serving — the moment a sender discovers a §3 dead node.
        """
        dst = msg.dst
        node = self.nodes.get(dst)
        if node is None:
            raise PeerUnreachableError(f"P({dst}) is not serving")
        if dst == src:
            node.deliver_local(msg)
            return
        sink = self._peer_conns.get((src, dst))
        if sink is None:
            _reader, writer = await self.open_connection(dst)
            sink = _FrameSink(writer)
            self._peer_conns[(src, dst)] = sink
        self._inflight_to[dst] = self._inflight_to.get(dst, 0) + 1
        try:
            t0 = perf_counter()
            try:
                sink.add(msg)
            finally:
                self.stage_seconds["encode"] += perf_counter() - t0
            sink.poke()
            await sink.drain_if_needed()
        except WireError:
            self._inflight_to[dst] = max(0, self._inflight_to.get(dst, 0) - 1)
            raise
        except (ConnectionError, OSError):
            self._inflight_to[dst] = max(0, self._inflight_to.get(dst, 0) - 1)
            self._peer_conns.pop((src, dst), None)
            sink.close()
            raise PeerUnreachableError(f"connection to P({dst}) failed") from None

    def count_client_send(self, pid: int) -> None:
        """In-process clients account their sends so drain() sees them.

        A send addressed to a retired node is never enqueued, so
        counting it would leave ``_inflight_to`` stuck above zero and
        ``drain()`` blocked until its timeout — under mid-burst churn a
        client can race the retirement, so the count is gated on the
        node still serving.
        """
        if pid in self.nodes:
            self._inflight_to[pid] = self._inflight_to.get(pid, 0) + 1

    def msg_enqueued(self, pid: int, src: int = CLIENT) -> None:
        """A frame landed in ``P(pid)``'s inbox (accounting settles).

        ``src`` is the sender the frame named — unused here (one shared
        loop sees both ends), but the scale-out worker counts receipts
        per source so quiescence survives a sender that is ``kill -9``ed
        along with its send counters.
        """
        self._inflight_to[pid] = max(0, self._inflight_to.get(pid, 0) - 1)

    # -- quiescence ---------------------------------------------------------

    def _quiet(self) -> bool:
        if any(count > 0 for count in self._inflight_to.values()):
            return False
        return not any(node.active for node in self.nodes.values())

    async def drain(self) -> None:
        """Wait until no message is in flight, queued, or being handled.

        Sender-side accounting (``_inflight_to``) covers the window
        between a write and the receiver's enqueue; inbox depth and the
        per-node busy flag cover the rest.  Requires several
        consecutive quiet checks so a handler that is about to fan out
        cannot slip through.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        quiet = 0
        while quiet < 3:
            if loop.time() > deadline:
                raise TimeoutError(
                    f"cluster did not drain within {self.config.drain_timeout}s"
                )
            if self._quiet():
                quiet += 1
                await asyncio.sleep(0)
            else:
                quiet = 0
                await asyncio.sleep(0.001)

    async def quiesce(self) -> None:
        """Disable autonomous replication, then drain: a stable snapshot."""
        self.replication_enabled = False
        await self.drain()

    # -- small helpers ------------------------------------------------------

    def tree(self, r: int) -> LookupTree:
        tree = self._trees.get(r)
        if tree is None:
            tree = LookupTree(r, self.config.m)
            self._trees[r] = tree
        return tree

    def psi_of(self, name: str) -> int:
        """Memoized ψ(name): the hash is pure, so cache per file name."""
        r = self._psi_cache.get(name)
        if r is None:
            r = self.psi(name)
            self._psi_cache[name] = r
        return r

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def note_decode_error(self, pid: int) -> None:
        self.count("wire_decode_errors")

    def note_handler_error(self, pid: int) -> None:
        self.count("handler_errors")

    @property
    def n_live(self) -> int:
        return self.word.live_count()

    # -- oracle views (coordination plane; documented, like the DES's) ------

    def holders(self, name: str, include_pending: bool = False) -> set[int]:
        """Live PIDs holding a copy; optionally plus in-flight replicas.

        ``include_pending`` folds in replica pushes that have been
        decided but whose REPLICATE frame has not landed yet, so
        concurrent placement decisions see each other in decision
        order — the order the conformance replay uses.
        """
        held = {pid for pid, node in self.nodes.items() if name in node.store}
        if include_pending:
            # A pending replica target that died before its REPLICATE
            # frame landed is no holder: the copy will never exist, and
            # the oracle's kill record already popped its store.
            held |= {
                p for p in self._pending_holders.get(name, set())
                if p in self.nodes
            }
            held -= self._pending_removals.get(name, set())
        return held

    def note_pending_holder(self, name: str, pid: int) -> None:
        self._pending_holders.setdefault(name, set()).add(pid)

    def resolve_pending_holder(self, name: str, pid: int) -> None:
        pending = self._pending_holders.get(name)
        if pending is not None:
            pending.discard(pid)
            if not pending:
                del self._pending_holders[name]

    def record_removal(self, name: str, pid: int) -> None:
        """Log a counter-based removal decision, in decision order.

        Also marks the holder as pending-removed so placement decisions
        made before the REMOVE frame lands already exclude it — the
        order the conformance replay observes.
        """
        self.oplog.append(OpRecord(kind="remove", name=name, pid=pid))
        self._pending_removals.setdefault(name, set()).add(pid)

    def resolve_pending_removal(self, name: str, pid: int) -> None:
        pending = self._pending_removals.get(name)
        if pending is not None:
            pending.discard(pid)
            if not pending:
                del self._pending_removals[name]

    async def gc_after_removal(self, name: str) -> list[int]:
        """Single-file orphan GC after an idle-decay removal landed.

        Mirrors what ``LessLogSystem.remove_replica`` does after
        discarding the copy: any REPLICATED holder the top-down update
        broadcast can no longer reach is removed too, so the live
        placement tracks the oracle's.
        """
        if name in self.faults or name not in self.catalog:
            return []
        holders = self.holders(name)
        if not holders:
            return []
        reachable = self._reachable_holders(name)
        removed: list[int] = []
        for pid in sorted(holders - reachable):
            copy = self.nodes[pid].store.get(name, count_access=False)
            if copy.origin is FileOrigin.REPLICATED:
                try:
                    await self.send(
                        ADMIN,
                        Message(kind=MessageKind.REMOVE, src=ADMIN, dst=pid,
                                file=name),
                    )
                except PeerUnreachableError:  # pragma: no cover - racing death
                    continue
                removed.append(pid)
        return removed

    def placement(self) -> dict[str, dict[int, str]]:
        """Snapshot: file → {holder PID → origin} over live stores."""
        out: dict[str, dict[int, str]] = {}
        for name in self.catalog:
            out[name] = {
                pid: node.store.get(name, count_access=False).origin.value
                for pid, node in sorted(self.nodes.items())
                if name in node.store
            }
        return out

    def version_map(self) -> dict[str, int]:
        return {name: entry.version for name, entry in self.catalog.items()}

    def served_counts(self) -> dict[int, int]:
        return {pid: node.served_total for pid, node in sorted(self.nodes.items())}

    def replicas_created(self) -> int:
        return sum(
            1 for rec in self.oplog
            if rec.kind == "replicate" and rec.target is not None
        )

    # -- catalog (coordination plane) ---------------------------------------

    def catalog_available(self, name: str) -> bool:
        return name not in self.catalog

    def catalog_register(self, name: str, target: int, payload: Any) -> None:
        self.catalog[name] = _CatalogEntry(name=name, target=target, version=1)
        self.oplog.append(OpRecord(kind="insert", name=name, payload=payload))

    def catalog_bump(self, name: str, payload: Any) -> int | None:
        entry = self.catalog.get(name)
        if entry is None:
            return None
        entry.version += 1
        self.oplog.append(
            OpRecord(kind="update", name=name, payload=payload, version=entry.version)
        )
        return entry.version

    def record_replication(
        self,
        name: str,
        holder: int,
        seed: int,
        target: int | None,
        rates: dict[int, float] | None = None,
    ) -> None:
        self.oplog.append(
            OpRecord(
                kind="replicate", name=name, pid=holder, seed=seed,
                target=target, rates=rates,
            )
        )

    # -- async coordination interface (what a NodeServer talks to) ----------
    #
    # `NodeServer` reaches its coordination plane only through these
    # awaitables plus a handful of sync notifications, so the same node
    # code runs against this in-process cluster object *or* the
    # scale-out worker facade, where each call is an RPC to the
    # bootstrap process.  In-process they resolve without yielding —
    # behavior (and interleaving) is unchanged.

    async def catalog_check(self, name: str) -> bool:
        """Is ``name`` still available for insertion?  (Advisory: the
        authoritative answer is :meth:`catalog_claim`.)"""
        return self.catalog_available(name)

    async def catalog_claim(self, name: str, target: int, payload: Any) -> bool:
        """Atomically register ``name`` (the insert record lands here).

        ``False`` when another entry node won the race since the
        :meth:`catalog_check` — the caller answers "already inserted".
        """
        if not self.catalog_available(name):
            return False
        self.catalog_register(name, target, payload)
        return True

    async def catalog_advance(self, name: str, payload: Any) -> int | None:
        """Assign the next version for an UPDATE (None: not inserted)."""
        return self.catalog_bump(name, payload)

    def _auth_subtree_ctx(
        self, tree: LookupTree, sid: int
    ) -> tuple[SubtreeView, LookupTree, SvidLiveness]:
        """Memoized §4 identity reduction over the authoritative word.

        Placement decisions are coordination-plane reads (the
        documented oracle-view convention — :meth:`holders` already is
        one), and the conformance replay re-runs each replicate record
        against oracle membership at that oplog position.  Under
        mid-burst churn a node's own word can lag a death or an arrival
        by a frame; deciding against the authoritative word keeps the
        decision replayable.  Routing (§3/§4 forwarding) keeps using
        the node's own word — that *is* the data plane.
        """
        key = (tree.root, sid)
        ctx = self._auth_ctx.get(key)
        if ctx is None:
            view = SubtreeView(tree, self.config.b, sid)
            ctx = (view, identity_tree(view), SvidLiveness(view, self.word))
            self._auth_ctx[key] = ctx
        return ctx

    async def decide_replication(
        self, name: str, holder: int, seed: int, rates: dict[int, float]
    ) -> int | None:
        """One placement decision for an overloaded ``holder``.

        The same computation as ``LessLogSystem.replicate``: reduce to
        the holder's subtree, run the policy over the live view and the
        holder set (pending replicas included, so concurrent decisions
        see each other in decision order), and record the outcome —
        including a ``None`` outcome — with the rng seed and the
        holder's observed forwarder rates, so the conformance replay
        re-runs it through the synchronous oracle verbatim.
        """
        tree = self.tree(self.psi_of(name))
        sid = subtree_of_pid(tree, holder, self.config.b)
        view, itree, sliveness = self._auth_subtree_ctx(tree, sid)
        holders = self.holders(name, include_pending=True)
        holders_svid = {
            view.svid_of(pid) for pid in holders if view.contains(pid)
        }
        rates_svid = {
            (view.svid_of(src) if src >= 0 and view.contains(src) else -1): rate
            for src, rate in rates.items()
        }
        context = PlacementContext(
            rng=random.Random(seed), forwarder_rates=rates_svid
        )
        target_svid = self.policy.choose(
            itree, view.svid_of(holder), sliveness, holders_svid, context
        )
        target = None if target_svid is None else view.pid_of_svid(target_svid)
        self.record_replication(name, holder, seed, target, rates)
        if target is not None:
            self.note_pending_holder(name, target)
        return target

    async def trigger_overload(self, pid: int, name: str, seed: int) -> None:
        """Admin knob: tell a holder it is overloaded (conformance driver)."""
        await self.send(
            ADMIN,
            Message(
                kind=MessageKind.OVERLOAD, src=ADMIN, dst=pid, file=name,
                payload={"seed": seed},
            ),
        )

    # -- membership (§5) ----------------------------------------------------

    async def _broadcast_register(self, kind: MessageKind, pid: int) -> None:
        for other in sorted(self.nodes):
            if other == pid:
                continue
            await self.send(
                ADMIN,
                Message(kind=kind, src=ADMIN, dst=other, payload={"pid": pid}),
            )
        await self.drain()

    async def join(self, pid: int) -> list[str]:
        """§5.1: boot ``P(pid)``, register it, migrate its files to it."""
        check_id(pid, self.config.m)
        if self.word.is_live(pid):
            raise MembershipError(f"P({pid}) is already live")
        if pid in self._silent_deaths:
            # No resurrection before the coroner files: the pending
            # autopsy (announce, §5.3 recovery, the closing ``recover``
            # oplog record) must land first, or the rejoin would leave
            # the victim's lost files unrecovered and the oracle replay
            # would see a live node being recovered from.
            await self.announce_crash(pid)
        self.word.register_live(pid)
        # The arrival record lands with the membership flip, so
        # replication decisions taken while the migration plan is still
        # pending replay against a word that already knows the newcomer.
        self.oplog.append(OpRecord(kind="arrive", pid=pid))
        await self._boot_node(pid)
        await self._broadcast_register(MessageKind.REGISTER_LIVE, pid)
        migrated: list[str] = []
        was_replicating = self.replication_enabled
        self.replication_enabled = False
        try:
            for name, entry in self.catalog.items():
                if name in self.faults:
                    continue
                tree = self.tree(entry.target)
                sid = subtree_of_pid(tree, pid, self.config.b)
                view = SubtreeView(tree, self.config.b, sid)
                new_home = view.storage_node(self.word)
                if new_home != pid:
                    continue  # this file's placement was unaffected by the absence
                old_home = self._inserted_holder(view, name, exclude=pid)
                if old_home is not None:
                    copy = self.nodes[old_home].store.get(name, count_access=False)
                    await self._transfer(pid, name, copy.payload, copy.version)
                    # The previous home keeps serving as a plain replica.
                    await self.send(
                        ADMIN,
                        Message(kind=MessageKind.DEMOTE, src=ADMIN, dst=old_home,
                                file=name),
                    )
                    migrated.append(name)
                    continue
                donor = self._any_holder(name)
                if donor is None:
                    if name not in self.faults:
                        self.faults.append(name)
                    continue
                copy = self.nodes[donor].store.get(name, count_access=False)
                await self._transfer(pid, name, copy.payload, copy.version)
                migrated.append(name)
            await self.drain()
            await self._gc_orphans()
        finally:
            self.replication_enabled = was_replicating
        self.oplog.append(OpRecord(kind="settle", pid=pid))
        return migrated

    async def leave(self, pid: int) -> list[str]:
        """§5.2: ``P(pid)`` leaves; its inserted files are re-inserted."""
        if not self.word.is_live(pid) or pid not in self.nodes:
            raise MembershipError(f"P({pid}) is not live")
        node = self.nodes[pid]
        inserted = [
            (copy.name, copy.payload, copy.version)
            for copy in node.store.inserted_files()
        ]
        self.oplog.append(OpRecord(kind="depart", pid=pid))
        await self._retire_node(pid)
        await self._broadcast_register(MessageKind.REGISTER_DEAD, pid)
        moved: list[str] = []
        was_replicating = self.replication_enabled
        self.replication_enabled = False
        try:
            for name, payload, version in inserted:
                entry = self.catalog.get(name)
                if entry is None:  # pragma: no cover - defensive
                    continue
                tree = self.tree(entry.target)
                sid = subtree_of_pid(tree, pid, self.config.b)
                view = SubtreeView(tree, self.config.b, sid)
                try:
                    new_home = view.storage_node(self.word)
                except NoLiveNodeError:
                    if not self.holders(name):
                        self.faults.append(name)
                    continue
                await self._transfer(new_home, name, payload, version)
                moved.append(name)
            await self.drain()
            await self._gc_orphans()
        finally:
            self.replication_enabled = was_replicating
        self.oplog.append(OpRecord(kind="reinsert", pid=pid))
        return moved

    async def crash(self, pid: int, announce: bool = True) -> list[str]:
        """§5.3: ``P(pid)`` dies; storage lost; recover homes from donors.

        ``announce=False`` models an *undetected* failure: the node
        stops serving but no REGISTER_DEAD circulates and no recovery
        runs — peers discover the death through failed sends, the
        message-level ``FINDLIVENODE`` (used by the reroute tests).
        :meth:`announce_crash` runs the deferred detection + recovery
        later (the autopsy), which the churn harness calls post-burst
        so per-node words reconcile before a conformance diff.
        """
        if not self.word.is_live(pid) or pid not in self.nodes:
            raise MembershipError(f"P({pid}) is not live")
        # Capture what the victim was serving: §5.3 recovery hands each
        # file's observed rate to its heir so the overload plane reacts
        # to the inherited demand instead of rediscovering it a window
        # later.
        victim = self.nodes[pid]
        now = asyncio.get_running_loop().time()
        loads = {
            name: rate
            for name in victim.store.names()
            if (rate := victim.monitor.file_rate(name, now)) > 0.0
        }
        if loads:
            self._crash_loads[pid] = loads
        # The kill record lands with the retirement, so replication
        # decisions taken between death and detection replay against a
        # word that already lost the victim.
        self.oplog.append(OpRecord(kind="kill", pid=pid))
        await self._retire_node(pid)
        if not announce:
            self._silent_deaths.add(pid)
            return []
        return await self._announce_crash_effects(pid)

    async def announce_crash(self, pid: int) -> list[str]:
        """The autopsy: deferred §5.3 detection for a silent crash.

        Models the failure detector eventually catching up with a
        ``crash(announce=False)``: REGISTER_DEAD circulates, recovery
        re-homes the victim's files, and the ``recover`` record lands —
        after which every per-node word agrees with the authoritative
        one again and a conformance diff is meaningful.
        """
        if pid not in self._silent_deaths:
            raise MembershipError(f"P({pid}) has no unannounced crash")
        self._silent_deaths.discard(pid)
        return await self._announce_crash_effects(pid)

    async def _announce_crash_effects(self, pid: int) -> list[str]:
        """REGISTER_DEAD broadcast + §5.3 recovery for a retired node."""
        await self._broadcast_register(MessageKind.REGISTER_DEAD, pid)
        recovered: list[str] = []
        was_replicating = self.replication_enabled
        self.replication_enabled = False
        try:
            for name, entry in self.catalog.items():
                if name in self.faults:
                    continue
                tree = self.tree(entry.target)
                sid = subtree_of_pid(tree, pid, self.config.b)
                view = SubtreeView(tree, self.config.b, sid)
                try:
                    new_home = view.storage_node(self.word)
                except NoLiveNodeError:
                    if not self.holders(name):
                        self.faults.append(name)
                    continue
                if self._inserted_holder(view, name) is not None:
                    continue  # the crashed node was not this subtree's home
                donor = self._any_holder(name)
                if donor is None:
                    self.faults.append(name)
                    continue
                copy = self.nodes[donor].store.get(name, count_access=False)
                await self._transfer(new_home, name, copy.payload, copy.version)
                recovered.append(name)
            await self.drain()
            await self._gc_orphans()
        finally:
            self.replication_enabled = was_replicating
        self.oplog.append(OpRecord(kind="recover", pid=pid))
        self._attribute_inherited_load(pid)
        return recovered

    def _attribute_inherited_load(self, pid: int) -> None:
        """Hand the crashed node's observed per-file rates to the heirs.

        Runtime-only accounting (never oplogged): each file the victim
        was serving seeds its surviving holder's load monitor — the
        INSERTED holder when one exists, else the first replica — so
        the SLO-aware replication trigger sees the demand about to
        shift there.
        """
        loads = self._crash_loads.pop(pid, None)
        if not loads:
            return
        for name in sorted(loads):
            heir = self._any_holder(name)
            if heir is None:
                continue
            node = self.nodes.get(heir)
            if node is not None:
                node.inherit_load(name, loads[name])

    async def _retire_node(self, pid: int) -> None:
        """Take a node off the wire: no new frames can reach it."""
        node = self.nodes.pop(pid)
        self.word.register_dead(pid)
        self._inflight_to[pid] = 0
        server = self._servers.pop(pid, None)
        if server is not None:
            server.close()
            await server.wait_closed()
        for key in [k for k in self._peer_conns if pid in k]:
            sink = self._peer_conns.pop(key)
            src, dst = key
            if src == pid and dst != pid:
                # A crashing sender loses its socket buffer: frames
                # still coalescing in the sink were counted in-flight
                # at ``send()`` but will never reach ``dst`` — reverse
                # the accounting or ``drain()`` waits on them forever.
                lost = sink.encoder.pending
                if lost:
                    self._inflight_to[dst] = max(
                        0, self._inflight_to.get(dst, 0) - lost
                    )
            sink.close()
        # Bounce the GETs stranded in the victim's queues back to their
        # origin entries: each re-forwards, and the failed send to the
        # now-dead node is its FINDLIVENODE moment (§3) — the request
        # reroutes instead of stranding its client until timeout.
        for msg in node.drain_lost_gets():
            origin = msg.origin
            if origin != pid and origin in self.nodes:
                self.nodes[origin].deliver_local(msg)
        await node.shutdown()

    async def _transfer(self, dst: int, name: str, payload: Any, version: int) -> None:
        await self.send(
            ADMIN,
            Message(
                kind=MessageKind.TRANSFER, src=ADMIN, dst=dst, file=name,
                payload={"payload": payload}, version=version,
            ),
        )

    # -- orphan GC (mirrors repro.cluster.churn.gc_orphan_replicas) ---------

    def _reachable_holders(self, name: str) -> set[int]:
        """Holders the top-down update broadcast can reach right now."""
        entry = self.catalog.get(name)
        if entry is None:
            return set()
        tree = self.tree(entry.target)
        reached: set[int] = set()
        for sid in range(1 << self.config.b):
            view = SubtreeView(tree, self.config.b, sid)

            def visit(pid: int) -> None:
                if not self.word.is_live(pid):  # pragma: no cover - defensive
                    return
                node = self.nodes.get(pid)
                if node is None or name not in node.store:
                    return
                reached.add(pid)
                for child in subtree_children(view, pid, self.word):
                    visit(child)

            root = view.root_pid
            if self.word.is_live(root):
                visit(root)
            else:
                for child in subtree_children(view, root, self.word):
                    visit(child)
        return reached

    async def _gc_orphans(self) -> list[tuple[str, int]]:
        """Drop replicas the update broadcast can no longer reach."""
        removed: list[tuple[str, int]] = []
        for name in self.catalog:
            if name in self.faults:
                continue
            holders = self.holders(name)
            if not holders:
                continue
            reachable = self._reachable_holders(name)
            for pid in sorted(holders - reachable):
                copy = self.nodes[pid].store.get(name, count_access=False)
                if copy.origin is FileOrigin.REPLICATED:
                    await self.send(
                        ADMIN,
                        Message(kind=MessageKind.REMOVE, src=ADMIN, dst=pid,
                                file=name),
                    )
                    removed.append((name, pid))
        if removed:
            await self.drain()
        return removed

    # -- churn plan helpers (mirror repro.cluster.churn) --------------------

    def _inserted_holder(
        self, view: SubtreeView, name: str, exclude: int | None = None
    ) -> int | None:
        for member in view.members():
            if member == exclude or not self.word.is_live(member):
                continue
            node = self.nodes.get(member)
            if node is None or name not in node.store:
                continue
            if node.store.get(name, count_access=False).origin is FileOrigin.INSERTED:
                return member
        return None

    def _any_holder(self, name: str) -> int | None:
        best: int | None = None
        for pid in sorted(self.holders(name)):
            origin = self.nodes[pid].store.get(name, count_access=False).origin
            if origin is FileOrigin.INSERTED:
                return pid
            if best is None:
                best = pid
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "tcp" if self.config.tcp else "streams"
        return (
            f"LiveCluster(m={self.config.m}, b={self.config.b}, "
            f"live={self.n_live}, files={len(self.catalog)}, {mode})"
        )
