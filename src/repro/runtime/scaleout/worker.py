"""One LessLog node as its own OS process.

:class:`WorkerRuntime` is the per-process stand-in for `LiveCluster`:
it exposes the exact coordination surface `NodeServer` consumes, but
every coordination call is an RPC to the bootstrap process and every
data-plane send dials the address book.  The node code itself —
routing, the four flows, the overload plane, the zero-copy fast lane —
runs *unchanged*; the only behavioural difference it can observe is
``pushes_replicas = True`` (the bootstrap delivers the REPLICATE frame
atomically with the oplog record, so no crash window separates them).

Documented v1 fidelity gap, by design:

* Pending-holder/pending-removal bookkeeping is a no-op here: the
  bootstrap's mirror applies each decision in the same step it is
  recorded, so decision-order state lives entirely on the mirror.

(:meth:`WorkerRuntime.holders` used to be a second gap — own-store
view only, so shed redirect hints degraded to ``-1``.  It now unions
the own-store view with a bounded holder-hint cache fed by placement
deltas piggybacked on ``decide``/``catalog_claim`` replies and book
pushes; staleness is handled by the machinery that already existed —
the status-word filter in ``NodeServer._redirect_hint`` and the
client's FINDLIVENODE reroute.)

:class:`WorkerProcess` is the process entrypoint: connect (with
retry) → ``hello`` (identifier assignment) → boot the `NodeServer` and
its TCP listener → ``register`` the address → serve until SIGTERM,
then drain the local inbox and ship a ``goodbye`` snapshot (store,
word, ledgers) before exiting — the clean half of the lifecycle the
supervisor's ``kill -9`` deliberately skips.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Any

from ...net.message import Message
from ...node.membership import StatusWord
from ..addressing import Address, PeerUnreachableError, dial_peer, start_listener
from ..cluster import ADMIN, RuntimeConfig, _FrameSink
from ..node import CLIENT, NodeServer
from ..wire import WireError
from ...core.hashing import Psi
from ...core.tree import LookupTree
from .control import ControlLink, config_from_wire, message_from_wire

__all__ = ["WorkerRuntime", "WorkerProcess", "run_worker"]

PSI_CACHE_CAP = 4096
"""Upper bound on memoized ψ values per worker — a wide catalog must
not grow worker memory without limit."""

HOLDER_CACHE_CAP = 4096
"""Upper bound on cached holder hints per worker."""


class _BoundedCache(dict):
    """A size-capped dict: inserting past ``cap`` evicts the oldest
    entry (dicts preserve insertion order, so ``next(iter(...))`` is
    the first-inserted key).  O(1) insertion-order eviction rather
    than strict LRU — hits don't reorder — which is plenty for ψ and
    holder memoization: the hot set re-inserts right after any
    eviction, and correctness never depends on a hit (a ψ miss
    recomputes, a holder miss degrades to the pre-cache ``-1`` path).
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int) -> None:
        super().__init__()
        if cap < 1:
            raise ValueError("cache cap must be positive")
        self.cap = cap

    def __setitem__(self, key: Any, value: Any) -> None:
        if key not in self and len(self) >= self.cap:
            del self[next(iter(self))]
        super().__setitem__(key, value)


class WorkerRuntime:
    """The coordination plane, as seen from inside one worker process."""

    pushes_replicas = True
    """The bootstrap pushes REPLICATE frames itself, in the same step
    that appends the decision record (see `BootstrapServer._op_decide`)."""

    def __init__(
        self,
        config: RuntimeConfig,
        pid: int,
        live: list[int],
        link: ControlLink,
    ) -> None:
        self.config = config
        self.pid = pid
        self.link = link
        self.word = StatusWord(config.m, set(live))
        self.book: dict[int, Address] = {}
        self.node: NodeServer | None = None
        self.replication_enabled = True
        self.counters: dict[str, int] = {}
        self.stage_seconds: dict[str, float] = {
            "encode": 0.0, "decode": 0.0, "route": 0.0, "serve": 0.0,
        }
        self.sent_to: dict[int, int] = {}
        """Cumulative data-plane frames sent per destination PID."""
        self.recv_from: dict[int, int] = {}
        """Cumulative frames received per source bucket (peer PID,
        ``CLIENT``, or ``ADMIN`` for control-channel delivers).  Counted
        per *source* so quiescence survives a sender that is killed
        along with its send counters: the victim's column is simply
        ignored once it leaves the live set."""
        self.psi = Psi(config.m)
        self._psi_cache: _BoundedCache = _BoundedCache(PSI_CACHE_CAP)
        self._holder_cache: _BoundedCache = _BoundedCache(HOLDER_CACHE_CAP)
        """name -> sorted tuple of holder PIDs, as last reported by the
        bootstrap (piggybacked on decide/claim replies and book
        pushes).  Possibly stale; see :meth:`holders`."""
        self._trees: dict[int, LookupTree] = {}
        self._sinks: dict[int, _FrameSink] = {}

    # -- small helpers (the LiveCluster surface NodeServer reads) -----------

    def tree(self, r: int) -> LookupTree:
        tree = self._trees.get(r)
        if tree is None:
            tree = LookupTree(r, self.config.m)
            self._trees[r] = tree
        return tree

    def psi_of(self, name: str) -> int:
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

    def holders(self, name: str) -> set[int]:
        """Own store ∪ the holder-hint cache.

        The cache is best-effort: an entry can name a holder that has
        since removed its copy or silently died.  That is safe by the
        same argument the whole redirect plane rests on —
        ``NodeServer._redirect_hint`` filters candidates through the
        status word, and a hint that is stale anyway triggers the
        client's FINDLIVENODE reroute.  What a warm entry buys is a
        real pid where the old own-store-only view produced ``-1``
        and forced a blind client-side reroute on every shed."""
        out = set(self._holder_cache.get(name, ()))
        node = self.node
        if node is not None and name in node.store:
            out.add(self.pid)
        else:
            out.discard(self.pid)
        return out

    def note_holders(self, name: str, pids: Any) -> None:
        """Record a placement delta for ``name`` (cache feed)."""
        try:
            holders = tuple(sorted({int(p) for p in pids}))
        except (TypeError, ValueError):
            return
        if holders:
            self._holder_cache[name] = holders
        else:
            self._holder_cache.pop(name, None)

    def note_evicted(self, gone: set[int]) -> None:
        """A book push shrank the membership: close data-plane sinks to
        the evicted pids and scrub them from cached holder hints.  The
        status word is deliberately NOT touched — a silent kill stays
        silent until autopsy (REGISTER_DEAD); peers still discover the
        death through failed dials, just sooner."""
        if not gone:
            return
        for pid in gone:
            sink = self._sinks.pop(pid, None)
            if sink is not None:
                sink.close()
        for name, cached in list(self._holder_cache.items()):
            kept = tuple(p for p in cached if p not in gone)
            if kept != cached:
                if kept:
                    self._holder_cache[name] = kept
                else:
                    del self._holder_cache[name]

    # -- data plane ----------------------------------------------------------

    async def send(self, src: int, msg: Message) -> None:
        """One data-plane frame to a peer worker, via the address book."""
        dst = msg.dst
        if dst == src:
            assert self.node is not None
            self.node.deliver_local(msg)
            return
        sink = self._sinks.get(dst)
        if sink is None:
            _reader, writer = await dial_peer(self.book.get(dst), dst)
            sink = _FrameSink(writer)
            self._sinks[dst] = sink
        try:
            sink.add(msg)
            sink.poke()
            await sink.drain_if_needed()
        except WireError:
            raise
        except (ConnectionError, OSError):
            self._sinks.pop(dst, None)
            sink.close()
            raise PeerUnreachableError(f"connection to P({dst}) failed") from None
        self.sent_to[dst] = self.sent_to.get(dst, 0) + 1

    def msg_enqueued(self, pid: int, src: int = CLIENT) -> None:
        bucket = src if src >= 0 else CLIENT
        self.recv_from[bucket] = self.recv_from.get(bucket, 0) + 1

    def count_admin_recv(self) -> None:
        """A control-channel ``deliver`` landed (`deliver_local` skips
        :meth:`msg_enqueued`, so the handler counts it here)."""
        self.recv_from[ADMIN] = self.recv_from.get(ADMIN, 0) + 1

    # -- coordination RPCs ---------------------------------------------------

    async def catalog_check(self, name: str) -> bool:
        try:
            reply = await self.link.call("catalog_check", name=name)
        except ConnectionError:
            return False
        return bool(reply.get("ok"))

    async def catalog_claim(self, name: str, target: int, payload: Any) -> bool:
        try:
            reply = await self.link.call(
                "catalog_claim", name=name, pid=self.pid, payload=payload
            )
        except (ConnectionError, RuntimeError):
            return False
        if "holders" in reply:
            self.note_holders(name, reply["holders"])
        return bool(reply.get("ok"))

    async def catalog_advance(self, name: str, payload: Any) -> int | None:
        try:
            reply = await self.link.call(
                "catalog_advance", name=name, payload=payload
            )
        except (ConnectionError, RuntimeError):
            return None
        version = reply.get("version")
        return None if version is None else int(version)

    async def decide_replication(
        self, name: str, holder: int, seed: int, rates: dict[int, float]
    ) -> int | None:
        try:
            reply = await self.link.call(
                "decide", name=name, holder=holder, seed=seed,
                rates={str(src): rate for src, rate in rates.items()},
            )
        except (ConnectionError, RuntimeError):
            return None
        if "holders" in reply:
            self.note_holders(name, reply["holders"])
        target = reply.get("target")
        return None if target is None else int(target)

    def record_removal(self, name: str, pid: int) -> None:
        """Ship the idle-decay decision; the record (and the oracle's
        orphan GC, as REMOVE frames back through ``deliver``) land at
        the bootstrap in control-channel FIFO order."""
        self.link.cast("record_removal", name=name, pid=pid)

    def resolve_pending_holder(self, name: str, pid: int) -> None:
        pass  # decision-order state lives on the bootstrap's mirror

    def resolve_pending_removal(self, name: str, pid: int) -> None:
        pass  # decision-order state lives on the bootstrap's mirror

    async def gc_after_removal(self, name: str) -> list[int]:
        return []  # the orphan GC rides the record_removal cast

    # -- lifecycle -----------------------------------------------------------

    def snapshot_body(self) -> dict[str, Any]:
        """This worker's contribution to the central conformance
        snapshot: real store contents, its own word, and the ledgers."""
        node = self.node
        assert node is not None
        store = [
            (copy.name, copy.payload, copy.version, copy.origin.value)
            for copy in sorted(
                (node.store.get(name, count_access=False)
                 for name in node.store.names()),
                key=lambda c: c.name,
            )
        ]
        return {
            "store": store,
            "word": sorted(node.word.live_pids()),
            "served": node.served_total,
            "shed": node.shed_total,
            "decisions": node._decision_count,
            "stage": dict(self.stage_seconds),
            "counters": dict(self.counters),
        }

    def probe_body(self) -> dict[str, Any]:
        node = self.node
        return {
            "sent": {str(dst): n for dst, n in self.sent_to.items()},
            "recv": {str(src): n for src, n in self.recv_from.items()},
            "idle": node is not None and not node.active,
        }

    def close_sinks(self) -> None:
        for sink in self._sinks.values():
            sink.close()
        self._sinks.clear()


class WorkerProcess:
    """Entrypoint state machine for one worker OS process."""

    def __init__(self) -> None:
        self.runtime: WorkerRuntime | None = None
        self.node: NodeServer | None = None
        self.go = asyncio.Event()
        self.stop = asyncio.Event()
        self._book_wire: dict[str, list] = {}

    async def _handle(self, op: str, body: dict) -> dict | None:
        if op == "go":
            self._book_wire = body.get("book") or {}
            if self.runtime is not None:
                self.runtime.book = _book_from_wire(self._book_wire)
            self.go.set()
            return None
        if op == "deliver":
            runtime = self.runtime
            if runtime is not None and runtime.node is not None:
                runtime.count_admin_recv()
                runtime.node.deliver_local(message_from_wire(body["msg"]))
            return None
        if op == "book":
            # Membership/placement push: refresh the dial table, drop
            # sinks and cached hints for evicted pids, absorb any
            # piggybacked holder deltas.  Never touches the status
            # word — silent kills stay silent until autopsy.
            runtime = self.runtime
            if "book" in body:
                self._book_wire = body.get("book") or {}
                if runtime is not None:
                    new_book = _book_from_wire(self._book_wire)
                    gone = set(runtime.book) - set(new_book)
                    runtime.book = new_book
                    runtime.note_evicted(gone)
            holders = body.get("holders")
            if runtime is not None and isinstance(holders, dict):
                for name, pids in holders.items():
                    runtime.note_holders(name, pids)
            return None
        if op == "probe":
            assert self.runtime is not None
            return self.runtime.probe_body()
        if op == "snapshot":
            assert self.runtime is not None
            return self.runtime.snapshot_body()
        if op == "ping":
            return {"ok": True}
        if op == "pause":
            if self.runtime is not None:
                self.runtime.replication_enabled = False
            return None
        if op == "resume":
            if self.runtime is not None:
                self.runtime.replication_enabled = True
            return None
        if op == "term":
            self.stop.set()
            return {"ok": True}
        return {"error": f"unknown worker op {op!r}"}

    async def run(self, host: str, port: int) -> None:
        reader, writer = await _connect_retry(host, port)
        link = ControlLink(reader, writer, self._handle, label="worker")
        link.start()
        hello = await link.call("hello", ospid=os.getpid())
        config = config_from_wire(hello["config"])
        pid = int(hello["pid"])
        runtime = WorkerRuntime(config, pid, list(hello["live"]), link)
        self.runtime = runtime
        node = NodeServer(pid, runtime)  # type: ignore[arg-type]
        runtime.node = node
        self.node = node
        server, (node_host, node_port) = await start_listener(node.attach)
        await link.call("register", host=node_host, port=node_port)
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, self.stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        # Inbound frames can land the instant peers get their books, and
        # a forwarded request would make this node dial out — so the
        # inbox consumer must not start until our own book arrived via
        # the ``go`` cast.  Early frames just queue in the inbox.
        go_wait = loop.create_task(self.go.wait())
        boot_dead = loop.create_task(link.closed.wait())
        try:
            await asyncio.wait(
                (go_wait, boot_dead), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            go_wait.cancel()
            boot_dead.cancel()
        if self._book_wire:
            runtime.book = _book_from_wire(self._book_wire)
        node.start()
        stop_wait = loop.create_task(self.stop.wait())
        dead_wait = loop.create_task(link.closed.wait())
        try:
            await asyncio.wait(
                (stop_wait, dead_wait), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop_wait.cancel()
            dead_wait.cancel()
        if self.stop.is_set() and not link.closed.is_set():
            # Clean shutdown: drain the local inbox, then ship the
            # goodbye snapshot.  A bootstrap that vanished instead
            # (dead_wait fired) gets neither — that is the kill path.
            deadline = loop.time() + config.drain_timeout
            while node.active and loop.time() < deadline:
                await asyncio.sleep(0.005)
            try:
                await link.call("goodbye", **runtime.snapshot_body())
            except (ConnectionError, RuntimeError):  # pragma: no cover
                pass
        server.close()
        await server.wait_closed()
        runtime.close_sinks()
        await node.shutdown()
        await link.close()


def _book_from_wire(book: dict[str, list]) -> dict[int, Address]:
    return {int(pid): (entry[0], int(entry[1])) for pid, entry in book.items()}


async def _connect_retry(
    host: str, port: int, timeout: float = 15.0
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial the bootstrap, retrying while the fleet boots."""
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while True:
        try:
            return await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            if loop.time() >= deadline:
                raise
            await asyncio.sleep(0.05)


def run_worker(host: str, port: int) -> None:
    """Blocking entrypoint: serve one worker until SIGTERM or EOF."""
    asyncio.run(WorkerProcess().run(host, port))
