"""The scale-out control channel: CONTROL frames over the wire protocol.

Bootstrap, workers, and client endpoints coordinate over the same
frames the data plane uses: a ``CONTROL`` message whose payload is a
small dict, carried in the generic tagged body.  One
:class:`ControlLink` wraps one stream and is fully symmetric: either
side can issue ``call`` (request/response, matched by ``rid``/``re``)
or ``cast`` (fire and forget), and both sides answer the peer through
a handler coroutine.

Dispatch discipline: replies (``re``) are resolved inline by the read
loop, while requests and casts are queued in arrival order and each
dispatched as its own task.  FIFO still holds where it matters: tasks
are created in arrival order and run in creation order up to their
first ``await``, so a handler whose effect precedes its first await
(every worker-side admin handler) lands before any later frame — a
REGISTER_DEAD cast and the ping that confirms it cannot reorder — and
handlers that serialize on a lock (every mutating bootstrap op)
acquire it in arrival order because ``asyncio.Lock`` wakes waiters
FIFO.  What pipelining buys: a handler that blocks — a ``decide``
waiting out a recovery, a catalog RPC — no longer convoys every
frame behind it, so concurrent in-flight calls from many workers
overlap instead of queueing one round-trip at a time.

Write discipline: bodies are coalesced per event-loop tick.  ``cast``
and replies enqueue and flush at the end of the current iteration
(one ``call_soon``); ``call`` flushes immediately, carrying any
pending casts first.  Multiple bodies in one flush leave as a single
``batch`` frame — one length-prefixed message, one syscall — which
the peer's read loop expands back into individual bodies in order,
so batching is invisible to FIFO semantics.

Payload constraint: everything that rides the control channel must be
encodable by the generic body — JSON's values plus ``bytes``, string
dict keys, finite floats (so infinite config fields ship as a
sentinel).  An admin frame delivered through a ``deliver`` cast rides
as its own encoded frame bytes and is rebuilt by the same hardened
decoder the data plane uses.

Read discipline: a control body that fails to decode is a protocol
violation by the peer, so it ends the link (the frames of that read
batch are dropped with it), exactly like broken framing does.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import fields as dataclass_fields
from typing import Any, Awaitable, Callable

from ...net.message import Message, MessageKind, fast_message
from ..cluster import ADMIN, RuntimeConfig
from ..wire import (
    FrameEncoder,
    FrameError,
    FrameReader,
    WireDecodeError,
    decode_message,
    encode_message,
)

__all__ = [
    "ControlLink",
    "BATCH_OP",
    "encode_batch",
    "decode_batch",
    "config_to_wire",
    "config_from_wire",
    "message_to_wire",
    "message_from_wire",
]

Handler = Callable[[str, dict], Awaitable[dict | None]]

_INF = "inf"
"""The wire rejects non-finite floats; ``float('inf')`` config fields
ship as this."""

BATCH_OP = "batch"
"""Reserved op name for a coalesced control frame.  No coordination op
may use it — the read loop unconditionally expands it."""


def encode_batch(bodies: list[dict]) -> dict[str, Any]:
    """Wrap several control bodies into one batch frame.

    The wrapper is itself a plain control body, so it rides the
    existing CONTROL framing unchanged; order inside ``ops`` is wire
    order.
    """
    return {"op": BATCH_OP, "ops": list(bodies)}


def decode_batch(body: dict) -> list[dict]:
    """Expand a control body into its constituent bodies, in order.

    A non-batch body decodes to itself, so callers can pipe every
    received frame through this unconditionally; malformed batch
    members (non-dicts) are dropped rather than poisoning the link.
    """
    if body.get("op") != BATCH_OP:
        return [body]
    ops = body.get("ops")
    if not isinstance(ops, list):
        return []
    return [op for op in ops if isinstance(op, dict)]


def config_to_wire(config: RuntimeConfig) -> dict[str, Any]:
    """A wire-safe dict a worker can rebuild its RuntimeConfig from."""
    out: dict[str, Any] = {}
    for f in dataclass_fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and value == float("inf"):
            value = _INF
        out[f.name] = value
    return out


def config_from_wire(data: dict[str, Any]) -> RuntimeConfig:
    """Inverse of :func:`config_to_wire` (unknown keys are ignored)."""
    kwargs: dict[str, Any] = {}
    for f in dataclass_fields(RuntimeConfig):
        if f.name not in data:
            continue
        value = data[f.name]
        if value == _INF:
            value = float("inf")
        kwargs[f.name] = value
    return RuntimeConfig(**kwargs)


def message_to_wire(msg: Message) -> bytes:
    """Serialize an admin frame for a ``deliver`` cast: its frame bytes."""
    return encode_message(msg)


def message_from_wire(data: Any) -> Message:
    """Rebuild a delivered admin frame from its frame bytes."""
    if not isinstance(data, bytes):
        raise WireDecodeError(
            f"delivered frame must be bytes, got {type(data).__name__}"
        )
    return decode_message(data)


class ControlLink:
    """One symmetric control connection (bootstrap <-> worker/client)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        handler: Handler,
        label: str = "",
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.handler = handler
        self.label = label
        self.closed = asyncio.Event()
        self._rid = itertools.count(1)
        self._waiters: dict[int, asyncio.Future] = {}
        self._inbox: asyncio.Queue[dict] = asyncio.Queue()
        self._encoder = FrameEncoder()
        self._tasks: list[asyncio.Task] = []
        self._pending: list[dict] = []
        self._flush_scheduled = False
        self._inflight: set[asyncio.Task] = set()

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._tasks.append(
            loop.create_task(self._read_loop(), name=f"ctl-read:{self.label}")
        )
        self._tasks.append(
            loop.create_task(self._dispatch_loop(), name=f"ctl-disp:{self.label}")
        )

    async def _read_loop(self) -> None:
        frames = FrameReader(self.reader)
        try:
            while True:
                msgs, errors = await frames.read_batch()
                if errors:
                    return
                for msg in msgs:
                    frame = msg.payload if isinstance(msg.payload, dict) else {}
                    for body in decode_batch(frame):
                        re = body.get("re")
                        if re is not None:
                            waiter = self._waiters.pop(re, None)
                            if waiter is not None and not waiter.done():
                                waiter.set_result(body)
                            continue
                        self._inbox.put_nowait(body)
        except (EOFError, FrameError, ConnectionError, OSError):
            pass
        finally:
            self._fail_waiters()
            self.closed.set()

    async def _dispatch_loop(self) -> None:
        # Pipelined: one task per inbound body, created in arrival
        # order.  See the module docstring for why FIFO effects and
        # FIFO lock acquisition survive this.
        loop = asyncio.get_running_loop()
        while True:
            body = await self._inbox.get()
            task = loop.create_task(self._dispatch_one(body))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _dispatch_one(self, body: dict) -> None:
        op = body.get("op", "")
        rid = body.get("rid")
        try:
            result = await self.handler(op, body)
        except asyncio.CancelledError:  # pragma: no cover
            raise
        except Exception as exc:
            result = {"error": f"{type(exc).__name__}: {exc}"}
        if rid is not None:
            try:
                self._write({"re": rid, **(result or {})})
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _write(self, body: dict) -> None:
        """Queue one body; bytes leave in the tick's batch flush."""
        if self.writer.is_closing():
            raise ConnectionError("control peer is closing")
        self._pending.append(body)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            try:
                asyncio.get_running_loop().call_soon(self._tick_flush)
            except RuntimeError:  # no loop: teardown path, flush now
                self._flush_scheduled = False
                self._flush()

    def _tick_flush(self) -> None:
        self._flush_scheduled = False
        try:
            self._flush()
        except (ConnectionError, OSError):
            pass  # link died under the buffer; the read loop notices

    def _flush(self) -> None:
        """Write everything queued this tick as one frame.

        One pending body goes out bare (the pre-batching wire form);
        several leave as a single ``batch`` frame — coalescing is an
        encoding detail the peer's read loop reverses, never a
        semantic one.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        if self.writer.is_closing():
            raise ConnectionError("control peer is closing")
        body = pending[0] if len(pending) == 1 else encode_batch(pending)
        msg = fast_message(MessageKind.CONTROL, ADMIN, ADMIN, "", body)
        self._encoder.add(msg)
        self._encoder.flush_to(self.writer)

    async def call(self, op: str, **fields: Any) -> dict:
        """One request/response round trip; raises on a dead link."""
        rid = next(self._rid)
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[rid] = waiter
        try:
            # A call should not sit out the tick: flush immediately,
            # carrying any casts queued before it (FIFO preserved —
            # they ride ahead of the request in the same batch frame).
            self._write({"op": op, "rid": rid, **fields})
            self._flush()
        except (ConnectionError, OSError):
            self._waiters.pop(rid, None)
            raise ConnectionError(f"control link down ({self.label})") from None
        reply = await waiter
        if "error" in reply:
            raise RuntimeError(f"control {op!r} failed: {reply['error']}")
        return reply

    def cast(self, op: str, **fields: Any) -> None:
        """Fire-and-forget; silently dropped on a dead link (the peer
        is gone — its death is handled elsewhere)."""
        try:
            self._write({"op": op, **fields})
        except (ConnectionError, OSError):
            pass

    def _fail_waiters(self) -> None:
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(
                    ConnectionError(f"control link closed ({self.label})")
                )
        self._waiters.clear()

    async def close(self) -> None:
        # Ship anything still queued for the tick flush first — a
        # shard endpoint's final ``client_sent`` cast must reach the
        # quiescence ledger or drain wedges waiting on it.  The
        # transport flushes its own buffer before closing, so a
        # successful _flush is on the wire.
        try:
            self._flush()
        except (ConnectionError, OSError):
            pass
        for task in (*self._tasks, *self._inflight):
            task.cancel()
        for task in (*self._tasks, *tuple(self._inflight)):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # pragma: no cover
                pass
        self._tasks.clear()
        self._inflight.clear()
        try:
            self.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
        self.closed.set()
