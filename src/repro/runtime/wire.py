"""Wire protocol: length-prefixed frames carrying ``Message``.

Every byte that crosses a connection in the live runtime — in-process
socketpair streams, real TCP between peers, and the scale-out control
channel alike — is one *frame*:

    +--------+---------+----------+------------------+
    | magic  | version | flags    | body length (u32)|   8-byte header
    | 2 B    | 1 B     | 1 B      | big-endian       |
    +--------+---------+----------+------------------+
    | body: one Message, in the layout the flags name |
    +------------------------------------------------+

There is one codec.  The version byte is always ``WIRE_VERSION`` (2);
any other value is a :class:`FrameError`.  The body is a hand-rolled
struct layout.  The *generic* body (``flags == 0``) is one byte of
message kind, six signed 64-bit integer fields (``src dst version hops
origin request_id``), a u16-length-prefixed UTF-8 file name, then the
payload as a tagged tree (see ``_enc_value``).  The encodable payload
set is JSON's scalars plus ``bytes``, lists (tuples become lists, the
only lossy conversion) and dicts with string keys; floats must be
finite.

**Fixed layouts.**  The ~90% message kinds on the runtime's hot path —
GET requests, ACK confirmations, GET_REPLY responses and OVERLOAD shed
replies — have rigid payload shapes, so the encoder emits them as
struct-packed fixed layouts that bypass the tagged-value encoder
entirely.  The header's flags byte names the layout:

    ========  =================  =====================================
    flags     layout             applies when
    ========  =================  =====================================
    0         generic            any message
    1         FIXED_GET          kind GET, payload is None or a short
                                 list of small ints (the §4 remaining-
                                 subtree ids; ≤255 entries, each 0–255)
    2         FIXED_ACK          kind ACK, payload is None
    3         FIXED_GET_REPLY    kind GET_REPLY, payload is exactly
                                 {"payload": None|str|bytes,
                                  "server": int64}
    4         FIXED_OVERLOAD     kind OVERLOAD, payload is exactly
                                 {"shed_by": int64, "redirect": int64}
    ========  =================  =====================================

    A FIXED_GET body is the common struct + file name, optionally
    followed by a one-byte count and that many u8 subtree ids; no
    trailer decodes as ``payload=None``.  Forwarded GETs carry the
    remaining-subtree list in their payload, so without the trailer
    every forwarded hop would fall back to the tagged-value encoder —
    the trailer keeps the entire §4 routing path on the fixed lane.

A fixed-layout frame decodes to the *exact same* ``Message`` the
generic body would produce (property-tested).  A message of an
eligible kind whose payload does not fit its layout is sent with the
generic body instead; every receiver understands all five flag values.

**Zero-copy fast lane.**  :class:`FrameEncoder` owns a reusable
``bytearray``: frames are appended in place (header packed via
``pack_into`` after the body lands, no per-frame ``bytes``
concatenation) and handed to the transport as ``memoryview`` slices
through ``writer.writelines`` — one vectored call per flush, one copy
total (the transport's own join).  The buffer is recycled only after
the flush materialises the views, so no frame ever aliases a later
frame's bytes.  :class:`FrameReader` is the decode dual: one
``read()`` syscall fills a buffer that is sliced into as many complete
frames as it holds, decoded straight off a ``memoryview`` (leaf
strings/bytes are copied out, so decoded messages never alias the
buffer).

Decoding is hardened: bad magic, a wire version other than 2, unknown
flags, oversized or truncated frames, malformed bodies, unknown
message kinds or payload tags each raise a precise error rather than
crashing a server task.  :class:`FrameError` covers the framing layer
(the connection is unusable afterwards — resynchronisation is not
attempted); :class:`WireDecodeError` covers a syntactically valid
frame with a bad body (the connection may continue).
"""

from __future__ import annotations

import math
import struct
from asyncio import StreamReader, StreamWriter
from time import perf_counter
from typing import Any

from ..net.message import Message, MessageKind, fast_message

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME",
    "FRAME_GENERIC",
    "FRAME_GET",
    "FRAME_ACK",
    "FRAME_GET_REPLY",
    "FRAME_OVERLOAD",
    "WireError",
    "FrameError",
    "WireDecodeError",
    "FrameEncoder",
    "FrameReader",
    "encode_message",
    "decode_message",
]

MAGIC = b"LL"
WIRE_VERSION = 2
"""The one legal value of the header's version byte."""
HEADER = struct.Struct(">2sBBI")
MAX_FRAME = 1 << 20
"""Default ceiling on body size (1 MiB): a decode-bomb guard."""

FRAME_GENERIC = 0
"""Flags value: the generic tagged body."""
FRAME_GET = 1
"""Flags value: fixed-layout GET."""
FRAME_ACK = 2
"""Flags value: fixed-layout ACK (payload None)."""
FRAME_GET_REPLY = 3
"""Flags value: fixed-layout GET_REPLY."""
FRAME_OVERLOAD = 4
"""Flags value: fixed-layout OVERLOAD shed reply."""

_HEADER_PAD = bytes(HEADER.size)
_READ_CHUNK = 1 << 16


class WireError(Exception):
    """Base class for everything the wire layer can reject."""


class FrameError(WireError):
    """Framing-level violation: the byte stream itself is broken."""


class WireDecodeError(WireError):
    """A well-framed body that does not decode to a valid Message."""


# -- body codec ----------------------------------------------------------
#
# Generic body: kind code (u8), the six int fields as signed 64-bit, and
# the file-name length (u16), followed by the UTF-8 name bytes and the
# tagged payload tree.  Kind codes are the append-only definition order
# of MessageKind — new kinds must be appended to the enum, never
# reordered, or old binaries would misread each other's frames.

_KIND_BY_CODE: tuple[MessageKind, ...] = tuple(MessageKind)
_CODE_BY_KIND: dict[MessageKind, int] = {k: i for i, k in enumerate(_KIND_BY_CODE)}

_S_FIXED = struct.Struct(">B6qH")
_S_Q = struct.Struct(">q")
_S_D = struct.Struct(">d")
_S_U32 = struct.Struct(">I")

#: Fixed layouts: the six int fields + name length (GET/ACK), plus one
#: extra i64 (the serving node) for GET_REPLY, and two extra i64s
#: (shedding node + redirect hint) for OVERLOAD.
_S_FL_COMMON = struct.Struct(">6qH")
_S_FL_REPLY = struct.Struct(">7qH")
_S_FL_OVERLOAD = struct.Struct(">8qH")

_T_NONE, _T_TRUE, _T_FALSE, _T_INT, _T_FLOAT = 0, 1, 2, 3, 4
_T_STR, _T_BYTES, _T_LIST, _T_DICT, _T_BIGINT = 5, 6, 7, 8, 9

#: GET_REPLY fixed-layout payload-value kinds.
_FLP_NONE, _FLP_STR, _FLP_BYTES = 0, 1, 2

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _enc_value(buf: bytearray, value: Any) -> None:
    """Append one tagged payload value to ``buf``.

    Accepts None/bool/int/finite float/str/bytes, lists (tuples become
    lists), and dicts with string keys.
    """
    if value is None:
        buf.append(_T_NONE)
    elif value is True:
        buf.append(_T_TRUE)
    elif value is False:
        buf.append(_T_FALSE)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            buf.append(_T_INT)
            buf += _S_Q.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            buf.append(_T_BIGINT)
            buf += _S_U32.pack(len(raw))
            buf += raw
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise WireDecodeError("non-finite float is not wire-safe")
        buf.append(_T_FLOAT)
        buf += _S_D.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        buf.append(_T_STR)
        buf += _S_U32.pack(len(raw))
        buf += raw
    elif isinstance(value, bytes):
        buf.append(_T_BYTES)
        buf += _S_U32.pack(len(value))
        buf += value
    elif isinstance(value, (list, tuple)):
        buf.append(_T_LIST)
        buf += _S_U32.pack(len(value))
        for item in value:
            _enc_value(buf, item)
    elif isinstance(value, dict):
        buf.append(_T_DICT)
        buf += _S_U32.pack(len(value))
        for key, val in value.items():
            if not isinstance(key, str):
                raise WireDecodeError(
                    f"payload object keys must be strings, got {key!r}"
                )
            raw = key.encode("utf-8")
            buf += _S_U32.pack(len(raw))
            buf += raw
            _enc_value(buf, val)
    else:
        raise WireDecodeError(
            f"payload of type {type(value).__name__} is not wire-safe"
        )


def _need(body, pos: int, count: int) -> None:
    if pos + count > len(body):
        raise WireDecodeError(
            f"truncated binary payload: need {count} bytes at offset {pos}, "
            f"have {len(body) - pos}"
        )


def _dec_str(body, pos: int) -> tuple[str, int]:
    _need(body, pos, 4)
    (length,) = _S_U32.unpack_from(body, pos)
    pos += 4
    _need(body, pos, length)
    try:
        # bytes() copies the slice out of the (possibly reused) buffer,
        # so decoded strings never alias it.
        text = bytes(body[pos:pos + length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"bad UTF-8 in binary payload: {exc}") from None
    return text, pos + length


def _dec_value(body, pos: int) -> tuple[Any, int]:
    _need(body, pos, 1)
    tag = body[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        _need(body, pos, 8)
        return _S_Q.unpack_from(body, pos)[0], pos + 8
    if tag == _T_FLOAT:
        _need(body, pos, 8)
        return _S_D.unpack_from(body, pos)[0], pos + 8
    if tag == _T_STR:
        return _dec_str(body, pos)
    if tag == _T_BYTES:
        _need(body, pos, 4)
        (length,) = _S_U32.unpack_from(body, pos)
        pos += 4
        _need(body, pos, length)
        return bytes(body[pos:pos + length]), pos + length
    if tag == _T_LIST:
        _need(body, pos, 4)
        (count,) = _S_U32.unpack_from(body, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _dec_value(body, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        _need(body, pos, 4)
        (count,) = _S_U32.unpack_from(body, pos)
        pos += 4
        out: dict[str, Any] = {}
        for _ in range(count):
            key, pos = _dec_str(body, pos)
            out[key], pos = _dec_value(body, pos)
        return out, pos
    if tag == _T_BIGINT:
        _need(body, pos, 4)
        (length,) = _S_U32.unpack_from(body, pos)
        pos += 4
        _need(body, pos, length)
        return (
            int.from_bytes(bytes(body[pos:pos + length]), "big", signed=True),
            pos + length,
        )
    raise WireDecodeError(f"unknown binary payload tag {tag}")


def _encode_generic(buf: bytearray, msg: Message) -> None:
    """Append the generic body of ``msg`` to ``buf``."""
    code = _CODE_BY_KIND[msg.kind]
    try:
        name = msg.file.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise WireDecodeError(f"message is not wire-encodable: {exc}") from None
    if len(name) > 0xFFFF:
        raise WireDecodeError(f"file name of {len(name)} bytes exceeds 65535")
    try:
        buf += _S_FIXED.pack(
            code, msg.src, msg.dst, msg.version, msg.hops, msg.origin,
            msg.request_id, len(name),
        )
    except struct.error as exc:
        raise WireDecodeError(f"message is not wire-encodable: {exc}") from None
    buf += name
    try:
        _enc_value(buf, msg.payload)
    except UnicodeEncodeError as exc:
        raise WireDecodeError(f"message is not wire-encodable: {exc}") from None


def _try_encode_fixed(buf: bytearray, msg: Message) -> int:
    """Append a fixed-layout body when ``msg`` qualifies.

    Returns the flags value used, or ``FRAME_GENERIC`` (nothing
    appended) when the message does not fit any fixed layout — the
    caller falls back to the generic body on the same connection.
    """
    kind = msg.kind
    if kind is MessageKind.GET:
        sids = msg.payload
        trailer = None
        if sids is not None:
            if type(sids) is not list or not 0 < len(sids) <= 255:
                return FRAME_GENERIC
            try:
                # bytes() validates every element at C speed (bools
                # coerce to their int value, which compares equal).
                trailer = bytes(sids)
            except (TypeError, ValueError):
                return FRAME_GENERIC
        flags = FRAME_GET
    elif kind is MessageKind.ACK:
        if msg.payload is not None:
            return FRAME_GENERIC
        flags = FRAME_ACK
    elif kind is MessageKind.GET_REPLY:
        payload = msg.payload
        if type(payload) is not dict or len(payload) != 2:
            return FRAME_GENERIC
        try:
            server = payload["server"]
            data = payload["payload"]
        except KeyError:
            return FRAME_GENERIC
        # type-is checks: exact int excludes bool, and an int subclass
        # falling back to the generic body is always still correct.
        if type(server) is not int or not _I64_MIN <= server <= _I64_MAX:
            return FRAME_GENERIC
        if data is None:
            value_kind, raw = _FLP_NONE, b""
        elif type(data) is str:
            try:
                value_kind, raw = _FLP_STR, data.encode("utf-8")
            except UnicodeEncodeError:
                return FRAME_GENERIC
        elif type(data) is bytes:
            value_kind, raw = _FLP_BYTES, data
        else:
            return FRAME_GENERIC
        try:
            name = msg.file.encode("utf-8")
        except UnicodeEncodeError:
            return FRAME_GENERIC
        if len(name) > 0xFFFF:
            return FRAME_GENERIC
        try:
            buf += _S_FL_REPLY.pack(
                msg.src, msg.dst, msg.version, msg.hops, msg.origin,
                msg.request_id, server, len(name),
            )
        except struct.error:
            return FRAME_GENERIC
        buf += name
        buf.append(value_kind)
        buf += _S_U32.pack(len(raw))
        buf += raw
        return FRAME_GET_REPLY
    elif kind is MessageKind.OVERLOAD:
        payload = msg.payload
        if type(payload) is not dict or len(payload) != 2:
            return FRAME_GENERIC
        try:
            shed_by = payload["shed_by"]
            redirect = payload["redirect"]
        except KeyError:
            return FRAME_GENERIC
        if type(shed_by) is not int or not _I64_MIN <= shed_by <= _I64_MAX:
            return FRAME_GENERIC
        if type(redirect) is not int or not _I64_MIN <= redirect <= _I64_MAX:
            return FRAME_GENERIC
        try:
            name = msg.file.encode("utf-8")
        except UnicodeEncodeError:
            return FRAME_GENERIC
        if len(name) > 0xFFFF:
            return FRAME_GENERIC
        try:
            buf += _S_FL_OVERLOAD.pack(
                msg.src, msg.dst, msg.version, msg.hops, msg.origin,
                msg.request_id, shed_by, redirect, len(name),
            )
        except struct.error:
            return FRAME_GENERIC
        buf += name
        return FRAME_OVERLOAD
    else:
        return FRAME_GENERIC
    # GET / ACK: the six int fields plus the file name, nothing else —
    # except a GET's optional u8 remaining-subtree trailer.
    try:
        name = msg.file.encode("utf-8")
    except UnicodeEncodeError:
        return FRAME_GENERIC
    if len(name) > 0xFFFF:
        return FRAME_GENERIC
    try:
        buf += _S_FL_COMMON.pack(
            msg.src, msg.dst, msg.version, msg.hops, msg.origin,
            msg.request_id, len(name),
        )
    except struct.error:
        return FRAME_GENERIC
    buf += name
    if flags == FRAME_GET and trailer is not None:
        buf.append(len(trailer))
        buf += trailer
    return flags


def _dec_file_name(body, pos: int, name_len: int) -> tuple[str, int]:
    _need(body, pos, name_len)
    try:
        file = bytes(body[pos:pos + name_len]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"bad UTF-8 file name: {exc}") from None
    return file, pos + name_len


def _decode_generic(body) -> Message:
    if len(body) < _S_FIXED.size:
        raise WireDecodeError(
            f"binary body of {len(body)} bytes is shorter than the fixed part"
        )
    code, src, dst, version, hops, origin, request_id, name_len = (
        _S_FIXED.unpack_from(body, 0)
    )
    if code >= len(_KIND_BY_CODE):
        raise WireDecodeError(f"unknown message kind code {code}")
    file, pos = _dec_file_name(body, _S_FIXED.size, name_len)
    payload, pos = _dec_value(body, pos)
    if pos != len(body):
        raise WireDecodeError(
            f"{len(body) - pos} trailing bytes after binary payload"
        )
    return fast_message(
        _KIND_BY_CODE[code], src, dst, file, payload,
        version, hops, origin, request_id,
    )


def _decode_body_fixed(flags: int, body) -> Message:
    """Decode one fixed-layout body (flags 1..4)."""
    if flags == FRAME_OVERLOAD:
        if len(body) < _S_FL_OVERLOAD.size:
            raise WireDecodeError(
                f"fixed OVERLOAD body of {len(body)} bytes is too short"
            )
        src, dst, version, hops, origin, request_id, shed_by, redirect, name_len = (
            _S_FL_OVERLOAD.unpack_from(body, 0)
        )
        file, pos = _dec_file_name(body, _S_FL_OVERLOAD.size, name_len)
        if pos != len(body):
            raise WireDecodeError(
                f"{len(body) - pos} trailing bytes after fixed OVERLOAD body"
            )
        return fast_message(
            MessageKind.OVERLOAD, src, dst, file,
            {"shed_by": shed_by, "redirect": redirect}, version,
            hops, origin, request_id,
        )
    if flags == FRAME_GET_REPLY:
        if len(body) < _S_FL_REPLY.size:
            raise WireDecodeError(
                f"fixed GET_REPLY body of {len(body)} bytes is too short"
            )
        src, dst, version, hops, origin, request_id, server, name_len = (
            _S_FL_REPLY.unpack_from(body, 0)
        )
        file, pos = _dec_file_name(body, _S_FL_REPLY.size, name_len)
        _need(body, pos, 5)
        value_kind = body[pos]
        (length,) = _S_U32.unpack_from(body, pos + 1)
        pos += 5
        _need(body, pos, length)
        if value_kind == _FLP_NONE:
            if length:
                raise WireDecodeError("fixed GET_REPLY None payload carries bytes")
            data: Any = None
        elif value_kind == _FLP_STR:
            try:
                data = bytes(body[pos:pos + length]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireDecodeError(
                    f"bad UTF-8 in fixed GET_REPLY payload: {exc}"
                ) from None
        elif value_kind == _FLP_BYTES:
            data = bytes(body[pos:pos + length])
        else:
            raise WireDecodeError(
                f"unknown fixed GET_REPLY payload kind {value_kind}"
            )
        pos += length
        if pos != len(body):
            raise WireDecodeError(
                f"{len(body) - pos} trailing bytes after fixed GET_REPLY body"
            )
        return fast_message(
            MessageKind.GET_REPLY, src, dst, file,
            {"payload": data, "server": server}, version,
            hops, origin, request_id,
        )
    kind = MessageKind.GET if flags == FRAME_GET else MessageKind.ACK
    if len(body) < _S_FL_COMMON.size:
        raise WireDecodeError(
            f"fixed {kind.value} body of {len(body)} bytes is too short"
        )
    src, dst, version, hops, origin, request_id, name_len = (
        _S_FL_COMMON.unpack_from(body, 0)
    )
    file, pos = _dec_file_name(body, _S_FL_COMMON.size, name_len)
    payload = None
    if pos != len(body):
        if flags != FRAME_GET:
            raise WireDecodeError(
                f"{len(body) - pos} trailing bytes after fixed {kind.value} body"
            )
        count = body[pos]
        pos += 1
        if count == 0 or pos + count != len(body):
            raise WireDecodeError(
                f"bad fixed GET subtree trailer ({count} ids, "
                f"{len(body) - pos} bytes)"
            )
        payload = list(body[pos:pos + count])
    return fast_message(
        kind, src, dst, file, payload, version, hops, origin, request_id,
    )


# -- frame encoder (zero-copy fast lane, write side) ---------------------

class FrameEncoder:
    """Reusable frame builder: append frames, flush them vectored.

    One encoder owns one ``bytearray`` scratch buffer.  :meth:`add`
    appends a complete frame in place — eight placeholder bytes, the
    body, then the header packed *into* the reserved slot — so building
    a frame performs no ``bytes`` materialisation at all.  :meth:`views`
    exposes the pending frames as ``memoryview`` slices for
    ``writer.writelines`` (which joins them immediately, taking the one
    unavoidable copy), and :meth:`flush_to` does exactly that before
    recycling the buffer.

    Buffer-ownership rule: views returned by :meth:`views` are valid
    until the next :meth:`reset` / :meth:`flush_to` / :meth:`add` —
    consumers must materialise (join/write) before the encoder is
    reused.  ``flush_to`` upholds the rule by construction; anything
    else must copy.
    """

    __slots__ = ("_buf", "_bounds")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._bounds: list[int] = [0]

    def add(self, msg: Message, version: int = WIRE_VERSION) -> int:
        """Append one frame; returns its size in bytes.

        ``version`` must be ``WIRE_VERSION``; it stays a parameter so
        wrappers that forward it keep working.  The body takes the
        message's fixed layout when it has one, the generic body
        otherwise.  On a rejected message the buffer is rolled back to
        the previous frame boundary, so a shared encoder survives
        encode errors.
        """
        if version != WIRE_VERSION:
            raise FrameError(f"unsupported wire version {version}")
        buf = self._buf
        start = len(buf)
        buf += _HEADER_PAD
        try:
            flags = _try_encode_fixed(buf, msg)
            if flags == FRAME_GENERIC:
                _encode_generic(buf, msg)
            length = len(buf) - start - HEADER.size
            if length > MAX_FRAME:
                raise FrameError(
                    f"frame body of {length} bytes exceeds {MAX_FRAME}"
                )
        except WireError:
            del buf[start:]
            raise
        HEADER.pack_into(buf, start, MAGIC, WIRE_VERSION, flags, length)
        self._bounds.append(len(buf))
        return len(buf) - start

    @property
    def pending(self) -> int:
        """Frames added since the last reset/flush."""
        return len(self._bounds) - 1

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered since the last reset/flush."""
        return len(self._buf)

    def views(self) -> list[memoryview]:
        """One ``memoryview`` per pending frame (see buffer rule above)."""
        mv = memoryview(self._buf)
        bounds = self._bounds
        return [mv[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]

    def take_bytes(self) -> bytes:
        """Materialise all pending frames as one ``bytes`` and reset."""
        out = bytes(self._buf)
        self.reset()
        return out

    def reset(self) -> None:
        buf = self._buf
        if len(buf) > (1 << 18):
            # A jumbo frame passed through: drop the oversized scratch
            # buffer instead of pinning its high-water mark forever.
            self._buf = bytearray()
        else:
            del buf[:]
        self._bounds = [0]

    def flush_to(self, writer: StreamWriter) -> int:
        """Vectored write of all pending frames; returns bytes written.

        ``writelines`` joins the views into the transport's buffer
        before returning, so recycling the scratch buffer afterwards is
        safe — no transport ever holds a view into it.
        """
        if len(self._bounds) == 1:
            return 0
        views = self.views()
        try:
            writer.writelines(views)
        finally:
            for view in views:
                view.release()
        written = len(self._buf)
        self.reset()
        return written


# -- frame decoder helpers -----------------------------------------------

def _check_header(header, offset: int, max_frame: int) -> tuple[int, int]:
    """Validate an 8-byte header; return ``(flags, length)``."""
    magic, version, flags, length = HEADER.unpack_from(header, offset)
    if magic != MAGIC:
        raise FrameError(f"bad magic {bytes(magic)!r} (expected {MAGIC!r})")
    if version != WIRE_VERSION:
        raise FrameError(f"unsupported wire version {version}")
    if not FRAME_GENERIC <= flags <= FRAME_OVERLOAD:
        raise FrameError(f"unknown frame flags {flags}")
    if length > max_frame:
        raise FrameError(f"frame body of {length} bytes exceeds {max_frame}")
    return flags, length


def _decode_body(flags: int, body) -> Message:
    if flags != FRAME_GENERIC:
        return _decode_body_fixed(flags, body)
    return _decode_generic(body)


def encode_message(msg: Message) -> bytes:
    """One complete frame (header + body) for ``msg``.

    The convenience byte-string form of :class:`FrameEncoder` — tests
    and one-shot callers; hot paths hold an encoder and flush vectored.
    """
    encoder = FrameEncoder()
    encoder.add(msg)
    return encoder.take_bytes()


def decode_message(frame: bytes, max_frame: int = MAX_FRAME) -> Message:
    """Decode one complete frame from a byte string."""
    if len(frame) < HEADER.size:
        raise FrameError(f"truncated header: {len(frame)} bytes")
    flags, length = _check_header(frame, 0, max_frame)
    body = memoryview(frame)[HEADER.size:]
    if len(body) != length:
        raise FrameError(f"body length {len(body)} does not match header {length}")
    return _decode_body(flags, body)


# -- stream I/O ----------------------------------------------------------

class FrameReader:
    """Buffered batch decoder: one ``read()``, as many frames as it holds.

    A ``FrameReader`` pulls whatever the transport has ready into its
    own buffer and slices out every complete frame via ``memoryview`` —
    zero awaits for all but the first frame of a burst.  Decoded
    messages never alias the buffer (leaf values are copied out), so
    recycling it between batches is safe.

    :meth:`read_batch` returns ``(messages, decode_errors)`` where
    ``decode_errors`` counts well-framed bodies that failed to decode
    (framing stays aligned, so the caller may keep the connection).
    Raises :class:`EOFError` on a clean end-of-stream at a frame
    boundary and :class:`FrameError` on broken framing or a stream that
    ends mid-frame, after which the reader is unusable.
    """

    __slots__ = ("reader", "max_frame", "decode_seconds", "_buf")

    def __init__(self, reader: StreamReader, max_frame: int = MAX_FRAME) -> None:
        self.reader = reader
        self.max_frame = max_frame
        self.decode_seconds = 0.0
        """Cumulative wall time spent slicing + decoding frames (the
        bench's ``decode`` stage; read the delta between batches)."""
        self._buf = bytearray()

    def _drain_buffer(self) -> tuple[list[Message], int]:
        """Slice every complete frame out of the buffer and decode it."""
        buf = self._buf
        header_size = HEADER.size
        if len(buf) < header_size:
            return [], 0
        t0 = perf_counter()
        out: list[Message] = []
        errors = 0
        pos = 0
        mv = memoryview(buf)
        try:
            while len(buf) - pos >= header_size:
                flags, length = _check_header(mv, pos, self.max_frame)
                end = pos + header_size + length
                if end > len(buf):
                    break
                try:
                    out.append(_decode_body(flags, mv[pos + header_size:end]))
                except WireDecodeError:
                    errors += 1
                pos = end
        finally:
            mv.release()
        if pos:
            del buf[:pos]
        self.decode_seconds += perf_counter() - t0
        return out, errors

    async def read_batch(self) -> tuple[list[Message], int]:
        """Block until at least one frame resolves; drain all available."""
        while True:
            msgs, errors = self._drain_buffer()
            if msgs or errors:
                return msgs, errors
            chunk = await self.reader.read(_READ_CHUNK)
            if not chunk:
                if self._buf:
                    raise FrameError(
                        f"connection closed mid-frame ({len(self._buf)} bytes)"
                    )
                raise EOFError("connection closed")
            self._buf += chunk
