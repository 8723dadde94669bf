"""Tests for the live asyncio runtime (``repro.runtime``).

Fast, timer-free pieces (the wire codec, its property tests, and one
small sequential conformance smoke) run in tier-1.  Tests that boot
full clusters with real timers and bursts carry the ``runtime`` marker
and run via ``pytest -m runtime`` (CI's dedicated smoke job).
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import Message, MessageKind
from repro.runtime import (
    LiveCluster,
    LoadGenerator,
    RuntimeClient,
    RuntimeConfig,
    WorkloadShape,
    WorkloadSpec,
    diff_states,
    percentile,
    replay_oplog,
    run_conformance,
)
from repro.runtime import LatencyHistogram
from repro.runtime.wire import (
    FRAME_ACK,
    FRAME_GENERIC,
    FRAME_GET,
    FRAME_GET_REPLY,
    FRAME_OVERLOAD,
    HEADER,
    MAGIC,
    WIRE_VERSION,
    FrameEncoder,
    FrameError,
    FrameReader,
    WireDecodeError,
    WireError,
    _encode_generic,
    decode_message,
    encode_message,
)

# ---------------------------------------------------------------------------
# wire codec: round trips
# ---------------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
    st.binary(max_size=40),
)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=10), inner, max_size=4),
    ),
    max_leaves=12,
)
messages = st.builds(
    Message,
    kind=st.sampled_from(list(MessageKind)),
    src=st.integers(min_value=-2, max_value=2**31 - 1),
    dst=st.integers(min_value=-2, max_value=2**31 - 1),
    file=st.text(max_size=60),
    payload=json_payloads,
    version=st.integers(min_value=0, max_value=2**31 - 1),
    hops=st.integers(min_value=0, max_value=1000),
    origin=st.integers(min_value=-1, max_value=2**31 - 1),
    request_id=st.integers(min_value=0, max_value=2**31 - 1),
)


def _generic_frame(msg: Message) -> bytes:
    """The generic-body frame of ``msg``, even where a fixed layout
    applies (the encoder always takes the fixed layout when it can)."""
    body = bytearray()
    _encode_generic(body, msg)
    return HEADER.pack(MAGIC, WIRE_VERSION, FRAME_GENERIC, len(body)) + bytes(body)


def _read_stream(blob: bytes) -> list[Message]:
    """Every message a ``FrameReader`` decodes off a stream holding
    ``blob`` and then EOF (framing errors propagate)."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        frames = FrameReader(reader)
        out: list[Message] = []
        try:
            while True:
                msgs, _errors = await frames.read_batch()
                out.extend(msgs)
        except EOFError:
            return out

    return asyncio.run(run())


def _tuples_to_lists(value):
    if isinstance(value, tuple):
        return [_tuples_to_lists(v) for v in value]
    if isinstance(value, list):
        return [_tuples_to_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _tuples_to_lists(v) for k, v in value.items()}
    return value


class TestWireRoundTrip:
    @settings(max_examples=120)
    @given(messages)
    def test_encode_decode_is_identity(self, msg):
        assert decode_message(encode_message(msg)) == msg

    def test_tuple_payload_round_trips_as_list(self):
        msg = Message(kind=MessageKind.GET, src=0, dst=1, payload=(1, (2, 3)))
        decoded = decode_message(encode_message(msg))
        assert decoded.payload == [1, [2, 3]]

    def test_bytes_payload_survives(self):
        blob = bytes(range(256))
        msg = Message(kind=MessageKind.INSERT, src=-1, dst=3, file="x",
                      payload={"data": blob})
        assert decode_message(encode_message(msg)).payload == {"data": blob}

    @settings(max_examples=60)
    @given(messages)
    def test_stream_read_matches_direct_decode(self, msg):
        frame = encode_message(msg)
        assert _read_stream(frame) == [decode_message(frame)] == [msg]


# ---------------------------------------------------------------------------
# binary codec: the generic body and the fixed layouts agree
# ---------------------------------------------------------------------------

class TestBinaryCodec:
    @settings(max_examples=120)
    @given(messages)
    def test_binary_encode_decode_is_identity(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @settings(max_examples=80)
    @given(messages)
    def test_codecs_decode_to_the_same_message(self, msg):
        # The two body codecs: the encoder's pick (a fixed layout
        # where one applies) and the generic tagged body.
        via_encoder = decode_message(encode_message(msg))
        via_generic = decode_message(_generic_frame(msg))
        assert via_encoder == via_generic

    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_every_kind_round_trips_through_both_codecs(self, kind):
        msg = Message(
            kind=kind, src=3, dst=12, file="every-kind.dat",
            payload={"n": [1, 2.5, None, b"\x00\xff"], "s": "text"},
            version=4, hops=2, origin=3, request_id=991,
        )
        for frame in (encode_message(msg), _generic_frame(msg)):
            assert decode_message(frame) == msg

    def test_binary_tuple_payload_round_trips_as_list(self):
        msg = Message(kind=MessageKind.GET, src=0, dst=1, payload=(1, (2, 3)))
        decoded = decode_message(encode_message(msg))
        assert decoded.payload == [1, [2, 3]]

    def test_binary_is_smaller_for_runtime_shaped_messages(self):
        # A runtime-shaped reply takes its fixed layout, which is
        # strictly smaller than the generic body of the same message.
        msg = Message(
            kind=MessageKind.GET_REPLY, src=3, dst=9, file="bench-00.dat",
            payload={"payload": "x" * 64, "server": 3},
            version=4, hops=3, origin=9, request_id=12345,
        )
        small = encode_message(msg)
        big = _generic_frame(msg)
        assert small[3] == FRAME_GET_REPLY
        assert len(small) < len(big)

    def test_huge_int_payload_round_trips(self):
        msg = Message(kind=MessageKind.ACK, src=0, dst=1,
                      payload={"big": 1 << 200, "neg": -(1 << 200)})
        assert decode_message(encode_message(msg)) == msg


class TestBinaryHardening:
    def _v2_frame(self, **kwargs):
        # The generic body: these tests corrupt specific generic-body
        # offsets, so keep the frame off the fixed-layout fast lane.
        return _generic_frame(
            Message(kind=MessageKind.GET, src=0, dst=1, file="abc", **kwargs)
        )

    def _reframe(self, body: bytes) -> bytes:
        return HEADER.pack(MAGIC, WIRE_VERSION, 0, len(body)) + body

    def test_version_1_header_is_a_frame_error(self):
        frame = self._v2_frame()
        frame = frame[:2] + bytes([1]) + frame[3:]
        with pytest.raises(FrameError, match="unsupported wire version 1"):
            decode_message(frame)

    def test_stream_reader_rejects_version_1_frames(self):
        frame = self._v2_frame()
        with pytest.raises(FrameError, match="unsupported wire version 1"):
            _read_stream(frame[:2] + bytes([1]) + frame[3:])

    def test_encoder_rejects_version_1(self):
        enc = FrameEncoder()
        with pytest.raises(FrameError, match="unsupported wire version 1"):
            enc.add(Message(kind=MessageKind.ACK, src=0, dst=1), 1)
        assert enc.pending == 0 and enc.pending_bytes == 0

    def test_unknown_kind_code_is_a_decode_error(self):
        body = bytearray(self._v2_frame()[HEADER.size:])
        body[0] = 200
        with pytest.raises(WireDecodeError, match="kind code"):
            decode_message(self._reframe(bytes(body)))

    def test_truncated_binary_payload_is_a_decode_error(self):
        body = self._v2_frame(payload={"key": "value"})[HEADER.size:-3]
        with pytest.raises(WireDecodeError, match="truncated"):
            decode_message(self._reframe(body))

    def test_unknown_payload_tag_is_a_decode_error(self):
        body = bytearray(self._v2_frame(payload=None)[HEADER.size:])
        body[-1] = 250  # the payload's single tag byte
        with pytest.raises(WireDecodeError, match="unknown binary payload tag"):
            decode_message(self._reframe(bytes(body)))

    def test_bad_utf8_file_name_is_a_decode_error(self):
        body = bytearray(self._v2_frame()[HEADER.size:])
        body[-4:-1] = b"\xff\xfe\xfd"  # the 3 name bytes precede the tag
        with pytest.raises(WireDecodeError, match="UTF-8"):
            decode_message(self._reframe(bytes(body)))

    def test_trailing_bytes_are_a_decode_error(self):
        body = self._v2_frame(payload=None)[HEADER.size:] + b"\x00"
        with pytest.raises(WireDecodeError, match="trailing"):
            decode_message(self._reframe(body))

    @settings(max_examples=80)
    @given(st.binary(min_size=0, max_size=64))
    def test_random_binary_bodies_never_crash_the_decoder(self, blob):
        try:
            decode_message(self._reframe(blob))
        except (FrameError, WireDecodeError):
            pass  # precise rejection is the contract; crashing is not


# ---------------------------------------------------------------------------
# fixed-layout fast lane: equivalence with generic v2, hardening
# ---------------------------------------------------------------------------

_i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

fixed_gets_and_acks = st.builds(
    Message,
    kind=st.sampled_from([MessageKind.GET, MessageKind.ACK]),
    src=_i64, dst=_i64, file=st.text(max_size=40),
    payload=st.none(),
    version=_i64, hops=_i64, origin=_i64, request_id=_i64,
)
fixed_routed_gets = st.builds(
    Message,
    kind=st.just(MessageKind.GET),
    src=_i64, dst=_i64, file=st.text(max_size=40),
    payload=st.lists(
        st.integers(min_value=0, max_value=255), min_size=1, max_size=16
    ),
    version=_i64, hops=_i64, origin=_i64, request_id=_i64,
)
fixed_replies = st.builds(
    Message,
    kind=st.just(MessageKind.GET_REPLY),
    src=_i64, dst=_i64, file=st.text(max_size=40),
    payload=st.fixed_dictionaries({
        "payload": st.one_of(
            st.none(), st.text(max_size=40), st.binary(max_size=40)
        ),
        "server": _i64,
    }),
    version=_i64, hops=_i64, origin=_i64, request_id=_i64,
)
fixed_overloads = st.builds(
    Message,
    kind=st.just(MessageKind.OVERLOAD),
    src=_i64, dst=_i64, file=st.text(max_size=40),
    payload=st.fixed_dictionaries({
        "shed_by": _i64,
        "redirect": _i64,
    }),
    version=_i64, hops=_i64, origin=_i64, request_id=_i64,
)
fixed_eligible = st.one_of(
    fixed_gets_and_acks, fixed_routed_gets, fixed_replies, fixed_overloads
)

_FLAG_FOR_KIND = {
    MessageKind.GET: FRAME_GET,
    MessageKind.ACK: FRAME_ACK,
    MessageKind.GET_REPLY: FRAME_GET_REPLY,
    MessageKind.OVERLOAD: FRAME_OVERLOAD,
}


class TestFixedLayouts:
    """The struct-packed GET/ACK/GET_REPLY lane inside wire v2."""

    def _fixed_reframe(self, flags: int, body: bytes) -> bytes:
        return HEADER.pack(MAGIC, WIRE_VERSION, flags, len(body)) + body

    @settings(max_examples=120)
    @given(fixed_eligible)
    def test_fixed_decodes_identical_to_generic_v2(self, msg):
        generic = _generic_frame(msg)
        fixed = encode_message(msg)
        assert fixed[3] == _FLAG_FOR_KIND[msg.kind]  # the lane is taken
        assert generic[3] == FRAME_GENERIC
        assert decode_message(fixed) == decode_message(generic) == msg

    @settings(max_examples=80)
    @given(fixed_eligible)
    def test_fixed_is_never_larger_than_generic(self, msg):
        fixed = encode_message(msg)
        generic = _generic_frame(msg)
        assert len(fixed) <= len(generic)

    @pytest.mark.parametrize("msg", [
        Message(kind=MessageKind.GET, src=0, dst=1, payload={"x": 1}),
        Message(kind=MessageKind.GET, src=0, dst=1, payload=[]),
        Message(kind=MessageKind.GET, src=0, dst=1, payload=[256]),
        Message(kind=MessageKind.GET, src=0, dst=1, payload=[1, "a"]),
        Message(kind=MessageKind.ACK, src=0, dst=1, payload=[1]),
        Message(kind=MessageKind.ACK, src=0, dst=1, payload={}),
        Message(kind=MessageKind.GET_REPLY, src=0, dst=1,
                payload={"payload": None}),
        Message(kind=MessageKind.GET_REPLY, src=0, dst=1,
                payload={"payload": None, "server": True}),
        Message(kind=MessageKind.GET_REPLY, src=0, dst=1,
                payload={"payload": None, "server": 1 << 70}),
        Message(kind=MessageKind.GET_REPLY, src=0, dst=1,
                payload={"payload": 7, "server": 1}),
        Message(kind=MessageKind.INSERT, src=0, dst=1, payload=None),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1, payload=None),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1, payload={}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": 2}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": 2, "redirect": 3, "extra": 0}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": True, "redirect": 3}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": 2, "redirect": "n3"}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": 2, "redirect": 1 << 70}),
    ])
    def test_ineligible_messages_fall_back_to_generic(self, msg):
        frame = encode_message(msg)
        assert frame[3] == FRAME_GENERIC
        assert decode_message(frame) == msg

    def test_bool_subtree_ids_coerce_to_equal_ints(self):
        # bytes() validates the trailer at C speed; bools ride through
        # as their int value, which compares equal end to end.
        msg = Message(kind=MessageKind.GET, src=0, dst=1, payload=[True, 0])
        frame = encode_message(msg)
        assert frame[3] == FRAME_GET
        decoded = decode_message(frame)
        assert decoded == msg and decoded.payload == [1, 0]

    def test_truncated_fixed_body_is_a_decode_error(self):
        with pytest.raises(WireDecodeError, match="too short"):
            decode_message(self._fixed_reframe(FRAME_GET, b"\x00" * 8))

    def test_truncated_overload_body_is_a_decode_error(self):
        with pytest.raises(WireDecodeError, match="OVERLOAD.*too short"):
            decode_message(self._fixed_reframe(FRAME_OVERLOAD, b"\x00" * 16))

    def test_overload_trailing_bytes_are_a_decode_error(self):
        msg = Message(kind=MessageKind.OVERLOAD, src=0, dst=1, file="f",
                      payload={"shed_by": 4, "redirect": -1})
        body = encode_message(msg)[HEADER.size:]
        with pytest.raises(WireDecodeError, match="trailing.*OVERLOAD"):
            decode_message(self._fixed_reframe(FRAME_OVERLOAD, body + b"\x00"))

    @settings(max_examples=80)
    @given(fixed_overloads)
    def test_overload_round_trips_on_both_codecs(self, msg):
        # The encoder takes the fixed lane; the generic body carries the
        # same payload as a tagged tree.
        fixed = encode_message(msg)
        assert fixed[3] == FRAME_OVERLOAD
        generic = _generic_frame(msg)
        assert generic[3] == FRAME_GENERIC
        assert decode_message(fixed) == decode_message(generic) == msg

    def test_ack_trailing_bytes_are_a_decode_error(self):
        msg = Message(kind=MessageKind.ACK, src=0, dst=1, file="f")
        body = encode_message(msg)[HEADER.size:]
        with pytest.raises(WireDecodeError, match="trailing"):
            decode_message(self._fixed_reframe(FRAME_ACK, body + b"\x00"))

    def test_bad_subtree_trailer_is_a_decode_error(self):
        msg = Message(kind=MessageKind.GET, src=0, dst=1, file="f",
                      payload=[1, 2])
        body = bytearray(encode_message(msg)[HEADER.size:])
        body[-3] = 9  # count byte claims 9 ids; only 2 follow
        with pytest.raises(WireDecodeError, match="subtree trailer"):
            decode_message(self._fixed_reframe(FRAME_GET, bytes(body)))

    def test_unknown_reply_payload_kind_is_a_decode_error(self):
        msg = Message(kind=MessageKind.GET_REPLY, src=0, dst=1, file="f",
                      payload={"payload": None, "server": 2})
        body = bytearray(encode_message(msg)[HEADER.size:])
        body[-5] = 77  # the value-kind byte before the u32 length
        with pytest.raises(WireDecodeError, match="payload kind"):
            decode_message(self._fixed_reframe(FRAME_GET_REPLY, bytes(body)))

    def test_reply_none_payload_with_bytes_is_a_decode_error(self):
        msg = Message(kind=MessageKind.GET_REPLY, src=0, dst=1, file="f",
                      payload={"payload": b"x", "server": 2})
        body = bytearray(encode_message(msg)[HEADER.size:])
        body[-6] = 0  # retag the 1-byte payload as None, bytes still follow
        with pytest.raises(WireDecodeError, match="carries bytes"):
            decode_message(self._fixed_reframe(FRAME_GET_REPLY, bytes(body)))

    @settings(max_examples=80)
    @given(st.integers(min_value=1, max_value=4),
           st.binary(min_size=0, max_size=64))
    def test_random_fixed_bodies_never_crash_the_decoder(self, flags, blob):
        try:
            decode_message(self._fixed_reframe(flags, blob))
        except (FrameError, WireDecodeError):
            pass


# ---------------------------------------------------------------------------
# zero-copy frame encoder / reader: buffer reuse and hardening
# ---------------------------------------------------------------------------

class TestFrameEncoder:
    def test_views_match_per_message_encodes(self):
        msgs = [
            Message(kind=MessageKind.GET, src=0, dst=i, file=f"f-{i}")
            for i in range(5)
        ]
        enc = FrameEncoder()
        for m in msgs:
            enc.add(m)
        assert enc.pending == 5
        views = enc.views()
        singles = [encode_message(m) for m in msgs]
        assert [bytes(v) for v in views] == singles
        for v in views:
            v.release()

    def test_rejected_message_rolls_back_the_buffer(self):
        good = Message(kind=MessageKind.GET, src=0, dst=1, file="ok")
        bad = Message(kind=MessageKind.INSERT, src=0, dst=1,
                      payload={"obj": object()})
        enc = FrameEncoder()
        enc.add(good)
        with pytest.raises(WireError):
            enc.add(bad)
        assert enc.pending == 1  # the bad frame left no partial bytes
        enc.add(good)
        blob = enc.take_bytes()
        assert blob == encode_message(good) * 2

    def test_encoder_is_reusable_after_flush(self):
        msg = Message(kind=MessageKind.ACK, src=0, dst=1, file="f")
        enc = FrameEncoder()
        enc.add(msg)
        first = enc.take_bytes()
        assert enc.pending == 0 and enc.pending_bytes == 0
        enc.add(msg)
        assert enc.take_bytes() == first


class TestFrameReader:
    def _drain(self, blob: bytes, chunk: int):
        """Feed ``blob`` in ``chunk``-sized slices; decode to exhaustion."""

        async def run():
            reader = asyncio.StreamReader()
            for i in range(0, len(blob), chunk):
                reader.feed_data(blob[i:i + chunk])
            reader.feed_eof()
            frames = FrameReader(reader)
            out, errors = [], 0
            try:
                while True:
                    msgs, errs = await frames.read_batch()
                    out.extend(msgs)
                    errors += errs
            except EOFError:
                return out, errors

        return asyncio.run(run())

    @settings(max_examples=40)
    @given(st.lists(messages, min_size=1, max_size=6),
           st.integers(min_value=1, max_value=64))
    def test_batch_decode_survives_any_chunking(self, msgs, chunk):
        blob = b"".join(encode_message(m) for m in msgs)
        out, errors = self._drain(blob, chunk)
        assert out == msgs and errors == 0

    def test_corrupt_body_is_counted_and_skipped(self):
        msgs = [
            Message(kind=MessageKind.GET, src=0, dst=i, file=f"f-{i}")
            for i in range(3)
        ]
        frames = [
            bytearray(_generic_frame(m))
            for m in msgs
        ]
        frames[1][-1] = 250  # the payload's single tag byte: unknown tag
        out, errors = self._drain(b"".join(bytes(f) for f in frames), chunk=7)
        assert out == [msgs[0], msgs[2]] and errors == 1

    def test_corrupt_overload_body_is_counted_and_skipped(self):
        before = Message(kind=MessageKind.GET, src=0, dst=1, file="a")
        bad = Message(kind=MessageKind.OVERLOAD, src=2, dst=1, file="b",
                      payload={"shed_by": 2, "redirect": 5})
        after = Message(kind=MessageKind.GET, src=0, dst=3, file="c")
        frames = [
            bytearray(encode_message(m))
            for m in (before, bad, after)
        ]
        assert frames[1][3] == FRAME_OVERLOAD
        frames[1].append(0)  # trailing byte after the fixed body
        frames[1][4:8] = len(frames[1][HEADER.size:]).to_bytes(4, "big")
        out, errors = self._drain(b"".join(bytes(f) for f in frames), chunk=9)
        assert out == [before, after] and errors == 1

    def test_mid_frame_truncation_is_a_frame_error(self):
        blob = encode_message(
            Message(kind=MessageKind.GET, src=0, dst=1, file="f"),
        )[:-2]
        with pytest.raises(FrameError, match="mid-frame"):
            self._drain(blob, chunk=5)

    def test_decoded_messages_never_alias_the_reuse_buffer(self):
        first = Message(kind=MessageKind.GET_REPLY, src=0, dst=1, file="a",
                        payload={"payload": b"\x01" * 32, "server": 7})
        second = Message(kind=MessageKind.GET_REPLY, src=0, dst=1, file="b",
                         payload={"payload": b"\xff" * 32, "server": 8})

        async def run():
            stream = asyncio.StreamReader()
            frames = FrameReader(stream)
            stream.feed_data(encode_message(first))
            batch1, _ = await frames.read_batch()
            # The second batch recycles the reader's internal buffer,
            # overwriting the bytes the first decode sliced from.
            stream.feed_data(encode_message(second))
            batch2, _ = await frames.read_batch()
            return batch1[0], batch2[0]

        got_first, got_second = asyncio.run(run())
        assert got_first == first  # still intact: leaves were copied out
        assert got_second == second


# ---------------------------------------------------------------------------
# latency histograms and shape distance
# ---------------------------------------------------------------------------

class TestLatencyHistogram:
    def test_round_trips_through_dict_form(self):
        hist = LatencyHistogram()
        for latency in (0.0005, 0.004, 0.004, 0.25, 9999.0):
            hist.record(latency)
        assert hist.total == 5
        data = hist.as_dict()
        import json as _json
        _json.dumps(data)  # strict JSON: the overflow bound must not leak inf
        back = LatencyHistogram.from_dict(data)
        assert back.counts == hist.counts and back.total == hist.total
        assert hist.shape_distance(back) == 0.0

    def test_shift_increases_distance(self):
        base, shifted, far = (LatencyHistogram() for _ in range(3))
        for _ in range(100):
            base.record(0.004)
            shifted.record(0.008)
            far.record(0.064)
        assert base.shape_distance(base) == 0.0
        d_near = base.shape_distance(shifted)
        d_far = base.shape_distance(far)
        assert 0.0 < d_near < d_far
        assert base.shape_distance(shifted) == shifted.shape_distance(base)

    def test_empty_histogram_distance_is_infinite(self):
        empty, full = LatencyHistogram(), LatencyHistogram()
        full.record(0.01)
        assert empty.shape_distance(full) == float("inf")
        assert full.shape_distance(empty) == float("inf")

    def test_extreme_latencies_land_in_end_buckets(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(1e9)
        assert hist.total == 2
        assert hist.counts[0] == 1 and hist.counts[-1] == 1


# ---------------------------------------------------------------------------
# wire codec: hardening against corrupt frames
# ---------------------------------------------------------------------------

class TestWireHardening:
    def _frame(self, **kwargs):
        return encode_message(
            Message(kind=MessageKind.GET, src=0, dst=1, file="f", **kwargs)
        )

    def test_bad_magic_is_a_frame_error(self):
        frame = b"XX" + self._frame()[2:]
        with pytest.raises(FrameError, match="magic"):
            decode_message(frame)

    def test_unknown_version_byte_is_a_frame_error(self):
        frame = self._frame()
        frame = frame[:2] + bytes([99]) + frame[3:]
        with pytest.raises(FrameError, match="version"):
            decode_message(frame)

    def test_oversized_length_is_a_frame_error(self):
        header = HEADER.pack(MAGIC, WIRE_VERSION, 0, 1 << 30)
        with pytest.raises(FrameError, match="exceeds"):
            decode_message(header)

    def test_truncated_header_is_a_frame_error(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_message(self._frame()[:5])

    def test_truncated_body_is_a_frame_error(self):
        with pytest.raises(FrameError, match="does not match"):
            decode_message(self._frame()[:-3])

    def test_garbage_json_is_a_decode_error(self):
        # A peer speaking text instead of the binary body is rejected
        # precisely, and the framing stays aligned.
        body = b"{nope"
        frame = HEADER.pack(MAGIC, WIRE_VERSION, FRAME_GENERIC, len(body)) + body
        with pytest.raises(WireDecodeError, match="shorter than the fixed part"):
            decode_message(frame)

    def test_non_object_body_is_a_decode_error(self):
        body = b"[1,2,3]" * 8  # long enough to reach the payload tag
        frame = HEADER.pack(MAGIC, WIRE_VERSION, FRAME_GENERIC, len(body)) + body
        with pytest.raises(WireDecodeError):
            decode_message(frame)

    def test_unknown_kind_is_a_decode_error(self):
        body = bytearray(
            _generic_frame(Message(kind=MessageKind.GET, src=0, dst=1))
        )
        body[HEADER.size] = len(MessageKind)  # one past the last kind code
        with pytest.raises(WireDecodeError, match="unknown message kind"):
            decode_message(bytes(body))

    def test_wrongly_typed_field_is_a_decode_error(self):
        msg = Message(kind=MessageKind.INSERT, src=0, dst=1, version="seven")
        with pytest.raises(WireDecodeError, match="not wire-encodable"):
            encode_message(msg)

    def test_missing_src_dst_is_a_decode_error(self):
        # A generic body cut inside its fixed integer fields.
        body = _generic_frame(
            Message(kind=MessageKind.INSERT, src=0, dst=1)
        )[HEADER.size:HEADER.size + 9]
        frame = HEADER.pack(MAGIC, WIRE_VERSION, FRAME_GENERIC, len(body)) + body
        with pytest.raises(WireDecodeError, match="shorter than the fixed part"):
            decode_message(frame)

    @settings(max_examples=80)
    @given(st.binary(min_size=0, max_size=64))
    def test_random_bytes_never_crash_the_decoder(self, blob):
        try:
            decode_message(blob)
        except (FrameError, WireDecodeError):
            pass  # precise rejection is the contract; crashing is not

    def test_mid_frame_eof_on_stream_is_a_frame_error(self):
        with pytest.raises(FrameError, match="mid-frame"):
            _read_stream(self._frame()[:-2])

    def test_clean_eof_on_stream_is_eoferror(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            with pytest.raises(EOFError):
                await FrameReader(reader).read_batch()

        asyncio.run(run())


def test_percentile_interpolates():
    assert percentile([], 0.5) == 0.0
    assert percentile([5.0], 0.99) == 5.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


class TestLoadReportQuantiles:
    """p50/p99 come from one ``statistics.quantiles`` pass, not two
    full sorts per property access — and must agree with the reference
    :func:`percentile` interpolation."""

    def _report(self, latencies):
        from repro.runtime.client import LoadReport

        return LoadReport(
            requests=len(latencies), completed=len(latencies),
            duration=1.0, latencies=list(latencies),
        )

    @settings(max_examples=60)
    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), max_size=200))
    def test_quantiles_match_reference_percentile(self, latencies):
        report = self._report(latencies)
        assert report.p50 == pytest.approx(percentile(latencies, 0.50))
        assert report.p99 == pytest.approx(percentile(latencies, 0.99))

    def test_cache_invalidates_when_samples_arrive(self):
        report = self._report([1.0, 2.0, 3.0])
        first = report.p99
        report.latencies.extend([100.0] * 50)
        assert report.p99 > first

    def test_empty_and_singleton_reports(self):
        assert self._report([]).p50 == 0.0
        assert self._report([]).p99 == 0.0
        assert self._report([0.25]).p50 == 0.25
        assert self._report([0.25]).p99 == 0.25


# ---------------------------------------------------------------------------
# tier-1 conformance smoke: one small scenario, both models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", [0, 1])
def test_conformance_smoke(b):
    spec = WorkloadSpec(m=3, b=b, seed=0, files=3, ops=12)
    report = asyncio.run(run_conformance(spec))
    assert report.ok, report.render()
    assert report.files == 3


# ---------------------------------------------------------------------------
# live-cluster tests (runtime marker: real timers, bursts, TCP)
# ---------------------------------------------------------------------------

@pytest.mark.runtime
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("b", [0, 1])
def test_oracle_conformance_across_seeds(seed, b):
    """ISSUE acceptance: >= 3 seeds, both §3 and §4 models."""
    spec = WorkloadSpec(m=4, b=b, seed=seed, files=5, ops=30)
    report = asyncio.run(run_conformance(spec))
    assert report.ok, report.render()


@pytest.mark.runtime
def test_coalesced_batched_cluster_matches_oracle():
    """Tick-coalesced frames plus deep inbox batching change scheduling,
    not outcomes: the oracle replay still agrees."""
    spec = WorkloadSpec(m=4, b=1, seed=3, files=5, ops=30)
    config = RuntimeConfig(m=4, b=1, seed=3, batch_max=32)
    report = asyncio.run(run_conformance(spec, config=config))
    assert report.ok, report.render()


def test_conformance_rejects_mismatched_config():
    from repro.core.errors import ConfigurationError

    spec = WorkloadSpec(m=4, b=1, seed=3, files=2, ops=4)
    config = RuntimeConfig(m=4, b=1, seed=4)
    with pytest.raises(ConfigurationError):
        asyncio.run(run_conformance(spec, config=config))


@pytest.mark.runtime
def test_idle_replica_decays_with_conformant_removal():
    """Counter-based removal, live: replicas whose access counters sit
    still past ``idle_timeout`` are REMOVEd via the wire, the decision
    lands in the oplog, and the oracle replay (which drives
    ``remove_replica``) agrees with the final placement."""

    async def run():
        config = RuntimeConfig(
            m=4, b=1, seed=21, capacity=25.0, service_time=0.001,
            inflight_limit=8, idle_timeout=0.25,
        )
        cluster = await LiveCluster.start(config)
        try:
            files = [f"cold-{i}" for i in range(4)]
            boot = await RuntimeClient(cluster, 0).connect()
            for name in files:
                await boot.insert(name, name)
            await boot.close()
            await cluster.drain()
            gen = LoadGenerator(
                cluster, files, WorkloadShape(kind="zipf", s=1.5), seed=21
            )
            await gen.run_open_loop(rps=300, duration=1.0)
            await gen.close()
            assert cluster.replicas_created() > 0, "burst never replicated"
            # Traffic stops; counters freeze; decay kicks in at the
            # sweep after idle_timeout.
            deadline = asyncio.get_running_loop().time() + 3.0
            while not any(rec.kind == "remove" for rec in cluster.oplog):
                assert asyncio.get_running_loop().time() < deadline, \
                    "no idle replica decayed within 3s"
                await asyncio.sleep(0.05)
            await cluster.quiesce()
            removes = [rec for rec in cluster.oplog if rec.kind == "remove"]
            assert removes
            system = replay_oplog(cluster.oplog, config, cluster.initial_live)
            system.check_invariants()
            report = diff_states(cluster, system)
            assert report.ok, report.render()
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_live_cluster_serves_seeded_burst():
    async def run():
        config = RuntimeConfig(
            m=4, b=1, seed=17, capacity=25.0, service_time=0.001,
            inflight_limit=8,
        )
        cluster = await LiveCluster.start(config)
        try:
            files = [f"burst-{i}" for i in range(5)]
            boot = await RuntimeClient(cluster, 2).connect()
            for name in files:
                await boot.insert(name, name.upper())
            await boot.close()
            await cluster.drain()
            gen = LoadGenerator(
                cluster, files, WorkloadShape(kind="zipf", s=1.5), seed=17
            )
            report = await gen.run_open_loop(rps=300, duration=1.0)
            await gen.close()
            await cluster.quiesce()
            assert report.timeouts == 0
            assert report.completed >= 0.99 * report.requests
            assert report.p99 < 1.0
            served = sum(report.served_by_node.values())
            assert served >= report.completed
            assert cluster.replicas_created() > 0
            system = replay_oplog(cluster.oplog, config, cluster.initial_live)
            system.check_invariants()
            conformance = diff_states(cluster, system)
            assert conformance.ok, conformance.render()
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_silent_crash_is_discovered_and_rerouted():
    """§3 FINDLIVENODE at the message level: a GET mid-flight hits an
    unannounced dead node; the sender discovers the death through the
    failed send, marks it in its own word, and reroutes."""

    async def run():
        config = RuntimeConfig(m=4, b=0, seed=5)
        cluster = await LiveCluster.start(config)
        try:
            boot = await RuntimeClient(cluster, 0).connect()
            insert = await boot.insert("target.dat", "precious")
            await boot.close()
            await cluster.drain()
            homes = insert.payload["homes"]
            home = homes[0]
            tree = cluster.tree(cluster.psi("target.dat"))
            # Entry whose first routing hop is a live non-holder.
            from repro.core.routing import first_alive_ancestor

            entry = hop = None
            for pid in sorted(cluster.nodes):
                if pid == home:
                    continue
                nxt = first_alive_ancestor(tree, pid, cluster.word)
                if nxt is not None and nxt != home:
                    entry, hop = pid, nxt
                    break
            assert entry is not None, "topology has no 2-hop route"
            # The intermediate dies silently: no REGISTER_DEAD circulates.
            await cluster.crash(hop, announce=False)
            assert cluster.nodes[entry].word.is_live(hop)  # still believed live
            client = await RuntimeClient(cluster, entry).connect()
            outcome = await client.get("target.dat", timeout=5.0)
            await client.close()
            assert outcome.ok, outcome
            assert outcome.payload == "precious"
            # The failed send taught the entry node about the death.
            assert not cluster.nodes[entry].word.is_live(hop)
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_corrupt_frame_does_not_kill_the_connection():
    """Decode hardening end to end: a malformed body on a live peer
    connection is counted and skipped; the next frame still serves."""

    async def run():
        cluster = await LiveCluster.start(RuntimeConfig(m=3, b=0, seed=1))
        try:
            boot = await RuntimeClient(cluster, 0).connect()
            await boot.insert("ok.dat", "fine")
            await cluster.drain()
            # Hand-deliver a well-framed but bogus body on the same wire.
            body = b"\xfa" * 20  # a generic body cut short of its fields
            assert boot._writer is not None
            boot._writer.write(
                HEADER.pack(MAGIC, WIRE_VERSION, FRAME_GENERIC, len(body)) + body
            )
            await boot._writer.drain()
            outcome = await boot.get("ok.dat")
            assert outcome.ok and outcome.payload == "fine"
            assert cluster.counters.get("wire_decode_errors", 0) >= 1
            await boot.close()
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_tcp_loopback_serves_the_same_protocol():
    async def run():
        cluster = await LiveCluster.start(
            RuntimeConfig(m=3, b=1, seed=2, tcp=True)
        )
        try:
            assert len(cluster.addresses) == len(cluster.nodes)
            client = await RuntimeClient(cluster, 4).connect()
            await client.insert("tcp.dat", b"\x00\x01binary\xff")
            got = await client.get("tcp.dat")
            assert got.ok and got.payload == b"\x00\x01binary\xff"
            upd = await client.update("tcp.dat", b"v2")
            assert upd.version == 2
            got = await client.get("tcp.dat")
            assert got.version == 2 and got.payload == b"v2"
            await client.close()
            await cluster.quiesce()
            system = replay_oplog(
                cluster.oplog, cluster.config, cluster.initial_live
            )
            assert diff_states(cluster, system).ok
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_churn_over_the_wire_matches_oracle():
    """Join / leave / crash driven as messages end in oracle state."""

    async def run():
        config = RuntimeConfig(m=4, b=1, seed=13)
        cluster = await LiveCluster.start(config)
        try:
            boot = await RuntimeClient(cluster, 1).connect()
            for i in range(6):
                await boot.insert(f"c-{i}", f"v:{i}")
            await boot.close()
            await cluster.drain()
            await cluster.leave(3)
            await cluster.crash(10)
            await cluster.join(3)
            await cluster.quiesce()
            system = replay_oplog(cluster.oplog, config, cluster.initial_live)
            system.check_invariants()
            report = diff_states(cluster, system)
            assert report.ok, report.render()
        finally:
            await cluster.shutdown()

    asyncio.run(run())
