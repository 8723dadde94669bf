"""Tests for the multi-process scale-out runtime
(``repro.runtime.scaleout``): bootstrap/address-book service, per-node
worker processes, the kill -9 crash supervisor, and the sharded load
driver with its exactly-merging measurement ledgers.

The deterministic pieces — the control plane's wire forms and link,
batch frames, address resolution, supervisor validation and teardown,
the merge algebra
of ``LoadReport``/``LatencyHistogram``, and the worker holder-hint
cache — run in tier-1.  Everything that forks real worker OS processes
and drives them over loopback TCP carries the ``runtime`` marker and
runs in CI's scaleout-smoke job.

The process-spawning tests are plain sync functions on purpose: the
supervisor must fork the fleet *before* the parent owns a running
event loop, so each test calls ``launch()`` first and only then enters
``asyncio.run``.
"""

import asyncio
import json
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, MembershipError
from repro.net.message import Message, MessageKind, fast_message
from repro.runtime import (
    LoadGenerator,
    PeerUnreachableError,
    RuntimeClient,
    RuntimeConfig,
    WireDecodeError,
    encode_message,
    verify_snapshot,
)
from repro.runtime.addressing import dial_peer
from repro.runtime.client import LatencyHistogram, LoadReport
from repro.runtime.node import NodeServer
from repro.runtime.scaleout import (
    ScaleoutEndpoint,
    ScaleoutSupervisor,
    ShardedLoadDriver,
    ControlLink,
    config_from_wire,
    config_to_wire,
    decode_batch,
    encode_batch,
)
from repro.runtime.scaleout.control import message_from_wire, message_to_wire
from repro.runtime.wire import HEADER, WIRE_VERSION
from repro.runtime.scaleout.worker import WorkerRuntime, _BoundedCache, _book_from_wire

# ---------------------------------------------------------------------------
# control-plane codecs and validation (deterministic, tier-1)
# ---------------------------------------------------------------------------


class TestControlCodecs:
    def test_config_round_trips_through_json_profile(self):
        config = RuntimeConfig(
            m=5, b=2, seed=11, tcp=True, capacity=12.5, batch_max=4,
            inbox_limit=3, victim_policy="random",
        )
        wired = config_to_wire(config)
        assert wired == json.loads(json.dumps(wired))
        back = config_from_wire(wired)
        assert back == config

    def test_infinite_fields_survive_the_json_sentinel(self):
        config = RuntimeConfig(m=3, b=1, slo_budget=float("inf"),
                               idle_timeout=float("inf"))
        back = config_from_wire(config_to_wire(config))
        assert back.slo_budget == float("inf")
        assert back.idle_timeout == float("inf")

    def test_unknown_config_keys_are_ignored(self):
        wired = config_to_wire(RuntimeConfig(m=3, b=1))
        wired["retired_knob"] = 7
        assert config_from_wire(wired) == RuntimeConfig(m=3, b=1)

    def test_admin_frame_rides_as_its_frame_bytes(self):
        msg = Message(kind=MessageKind.REGISTER_DEAD, src=-2, dst=5,
                      file="f", payload={"pid": 3, "blob": b"\x00\xff"})
        wired = message_to_wire(msg)
        assert wired == encode_message(msg)
        assert message_from_wire(wired) == msg

    def test_delivered_frame_must_be_bytes(self):
        with pytest.raises(WireDecodeError, match="bytes"):
            message_from_wire({"kind": "get", "src": 0, "dst": 1})

    def test_book_from_wire_restores_int_pids_and_address_tuples(self):
        book = _book_from_wire({"0": ["127.0.0.1", 4000], "7": ["::1", 4001]})
        assert book == {0: ("127.0.0.1", 4000), 7: ("::1", 4001)}


class TestBatchFrames:
    def test_batch_round_trips_bodies_in_order(self):
        bodies = [
            {"op": "served", "n": 3},
            {"op": "client_sent", "sent": {"0": 2}},
            {"op": "ping"},
        ]
        frame = encode_batch(bodies)
        assert frame == json.loads(json.dumps(frame))
        assert decode_batch(frame) == bodies

    def test_non_batch_body_decodes_to_singleton(self):
        body = {"op": "decide", "name": "f"}
        assert decode_batch(body) == [body]

    def test_malformed_batch_members_are_dropped(self):
        assert decode_batch({"op": "batch", "ops": "nope"}) == []
        assert decode_batch({"op": "batch"}) == []
        mixed = {"op": "batch", "ops": [{"op": "a"}, 7, None, {"op": "b"}]}
        assert decode_batch(mixed) == [{"op": "a"}, {"op": "b"}]


class _NullWriter:
    """The write half a read-side ControlLink test never uses."""

    def is_closing(self) -> bool:
        return False

    def writelines(self, data) -> None:
        pass

    def close(self) -> None:
        pass


class TestControlLink:
    def _control_frame(self, body: dict) -> bytes:
        return encode_message(
            fast_message(MessageKind.CONTROL, -2, -2, "", body)
        )

    def _run_link(self, blob: bytes) -> list[str]:
        """Feed ``blob`` then EOF to a link; the ops it dispatched."""
        seen: list[str] = []

        async def handler(op: str, body: dict) -> None:
            seen.append(op)

        async def run():
            reader = asyncio.StreamReader()
            link = ControlLink(reader, _NullWriter(), handler, label="t")
            link.start()
            reader.feed_data(blob)
            reader.feed_eof()
            await asyncio.wait_for(link.closed.wait(), 5.0)
            await asyncio.sleep(0.01)  # let queued dispatches run
            await link.close()

        asyncio.run(run())
        return seen

    def test_casts_and_batches_dispatch_in_order(self):
        blob = self._control_frame({"op": "a"}) + self._control_frame(
            encode_batch([{"op": "b"}, {"op": "c"}])
        )
        assert self._run_link(blob) == ["a", "b", "c"]

    def test_undecodable_body_ends_the_link(self):
        good = self._control_frame({"op": "a"})
        bad = bytearray(good)
        bad[HEADER.size] = 250  # unknown message kind code
        later = self._control_frame({"op": "late"})
        # The link closes on the bad body (not on EOF, which never
        # comes here) and dispatches nothing after it.
        seen: list[str] = []

        async def handler(op: str, body: dict) -> None:
            seen.append(op)

        async def run():
            reader = asyncio.StreamReader()
            link = ControlLink(reader, _NullWriter(), handler, label="t")
            link.start()
            reader.feed_data(good)
            await asyncio.sleep(0.01)
            reader.feed_data(bytes(bad) + later)
            await asyncio.wait_for(link.closed.wait(), 5.0)
            await asyncio.sleep(0.01)
            await link.close()

        asyncio.run(run())
        assert seen == ["a"]

    def test_version_1_frame_ends_the_link(self):
        frame = self._control_frame({"op": "a"})
        assert frame[2] == WIRE_VERSION
        assert self._run_link(frame[:2] + bytes([1]) + frame[3:]) == []


# ---------------------------------------------------------------------------
# sharded-measurement merge algebra (deterministic, tier-1)
# ---------------------------------------------------------------------------

_COUNTER_FIELDS = LoadReport._COUNTERS

shard_samples = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=5.0,
                       allow_nan=False, allow_infinity=False),
             max_size=40),
    min_size=1, max_size=4,
)


class TestMergeExactness:
    @given(shards=shard_samples)
    @settings(max_examples=60, deadline=None)
    def test_histogram_merge_equals_concatenated_recording(self, shards):
        merged = LatencyHistogram()
        for samples in shards:
            part = LatencyHistogram()
            for s in samples:
                part.record(s)
            merged.merge(part)
        whole = LatencyHistogram()
        for s in (x for samples in shards for x in samples):
            whole.record(s)
        assert merged.counts == whole.counts
        assert merged.total == whole.total == sum(map(len, shards))

    @given(shards=shard_samples, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_report_merge_is_bit_identical_to_concatenated_samples(
        self, shards, data
    ):
        """Merging K shard reports == one report over the concatenated
        samples: same counters, same histogram, same wire form — the
        exactness claim the sharded driver's verdicts rest on."""
        counter_val = st.integers(min_value=0, max_value=50)
        parts: list[LoadReport] = []
        for samples in shards:
            part = LoadReport(duration=data.draw(
                st.floats(min_value=0.1, max_value=2.0, allow_nan=False)
            ))
            for field_name in _COUNTER_FIELDS:
                setattr(part, field_name, data.draw(counter_val))
            for s in samples:
                part.latencies.append(s)
                part.hist.record(s)
            parts.append(part)

        merged = LoadReport()
        for part in parts:
            merged.merge(part)

        whole = LoadReport(duration=max(p.duration for p in parts))
        for field_name in _COUNTER_FIELDS:
            setattr(whole, field_name, sum(getattr(p, field_name) for p in parts))
        for part in parts:
            for s in part.latencies:
                whole.latencies.append(s)
                whole.hist.record(s)

        assert merged.to_wire() == whole.to_wire()
        assert merged.p50 == whole.p50 and merged.p99 == whole.p99

    @given(shards=shard_samples)
    @settings(max_examples=30, deadline=None)
    def test_wire_round_trip_is_exact_through_json(self, shards):
        """`to_wire` -> JSON text -> `from_wire` loses nothing: floats
        round-trip doubles exactly, so a shard's report survives its
        result pipe bit-for-bit."""
        report = LoadReport(duration=1.0)
        for samples in shards:
            for s in samples:
                report.latencies.append(s)
                report.hist.record(s)
        report.requests = report.completed = len(report.latencies)
        report.served_by_node = {1: 4, 6: 2}
        back = LoadReport.from_wire(json.loads(json.dumps(report.to_wire())))
        assert back.to_wire() == report.to_wire()
        assert back.latencies == report.latencies
        assert back.served_by_node == report.served_by_node


class TestShardedDriverValidation:
    def test_rejects_degenerate_parameters(self):
        good = dict(host="h", port=1, files=["f"], shards=2,
                    rps=10.0, duration=1.0)
        ShardedLoadDriver(**good)
        for bad in (
            {**good, "shards": 0},
            {**good, "rps": 0.0},
            {**good, "duration": -1.0},
            {**good, "files": []},
        ):
            with pytest.raises(ConfigurationError):
                ShardedLoadDriver(**bad)

    def test_entry_shard_validation_in_load_generator(self):
        class _Stub:
            nodes = frozenset({0, 1})
            epoch = 0

        for bad in ((0, 0), (2, 2), (-1, 3)):
            with pytest.raises(ConfigurationError):
                LoadGenerator(_Stub(), ["f"], entry_shard=bad)


# ---------------------------------------------------------------------------
# worker holder-hint cache (deterministic, tier-1)
# ---------------------------------------------------------------------------


def _bare_runtime(pid: int = 1, n: int = 8) -> WorkerRuntime:
    config = RuntimeConfig(m=3, b=1, tcp=True)
    runtime = WorkerRuntime(config, pid=pid, live=list(range(n)), link=None)
    runtime.node = NodeServer(pid, runtime)  # type: ignore[arg-type]
    return runtime


class TestHolderHintCache:
    def test_cached_live_holder_becomes_the_redirect_hint_not_minus_one(self):
        """The regression the cache exists for: a shed at a worker whose
        cache knows a live alternative holder must emit that pid — the
        old own-store-only view said ``holders() == {}`` and handed the
        client ``-1`` (a blind reroute) on every shed."""
        runtime = _bare_runtime()
        node = runtime.node
        assert node._redirect_hint("hot") == -1  # cold cache: the old world
        runtime.note_holders("hot", [3, 5])
        assert runtime.holders("hot") == {3, 5}
        for _ in range(16):
            assert node._redirect_hint("hot") in (3, 5)

    def test_stale_cached_holder_is_filtered_by_the_status_word(self):
        """A cached holder this node knows is dead is never handed out
        (`_redirect_hint` intersects with the word); one the node does
        NOT know is dead flows to the client, whose FINDLIVENODE
        reroute — gated by the stale-redirect invariant — absorbs it."""
        runtime = _bare_runtime()
        node = runtime.node
        runtime.note_holders("f", [4])
        node.word.register_dead(4)
        assert node._redirect_hint("f") == -1

    def test_book_push_eviction_scrubs_cache_and_keeps_word(self):
        runtime = _bare_runtime()
        runtime.note_holders("a", [2, 6])
        runtime.note_holders("b", [6])
        runtime.note_evicted({6})
        assert runtime.holders("a") == {2}
        assert runtime.holders("b") == set()
        # Silent-kill discipline: eviction never flips the status word.
        assert runtime.word.is_live(6)

    def test_own_store_and_malformed_deltas(self):
        from repro.node.storage import FileOrigin

        runtime = _bare_runtime(pid=2)
        runtime.node.store.store("mine", "p", 1, FileOrigin.INSERTED)
        assert runtime.holders("mine") == {2}
        runtime.note_holders("mine", ["not-a-pid", object()])  # ignored
        assert runtime.holders("mine") == {2}
        runtime.note_holders("mine", [])  # empty delta clears the entry
        assert runtime.holders("mine") == {2}

    def test_bounded_cache_evicts_oldest_at_capacity(self):
        cache = _BoundedCache(3)
        for k in range(3):
            cache[k] = k
        cache[3] = 3  # evicts 0, the oldest
        assert set(cache) == {1, 2, 3}
        cache[1] = 99  # update in place: no eviction
        assert set(cache) == {1, 2, 3} and cache[1] == 99
        with pytest.raises(ValueError):
            _BoundedCache(0)


class TestAddressing:
    def test_missing_book_entry_is_the_dead_peer_signal(self):
        with pytest.raises(PeerUnreachableError, match=r"P\(9\)"):
            asyncio.run(dial_peer(None, 9))

    def test_refused_connection_is_the_dead_peer_signal(self):
        import socket

        sock = socket.create_server(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nobody listens here any more
        with pytest.raises(PeerUnreachableError, match=rf"P\(4\).*failed"):
            asyncio.run(dial_peer(("127.0.0.1", port), 4))


class TestSupervisorValidation:
    def test_unknown_spawn_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="fork"):
            ScaleoutSupervisor(RuntimeConfig(m=3, b=1), n_nodes=4, mode="thread")

    def test_kill_of_unbooted_node_rejected(self):
        supervisor = ScaleoutSupervisor(RuntimeConfig(m=3, b=1), n_nodes=4)
        with pytest.raises(MembershipError):
            asyncio.run(supervisor.kill(2))

    def test_shutdown_reaps_a_child_that_ignores_sigterm(self):
        """A child that never said hello and ignores SIGTERM is
        SIGKILLed at the deadline; shutdown never blocks in waitpid."""
        supervisor = ScaleoutSupervisor(RuntimeConfig(m=3, b=1), n_nodes=4)
        ready_r, ready_w = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            try:
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                os.write(ready_w, b"x")
                time.sleep(10.0)  # bounded, so a hung reap shows as slow
            finally:
                os._exit(0)
        os.close(ready_w)
        assert os.read(ready_r, 1) == b"x"
        os.close(ready_r)
        supervisor._children.append(child)
        t0 = time.monotonic()
        asyncio.run(supervisor.shutdown(term_timeout=0.2))
        assert time.monotonic() - t0 < 5.0
        assert supervisor.alive() == {child: False}
        with pytest.raises(ChildProcessError):
            os.waitpid(child, os.WNOHANG)


# ---------------------------------------------------------------------------
# real worker processes over loopback TCP (runtime marker)
# ---------------------------------------------------------------------------

def _fleet_config(**overrides) -> RuntimeConfig:
    base = dict(m=3, b=1, seed=5, tcp=True, capacity=40.0,
                service_time=0.002, cooldown=0.05)
    base.update(overrides)
    return RuntimeConfig(**base)


@pytest.mark.runtime
class TestWorkerLifecycle:
    def test_clean_boot_serve_sigterm_drain_ships_goodbye_snapshots(self):
        """Boot -> serve -> SIGTERM drain -> goodbye: every worker ships
        its final store/word snapshot, and the central snapshot built
        from worker stores replays conformant."""
        config = _fleet_config()
        supervisor = ScaleoutSupervisor(config, n_nodes=8, mode="fork")
        host, port = supervisor.launch()

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            files = [f"life-{i}" for i in range(5)]
            client = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
            for name in files:
                await client.insert(name, payload=f"payload:{name}")
            await client.close()
            gen = LoadGenerator(endpoint, files, seed=3, timeout=5.0)
            report = await gen.run_open_loop(rps=60, duration=0.8)
            await gen.close()
            await endpoint.quiesce()
            snapshot, stats = await supervisor.bootstrap.collect_snapshot()
            await endpoint.close()
            await supervisor.shutdown()
            return report, snapshot, stats

        report, snapshot, stats = asyncio.run(drive())
        assert report.conserved and report.completed > 0
        conformance = verify_snapshot(snapshot)
        assert conformance.ok, conformance.mismatches
        # Every worker terminated cleanly and shipped a goodbye body.
        assert sorted(supervisor.bootstrap.goodbyes) == list(range(8))
        for pid, body in supervisor.bootstrap.goodbyes.items():
            assert {"store", "word", "served"} <= set(body)
            assert pid in body["word"]
        assert sum(stats.served_by_node.values()) == report.completed

    def test_worker_subcommand_spawn_mode_boots_and_drains(self):
        """Subprocess spawn exercises the ``lesslog worker`` entrypoint
        for every node in the fleet."""
        config = _fleet_config()
        supervisor = ScaleoutSupervisor(config, n_nodes=6, mode="subprocess")
        host, port = supervisor.launch()

        async def drive() -> object:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            client = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
            await client.insert("sub-0", payload="p")
            got = await client.get("sub-0")
            await client.close()
            await endpoint.quiesce()
            await endpoint.close()
            await supervisor.shutdown()
            return got

        got = asyncio.run(drive())
        assert got.payload == "p"
        assert sorted(supervisor.bootstrap.goodbyes) == list(range(6))


@pytest.mark.runtime
class TestKillDashNine:
    def test_kill9_mid_burst_with_inherited_subtree_replays_conformant(self):
        """kill -9 a worker mid-burst; after the autopsy the victim's
        subtree is inherited per §5 and the centrally collected
        snapshot replays against the oracle with zero diffs."""
        config = _fleet_config(seed=7)
        supervisor = ScaleoutSupervisor(config, n_nodes=8, mode="fork")
        host, port = supervisor.launch()

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            files = [f"crash-{i}" for i in range(6)]
            client = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
            for name in files:
                await client.insert(name, payload=f"payload:{name}")
            await client.close()
            gen = LoadGenerator(endpoint, files, seed=9, timeout=5.0)
            burst = asyncio.ensure_future(gen.run_open_loop(rps=80, duration=1.2))
            await asyncio.sleep(0.5)
            victim = sorted(endpoint.nodes)[2]
            victim_os = supervisor.bootstrap.ospid_of(victim)
            await supervisor.kill(victim)
            report = await burst
            await gen.close()
            # The process is provably gone (reaped) before the autopsy.
            assert supervisor.alive().get(victim_os) is False
            await supervisor.bootstrap.announce_crash(victim)
            await endpoint.quiesce()
            snapshot, _stats = await supervisor.bootstrap.collect_snapshot()
            await endpoint.close()
            await supervisor.shutdown()
            return victim, report, snapshot

        victim, report, snapshot = asyncio.run(drive())
        assert report.conserved
        conformance = verify_snapshot(snapshot)
        assert conformance.ok, conformance.mismatches
        # The victim is dead in the authoritative word and its files
        # were inherited by live holders.
        assert victim not in snapshot.live_pids
        for name, holders in snapshot.placement.items():
            assert holders, f"{name} lost all replicas"
            assert victim not in holders
        # Survivors ship goodbyes; the kill -9 victim cannot.
        survivors = sorted(set(range(8)) - {victim})
        assert sorted(supervisor.bootstrap.goodbyes) == survivors

    def test_killed_worker_disappears_from_client_books(self):
        config = _fleet_config(seed=11)
        supervisor = ScaleoutSupervisor(config, n_nodes=6, mode="fork")
        host, port = supervisor.launch()

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            before = set(endpoint.nodes)
            victim = sorted(endpoint.nodes)[1]
            await supervisor.kill(victim)
            deadline = asyncio.get_running_loop().time() + 5.0
            while (victim in endpoint.nodes
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.01)
            after = set(endpoint.nodes)
            await supervisor.bootstrap.announce_crash(victim)
            await endpoint.quiesce()
            await endpoint.close()
            await supervisor.shutdown()
            return victim, before, after

        victim, before, after = asyncio.run(drive())
        assert victim in before
        assert after == before - {victim}


@pytest.mark.runtime
class TestShardedBurst:
    def test_two_shard_burst_merges_exactly_and_quiesces(self):
        """Two forked driver processes over disjoint entry partitions:
        the merged ledger conserves, equals the per-shard sum, the
        fleet's serve totals match the merged completions, every worker
        goodbyes, and the snapshot replays conformant — the full
        sharded measurement path in one lifecycle."""
        config = _fleet_config(seed=13)
        supervisor = ScaleoutSupervisor(config, n_nodes=8, mode="fork")
        host, port = supervisor.launch()
        files = [f"shard-{i}" for i in range(4)]
        driver = ShardedLoadDriver(
            host, port, files, shards=2, rps=60, duration=0.8, seed=13,
            inherited_sockets=[supervisor.listen_socket],
        )
        driver.launch()

        async def drive() -> tuple:
            await supervisor.start(boot_timeout=60.0)
            endpoint = await ScaleoutEndpoint.connect(host, port)
            client = await RuntimeClient(endpoint, min(endpoint.nodes)).connect()
            for name in files:
                await client.insert(name, payload=f"payload:{name}")
            await client.close()
            await endpoint.drain()
            driver.start()
            report = await driver.collect()
            report.served_by_node = await endpoint.served_counts()
            await endpoint.quiesce()
            snapshot, stats = await supervisor.bootstrap.collect_snapshot()
            await endpoint.close()
            await supervisor.shutdown()
            return report, snapshot, stats

        try:
            report, snapshot, stats = asyncio.run(drive())
        finally:
            driver.kill()
        assert report.conserved and report.completed > 0
        assert len(driver.shard_reports) == 2
        for field_name in LoadReport._COUNTERS:
            assert getattr(report, field_name) == sum(
                getattr(part, field_name) for part in driver.shard_reports
            )
        assert report.hist.total == sum(
            part.hist.total for part in driver.shard_reports
        )
        # Each shard generated real load through its own partition.
        assert all(part.completed > 0 for part in driver.shard_reports)
        # The fleet's serve totals account for every merged completion.
        assert sum(stats.served_by_node.values()) == report.completed
        conformance = verify_snapshot(snapshot)
        assert conformance.ok, conformance.mismatches
        assert sorted(supervisor.bootstrap.goodbyes) == list(range(8))
