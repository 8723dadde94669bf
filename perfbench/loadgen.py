"""The benchmark's open-loop load generator.

A run is a seeded *schedule* — one row per request: due time, op
(GET or UPDATE), file index and entry slot — fixed before the first
request leaves, so the sequence depends on the seed alone.  The
generator walks it on the event loop at the fixed rate, whatever the
system does:

* latency is timed from each request's **due** time to its reply, so a
  stall charges every request it delays, and the due -> send delay is
  recorded as the generator's own lateness;
* nothing per request outlives the request: the reply callback is a
  ``functools.partial`` owned by the program's future, latencies land
  in ``array('d')`` columns, and one counter tracks what is
  outstanding;
* the cyclic GC is left alone.

Entry slots are drawn uniformly over every identifier of the overlay
(the paper's uniform-demand model: every peer issues requests).  A slot
whose node is not serving maps to the next serving node in identifier
order, so a churned membership reshapes where requests enter without
changing the schedule.  A request that timed out or whose entry died
under it, whose shed reply names no live alternative, or that faulted
because its subtree lost the file's home, is re-sent through another
live entry (FINDLIVENODE at the client; a fault retries in another
subtree) and counted as a reroute; a shed reply with a live
alternative is re-sent there and counted as a redirect.  After
``RETRY_BUDGET`` re-sends the request ends in the bucket of its last
failure.

A schedule may alternate on and off phases (``period``, ``on_share``):
requests are due at the fixed rate during each on phase and none
during the off phase that follows.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

from repro.core.hashing import Psi
from repro.core.subtree import subtree_of_pid
from repro.core.tree import LookupTree
from repro.net.message import Message, MessageKind, fast_message
from repro.runtime import RuntimeClient
from repro.runtime.node import CLIENT

OP_GET = 0
OP_UPDATE = 1

#: Re-sends one request may take (redirects plus reroutes) before its
#: shed or loss becomes terminal.
RETRY_BUDGET = 8


@dataclass(frozen=True)
class Mix:
    """One traffic mix: fixed total rate, update share, file popularity."""

    rate: float
    update_share: float
    files: int
    zipf_s: float

    def scaled(self, factor: float) -> "Mix":
        return Mix(self.rate * factor, self.update_share, self.files, self.zipf_s)


class Schedule:
    """The seeded request sequence of one measured window."""

    __slots__ = ("due", "op", "file", "slot")

    def __init__(
        self, mix: Mix, duration: float, slots: int, seed: int,
        period: float = 0.0, on_share: float = 1.0,
    ) -> None:
        rng = random.Random(seed)
        # Zipf popularity by catalog index: file 0 is the hottest.  The
        # rank order is fixed so that every seed offers the same hot
        # set and seeds differ only in the draws.
        cum = list(accumulate(
            rank ** (-mix.zipf_s) for rank in range(1, mix.files + 1)
        ))
        total = cum[-1]
        interval = 1.0 / mix.rate
        if period > 0:
            per_on = max(1, int(mix.rate * period * on_share))
            count = per_on * max(1, math.ceil(duration / period - 1e-9))
            self.due = array("d", (
                (i // per_on) * period + (i % per_on) * interval
                for i in range(count)
            ))
        else:
            count = max(1, int(mix.rate * duration))
            self.due = array("d", (i * interval for i in range(count)))
        self.op = array("b")
        self.file = array("i")
        self.slot = array("i")
        rand = rng.random
        share = mix.update_share
        for _ in range(count):
            self.op.append(OP_UPDATE if rand() < share else OP_GET)
            self.file.append(min(bisect_right(cum, rand() * total), mix.files - 1))
            self.slot.append(int(rand() * slots))

    def __len__(self) -> int:
        return len(self.due)

    def rows(self) -> list[tuple[float, int, int, int]]:
        return list(zip(self.due, self.op, self.file, self.slot))


@dataclass
class Ledger:
    """Every request of one window, in exactly one terminal bucket."""

    attempted: int = 0
    completed: int = 0
    timeouts: int = 0
    faults: int = 0
    errors: int = 0
    shed: int = 0
    churn_lost: int = 0
    redirects: int = 0
    reroutes: int = 0
    wrong_payload: int = 0
    gets: int = 0
    updates: int = 0
    get_lat: array = field(default_factory=lambda: array("d"))
    update_lat: array = field(default_factory=lambda: array("d"))
    get_due: array = field(default_factory=lambda: array("d"))
    update_due: array = field(default_factory=lambda: array("d"))
    """Due times (loop clock) of the samples in ``get_lat`` / ``update_lat``."""
    lateness: array = field(default_factory=lambda: array("d"))

    @property
    def failed(self) -> int:
        return self.attempted - self.completed

    @property
    def balanced(self) -> bool:
        return self.attempted == (
            self.completed + self.timeouts + self.faults + self.errors
            + self.shed + self.churn_lost
        )

    def kinds(self) -> dict[str, int]:
        return {
            "timeouts": self.timeouts, "faults": self.faults,
            "errors": self.errors, "shed": self.shed,
            "churn_lost": self.churn_lost,
        }


def quantile(samples, q: float) -> float:
    """Linear-interpolated ``q``-quantile of ``samples`` (0.0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def host_sample() -> tuple[float, float]:
    """(CPU seconds, wait seconds) of the calling thread since it started.

    The wait is its run-queue wait plus the host's steal time per CPU.
    Neither is time the program chose to spend: the run-queue wait is
    other tasks of the machine holding the CPU the thread was ready to
    run on, and steal is the hypervisor running another guest on this
    one's CPUs.  The wait reads 0.0 where the kernel does not report it.
    """
    cpu, wait = time.thread_time(), 0.0
    try:
        with open("/proc/thread-self/schedstat") as f:
            fields = f.read().split()
        cpu, wait = int(fields[0]) * 1e-9, int(fields[1]) * 1e-9
        with open("/proc/stat") as f:
            fields = f.readline().split()
        wait += int(fields[8]) / os.sysconf("SC_CLK_TCK") / (os.cpu_count() or 1)
    except (OSError, IndexError, ValueError):
        pass
    return cpu, wait


class HostMeter:
    """Samples :func:`host_sample` on the loop every ``interval`` seconds,
    so the CPU and the wait that fell into any span of loop time can be
    read back."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.times = array("d")
        self.cpus = array("d")
        self.waits = array("d")
        self._timer: asyncio.TimerHandle | None = None

    def _sample(self) -> float:
        now = asyncio.get_running_loop().time()
        cpu, wait = host_sample()
        self.times.append(now)
        self.cpus.append(cpu)
        self.waits.append(wait)
        return now

    def _tick(self) -> None:
        now = self._sample()
        self._timer = asyncio.get_running_loop().call_at(
            now + self.interval, self._tick
        )

    def start(self) -> None:
        self._tick()

    def stop(self) -> None:
        """Cancel the timer and take a last sample."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._sample()

    def _at(self, column: array, t: float) -> float:
        times = self.times
        k = bisect_right(times, t)
        if k == 0:
            return column[0]
        if k == len(times):
            return column[-1]
        t0, t1 = times[k - 1], times[k]
        if t1 <= t0:
            return column[k]
        return column[k - 1] + (column[k] - column[k - 1]) * (t - t0) / (t1 - t0)

    def _between(self, column: array, start: float, end: float) -> float:
        if not self.times or end <= start:
            return 0.0
        return self._at(column, end) - self._at(column, start)

    def share(self, start: float, end: float) -> float:
        """Share of ``[start, end)`` spent waiting, interpolated linearly
        between samples."""
        if end <= start:
            return 0.0
        return self._between(self.waits, start, end) / (end - start)

    def cpu(self, start: float, end: float) -> float:
        """CPU seconds the thread spent in ``[start, end)``."""
        return self._between(self.cpus, start, end)


def quiet_slices(
    dues, meter: HostMeter, width: float, limit: float,
) -> tuple[float, list[float], list[bool]]:
    """Cut the due-time span of ``dues`` into slices of ``width`` seconds
    and mark which to keep: every slice whose host-wait share is at most
    ``limit``, and of the others the least contended, so that at least
    half the slices are kept.  Returns (first due, per-slice shares,
    per-slice keep flags)."""
    if not dues:
        return 0.0, [], [True]
    lo, hi = min(dues), max(dues)
    count = max(1, math.ceil((hi - lo) / width - 1e-9))
    shares = [meter.share(lo + k * width, lo + (k + 1) * width)
              for k in range(count)]
    keep = [True] * count
    over = sorted((k for k in range(count) if shares[k] > limit),
                  key=lambda k: -shares[k])
    for k in over[: count // 2]:
        keep[k] = False
    return lo, shares, keep


def kept_samples(samples, dues, lo: float, width: float, keep: list[bool]):
    """The samples whose due time falls in a kept slice."""
    last = len(keep) - 1
    return array("d", (
        value for value, due in zip(samples, dues)
        if keep[min(last, int((due - lo) / width))]
    ))


def payload_for(name: str, variant: int, size: int) -> str:
    """A file body that names its file, padded to ``size`` characters."""
    head = f"{name}#{variant}:"
    return head + "x" * max(0, size - len(head))


class OpenLoop:
    """Drives one cluster (in-process or fleet endpoint) from schedules."""

    def __init__(
        self,
        cluster,
        names: list[str],
        payload_size: int,
        timeout: float,
    ) -> None:
        self.cluster = cluster
        self.names = names
        self.payload_size = payload_size
        self.timeout = timeout
        self.slots = 1 << cluster.config.m
        self.clients: dict[int, RuntimeClient] = {}
        self.outstanding = 0
        self._ready: list[int] = []
        self._epoch = -1
        self._reconnect: asyncio.Task | None = None
        self._idle: asyncio.Future | None = None
        self._updates = 0
        self._prefixes = [f"{name}#" for name in names]
        self._psi = Psi(cluster.config.m)
        self._b = cluster.config.b

    # -- connections -----------------------------------------------------

    async def connect(self) -> None:
        """One client connection per serving node."""
        await self._sync_clients()

    async def _sync_clients(self) -> None:
        while True:
            epoch = self.cluster.word.epoch
            for pid in sorted(self.cluster.nodes):
                client = self.clients.get(pid)
                if client is None or client.connection_lost:
                    if client is not None:
                        await client.close()
                    try:
                        self.clients[pid] = await RuntimeClient(
                            self.cluster, pid
                        ).connect()
                    except (ConnectionError, OSError, LookupError):
                        self.clients.pop(pid, None)
            self._epoch = epoch
            self._refresh_ready()
            if self.cluster.word.epoch == epoch:
                return

    def _refresh_ready(self) -> None:
        live = self.cluster.nodes
        self._ready = sorted(
            pid for pid, client in self.clients.items()
            if pid in live and not client.connection_lost
        )

    def _check_membership(self) -> None:
        if self.cluster.word.epoch != self._epoch:
            self._refresh_ready()
            if self._reconnect is None or self._reconnect.done():
                self._reconnect = asyncio.get_running_loop().create_task(
                    self._sync_clients()
                )

    def _other_subtree_entry(self, fidx: int, slot: int, pid: int) -> int:
        """A ready entry outside ``pid``'s subtree of the file's tree."""
        if self._b == 0:
            return -1
        tree = LookupTree(self._psi(self.names[fidx]), self._psi.m)
        own = subtree_of_pid(tree, pid, self._b)
        ready = self._ready
        start = bisect_left(ready, slot)
        for k in range(len(ready)):
            cand = ready[(start + k) % len(ready)]
            if subtree_of_pid(tree, cand, self._b) != own:
                return cand
        return -1

    def _entry(self, slot: int, avoid: int = -1) -> int:
        ready = self._ready
        if not ready:
            return -1
        idx = bisect_left(ready, slot) % len(ready)
        if ready[idx] == avoid and len(ready) > 1:
            idx = (idx + 1) % len(ready)
        return ready[idx]

    async def close(self) -> None:
        if self._reconnect is not None:
            await self._reconnect
        for client in self.clients.values():
            await client.close()
        self.clients.clear()

    # -- the open loop ---------------------------------------------------

    async def run(self, sched: Schedule, ledger: Ledger) -> float:
        """Send every request of ``sched`` on time; wait for the last
        reply.  Returns the window's wall span (first due -> last reply)."""
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        due_col, op_col, file_col, slot_col = sched.due, sched.op, sched.file, sched.slot
        lateness = ledger.lateness.append
        fire = self._fire
        n = len(sched)
        i = 0
        while i < n:
            now = loop.time()
            due = t0 + due_col[i]
            if due > now:
                await asyncio.sleep(due - now)
                now = loop.time()
            self._check_membership()
            while i < n:
                due = t0 + due_col[i]
                if due > now:
                    break
                lateness(now - due)
                fire(ledger, op_col[i], file_col[i], slot_col[i], due, 0, -1)
                i += 1
        if self.outstanding:
            self._idle = loop.create_future()
            await self._idle
            self._idle = None
        return loop.time() - t0

    def _fire(
        self, ledger: Ledger, op: int, fidx: int, slot: int, due: float,
        tries: int, target: int,
    ) -> None:
        """Send one request (first attempt when ``tries == 0``)."""
        if tries == 0:
            ledger.attempted += 1
            self.outstanding += 1
            if op == OP_GET:
                ledger.gets += 1
            else:
                ledger.updates += 1
        pid = target if target >= 0 else self._entry(slot)
        while True:
            client = self.clients.get(pid)
            if client is None:
                self._terminal(ledger, "churn_lost")
                return
            name = self.names[fidx]
            if op == OP_GET:
                msg = fast_message(MessageKind.GET, CLIENT, pid, name)
            else:
                self._updates += 1
                msg = Message(
                    kind=MessageKind.UPDATE, src=CLIENT, dst=pid, file=name,
                    payload=payload_for(name, self._updates, self.payload_size),
                )
            try:
                future = client.request_future(msg, self.timeout)
            except (ConnectionError, OSError):
                # The entry's connection is gone: it left the ready set.
                self._refresh_ready()
                pid = self._entry(slot, avoid=pid)
                continue
            future.add_done_callback(
                partial(self._on_reply, ledger, op, fidx, slot, due, tries, pid)
            )
            return

    def _terminal(self, ledger: Ledger, bucket: str | None = None) -> None:
        if bucket is not None:
            setattr(ledger, bucket, getattr(ledger, bucket) + 1)
        self.outstanding -= 1
        if self.outstanding == 0 and self._idle is not None and not self._idle.done():
            self._idle.set_result(None)

    def _retry(
        self, ledger: Ledger, op: int, fidx: int, slot: int, due: float,
        tries: int, target: int, bucket: str, counter: str = "reroutes",
    ) -> None:
        """Re-send through ``target``, counted in ``counter``; past the
        budget, or with no target, end in ``bucket`` instead."""
        if tries >= RETRY_BUDGET or target < 0:
            self._terminal(ledger, bucket)
            return
        setattr(ledger, counter, getattr(ledger, counter) + 1)
        self._fire(ledger, op, fidx, slot, due, tries + 1, target)

    def _on_reply(
        self, ledger: Ledger, op: int, fidx: int, slot: int, due: float,
        tries: int, pid: int, future: asyncio.Future,
    ) -> None:
        if future.cancelled():
            self._terminal(ledger, "errors")
            return
        reply = future.result()
        if reply is None:
            # A timeout, or the entry died holding the request: either
            # way the request is lost; resend it through another entry.
            self._refresh_ready()
            bucket = "timeouts" if pid in self.cluster.nodes else "churn_lost"
            self._retry(ledger, op, fidx, slot, due, tries,
                        self._entry(slot, avoid=pid), bucket)
            return
        kind = reply.kind
        if kind is MessageKind.GET_REPLY:
            body = reply.payload
            if isinstance(body, dict):
                body = body.get("payload")
            if not (isinstance(body, str) and body.startswith(self._prefixes[fidx])):
                ledger.wrong_payload += 1
            ledger.get_lat.append(asyncio.get_running_loop().time() - due)
            ledger.get_due.append(due)
            ledger.completed += 1
            self._terminal(ledger)
        elif kind is MessageKind.ACK:
            ledger.update_lat.append(asyncio.get_running_loop().time() - due)
            ledger.update_due.append(due)
            ledger.completed += 1
            self._terminal(ledger)
        elif kind is MessageKind.OVERLOAD:
            body = reply.payload if isinstance(reply.payload, dict) else {}
            hint = body.get("redirect", -1)
            if isinstance(hint, int) and hint in self.cluster.nodes and hint in self.clients:
                self._retry(ledger, op, fidx, slot, due, tries, hint, "shed",
                            "redirects")
            else:
                # The hint is dead, or the shedder knew no other holder:
                # resend through another entry.
                avoid = hint if isinstance(hint, int) and hint >= 0 else pid
                self._retry(ledger, op, fidx, slot, due, tries,
                            self._entry(slot, avoid=avoid), "shed")
        elif kind is MessageKind.GET_FAULT:
            self._retry(ledger, op, fidx, slot, due, tries,
                        self._other_subtree_entry(fidx, slot, pid), "faults")
        else:
            self._terminal(ledger, "errors")
