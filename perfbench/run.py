#!/usr/bin/env python3
"""The repository benchmark: seeded open-loop workloads over the live overlay.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run boots the system, drives one workload from the benchmark's own
open-loop generator (:mod:`loadgen`) on the benchmark's asyncio loop,
checks the run, and prints each metric as ``metric <name> <value>
<unit> n=<samples>``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics: set-up is repeated
(see ``SETUP_MIN_REPS``) and its median reported, then a warm-up and the
measured window of ``--seconds``.  ``--trace 1`` measures the per-layer
metrics instead: an untraced reference window of ``--seconds / 2``, a
traced window of ``--seconds / 2`` with the wrappers of :mod:`tracing`
installed around it alone, and then the knee ladder.  Spans are written to
``.perfbench_out/`` in the checkout.

The knee (``knee_rps``) is searched in the traced run, after the
wrappers come off, and reported with the per-layer metrics: the search
costs as much as the measured window, and on a shared two-CPU host its
run-to-run spread is wider than the largest bound an end-to-end metric
may carry.

Latency percentiles and CPU per operation are taken over the slices of
the window in which the host let the benchmark run (see ``WAIT_LIMIT``);
the whole-window value is printed beside each.

Every run is checked before anything is printed: the request ledger
must balance, every GET reply must carry its own file's body, and the
final state must match the synchronous oracle's replay of the
operation log (``replay_oplog`` + ``diff_states`` in-process,
``collect_snapshot`` + ``verify_snapshot`` for the fleet).  A failed
check exits with status 3 and prints no result.

Workloads, their reasons, and which end-to-end metric each per-layer
metric should move are declared in ``perfbench/metrics.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 25
SETUP_BUDGET_S = 1.0
"""An untraced run sets up at least ``SETUP_MIN_REPS`` times, and more
(up to ``SETUP_MAX_REPS``) while the set-ups so far took less than
this; ``setup_s`` is their median."""

GET_P99_LIMIT_MS = 50.0
FAILED_SHARE_LIMIT = 0.01
LATENESS_LIMIT_MS = 10.0
"""Generator lateness p99 above this means the loop cannot keep the
schedule: a growing backlog, so the rung is past the knee."""

KNEE_STEP = 1.05
"""Ratio between neighbouring rungs of the knee ladder."""
KNEE_TOP = 48
"""Rungs searched above the base rate (1.05**48 is about 10x)."""

REQUEST_TIMEOUT_S = 2.0
SHUTDOWN_GRACE_S = 15.0
"""Seconds a fleet gets to shut down before its workers are killed."""
MIN_TAIL_SAMPLES = 10
"""Samples that must lie beyond a reported percentile."""
SLICE_S = 1.0
"""Width of the slices of due time a window is screened in (an on/off
workload's slice is its period, so every slice holds a whole period)."""
WAIT_LIMIT = 0.01
"""Share of a slice the loop's thread may spend waiting for a CPU (run
queue plus host steal) before the slice counts as contended.  Latency
percentiles and CPU per operation leave out the contended slices, the
worst first, but never more than half of them: a shared host that
preempts the benchmark adds its own time slices to the tail (and, by
batching the loop's work, changes its CPU per operation), which is not
the program's doing."""
METER_INTERVAL = 0.25
"""Seconds between samples of the host wait."""


def _die(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


if not (SRC / "repro" / "__init__.py").is_file():
    _die(f"program sources not found under {SRC.name}/ in {ROOT}", 2)
sys.path.insert(0, str(SRC))

from repro.runtime import (  # noqa: E402
    LiveCluster,
    RuntimeClient,
    RuntimeConfig,
    diff_states,
    replay_oplog,
    verify_snapshot,
)
from repro.runtime import ChurnEvent, ChurnInjector  # noqa: E402

import tracing  # noqa: E402
from loadgen import (  # noqa: E402
    HostMeter,
    Ledger,
    Mix,
    OpenLoop,
    Schedule,
    kept_samples,
    payload_for,
    quantile,
    quiet_slices,
)


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    mix: Mix
    payload: int
    config: dict
    fleet_nodes: int = 0
    churn: bool = False
    period: float = 0.0
    """On/off period of the schedule (0: always on)."""
    on_share: float = 1.0
    warmup: float = 5.0


# Rates keep every workload near a quarter of one CPU on a 2-CPU host,
# far under the knee, so tail latency measures the system and not how
# close to saturation a shared, noisy host happens to be that minute.
# Half the window (see WAIT_LIMIT) holds enough GETs for ten samples
# beyond their p99 and enough UPDATEs for ten beyond their p95.
# capacity is the per-node GET rate above which a node
# replicates: each workload's mean per-node load sits below it and its
# hottest files above it, so replication fires during warm-up and then
# settles.
_BASE = dict(m=4, b=1, seed=0, capacity=30.0, service_time=0.004,
             inflight_limit=32)

WORKLOADS = {
    w.name: w for w in (
        Workload("hot-read", Mix(400.0, 0.15, 24, 1.2), 25, _BASE),
        Workload("read-write", Mix(300.0, 0.20, 2000, 0.8), 2048,
                 {**_BASE, "capacity": 24.0}),
        Workload(
            "churn-read", Mix(400.0, 0.20, 24, 1.2), 25,
            {**_BASE, "inbox_limit": 2},
            churn=True, period=2.0, on_share=0.8,
        ),
        # Not among BENCHMARK.json's workloads: on 2 shared CPUs its tail
        # latency spreads wider between runs than any bound allows (see
        # perfbench/metrics.json), so it is run by hand.
        Workload(
            "fleet-read", Mix(300.0, 0.25, 24, 1.2), 25,
            {**_BASE, "m": 3, "tcp": True, "capacity": 40.0}, fleet_nodes=8,
        ),
    )
}


def churn_events(wl: Workload, duration: float, salt: int) -> list[ChurnEvent]:
    """The churn of one window of ``churn-read``.

    Every on phase gets a silent kill half-way through it, so requests
    die with their entry; the off phase that follows rejoins the victim
    (its autopsy runs first), and every second off phase then also
    crashes (announced) or removes (leave) another node for good, until
    half the overlay is gone.  Announced operations wait for the
    overlay to drain, which only the off phases allow.  Killed nodes
    and removed nodes come from disjoint halves of the overlay, so no
    queued operation can name a node another event already took down.

    The schedule does not depend on ``--seed``: which node dies decides
    most of what churn costs (the home of the hottest file, or a node
    that holds nothing hot), so the victims are a fixed draw and seeds
    vary only the requests.  ``salt`` gives each window of a run its
    own victims.
    """
    total = 1 << wl.config["m"]
    order = random.Random(0xC4A5 + salt).sample(range(total), total)
    killable, removable = order[: total // 2], order[total // 2:]
    periods = max(1, math.ceil(duration / wl.period - 1e-9))
    on = wl.period * wl.on_share
    events: list[ChurnEvent] = []
    for k in range(periods):
        start = k * wl.period
        killed = killable[k % len(killable)]
        events.append(ChurnEvent(start + on / 2, "kill", killed))
        events.append(ChurnEvent(start + on + 0.01, "join", killed))
        if k % 2 and removable:
            action = ("crash", "leave")[(k // 2) % 2]
            events.append(ChurnEvent(start + on + 0.02, action, removable.pop()))
    return events


# -- environments -------------------------------------------------------------

class InProc:
    """An in-process `LiveCluster` on the benchmark's own loop."""

    fleet = False
    launch_s = 0.0

    def __init__(self, wl: Workload) -> None:
        self.config = RuntimeConfig(**wl.config)
        self.cluster: LiveCluster | None = None
        self.boot_s = 0.0

    async def boot(self) -> LiveCluster:
        t0 = perf_counter()
        self.cluster = await LiveCluster.start(self.config)
        self.boot_s = perf_counter() - t0
        return self.cluster

    @property
    def nodes(self):
        return self.cluster.nodes

    def cpu(self) -> tuple[float, float]:
        """(this process, workers) CPU seconds."""
        return tracing.cpu_seconds(), 0.0

    async def served(self) -> dict[int, int]:
        return self.cluster.served_counts()

    async def stages(self) -> dict[str, float]:
        return dict(self.cluster.stage_seconds)

    def replicas(self) -> int:
        return self.cluster.replicas_created()

    def rss_mib(self) -> tuple[float, float]:
        return tracing.peak_rss_mib(), 0.0

    async def check(self) -> tuple[list[str], float]:
        """Quiesce, then diff against the oracle; (mismatches, seconds
        spent in the diff)."""
        await self.cluster.quiesce()
        t0 = perf_counter()
        system = replay_oplog(self.cluster.oplog, self.config,
                              self.cluster.initial_live)
        system.check_invariants()
        mismatches = diff_states(self.cluster, system).mismatches
        return mismatches, perf_counter() - t0

    async def close(self) -> None:
        if self.cluster is not None:
            await self.cluster.shutdown()
            self.cluster = None


class Fleet:
    """The bootstrap in this process plus forked worker processes."""

    fleet = True

    def __init__(self, wl: Workload) -> None:
        from repro.runtime.scaleout import ScaleoutSupervisor

        self.config = RuntimeConfig(**wl.config)
        self.n_nodes = wl.fleet_nodes
        t0 = perf_counter()
        self.supervisor = ScaleoutSupervisor(self.config, n_nodes=self.n_nodes,
                                             mode="fork")
        self.address = self.supervisor.launch()
        self.launch_s = perf_counter() - t0
        self.endpoint = None
        self.boot_s = 0.0

    async def boot(self):
        from repro.runtime.scaleout import ScaleoutEndpoint

        t0 = perf_counter()
        await self.supervisor.start(boot_timeout=60.0)
        self.endpoint = await ScaleoutEndpoint.connect(*self.address)
        self.boot_s = self.launch_s + perf_counter() - t0
        return self.endpoint

    @property
    def nodes(self):
        return None

    def _ospids(self) -> list[int]:
        boot = self.supervisor.bootstrap
        return [boot.ospid_of(pid) for pid in boot.worker_pids()]

    def cpu(self) -> tuple[float, float]:
        return (
            tracing.cpu_seconds(),
            sum(tracing.proc_cpu_seconds(p) for p in self._ospids()),
        )

    async def served(self) -> dict[int, int]:
        stats = await self.supervisor.bootstrap.collect_stats()
        return dict(stats.served_by_node)

    async def stages(self) -> dict[str, float]:
        stats = await self.supervisor.bootstrap.collect_stats()
        return dict(stats.stage_seconds)

    def replicas(self) -> int:
        return sum(
            1 for rec in self.supervisor.bootstrap.oplog
            if rec.kind == "replicate" and rec.target is not None
        )

    def rss_mib(self) -> tuple[float, float]:
        return (
            tracing.peak_rss_mib(),
            sum(tracing.proc_peak_rss_mib(p) for p in self._ospids()),
        )

    async def check(self) -> tuple[list[str], float]:
        await self.endpoint.quiesce()
        t0 = perf_counter()
        snapshot, _stats = await self.supervisor.bootstrap.collect_snapshot()
        mismatches = verify_snapshot(snapshot).mismatches
        return mismatches, perf_counter() - t0

    async def close(self) -> None:
        # The supervisor reaps its children with a blocking wait; a worker
        # that ignores SIGTERM would hold the run forever, so a watchdog
        # kills whatever the shutdown has not ended within the grace.
        ospids = list(self.supervisor.alive())
        fired = threading.Event()

        def kill_all() -> None:
            fired.set()
            for ospid in ospids:
                try:
                    os.kill(ospid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        watchdog = threading.Timer(SHUTDOWN_GRACE_S, kill_all)
        watchdog.start()
        try:
            if self.endpoint is not None:
                await self.endpoint.close()
                self.endpoint = None
            await self.supervisor.shutdown(term_timeout=SHUTDOWN_GRACE_S / 2)
        finally:
            watchdog.cancel()
        if fired.is_set():
            print(f"info fleet shutdown overran {SHUTDOWN_GRACE_S:g} s; "
                  f"remaining workers were killed")


async def setup(env, wl: Workload) -> tuple[OpenLoop, float, float]:
    """Boot, insert the catalog, connect one client per node.

    Returns (generator, set-up seconds, catalog insert seconds).  A
    fleet's set-up also counts its launch, which forks before any loop.
    The garbage of earlier set-ups is collected before the clock starts.
    """
    gc.collect()
    t0 = perf_counter() - env.launch_s
    cluster = await env.boot()
    names = [f"f{i:05d}" for i in range(wl.mix.files)]
    t1 = perf_counter()
    boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
    try:
        for name in names:
            await boot.insert(name, payload_for(name, 0, wl.payload))
    finally:
        await boot.close()
    await cluster.drain()
    insert_s = perf_counter() - t1
    gen = OpenLoop(cluster, names, wl.payload, REQUEST_TIMEOUT_S)
    await gen.connect()
    return gen, perf_counter() - t0, insert_s


# -- measured windows -----------------------------------------------------------

@dataclass
class Window:
    ledger: Ledger
    wall: float
    cpu_self: float
    cpu_workers: float
    served: dict[int, int]
    stages: dict[str, float]
    meter: HostMeter
    churn: list = field(default_factory=list)

    @property
    def cpu(self) -> float:
        return self.cpu_self + self.cpu_workers

    def per_op_us(self, seconds: float) -> float:
        return seconds / max(1, self.ledger.completed) * 1e6


async def window(env, gen: OpenLoop, wl: Workload, mix: Mix, seconds: float,
                 seed: int, churn: int | None = None) -> Window:
    """One measured window; the ledger covers exactly its requests.

    ``churn`` is the salt of the window's churn schedule, or ``None``
    for a window without churn and with the schedule always on.
    """
    period = wl.period if churn is not None else 0.0
    sched = Schedule(mix, seconds, gen.slots, seed, period, wl.on_share)
    ledger = Ledger()
    served0 = await env.served()
    stages0 = await env.stages()
    injector = None
    if churn is not None:
        injector = ChurnInjector(env.cluster, churn_events(wl, seconds, churn),
                                 seed=seed, min_live=4)
    meter = HostMeter(METER_INTERVAL)
    self0, workers0 = env.cpu()
    meter.start()
    if injector is not None:
        injector.start()
    wall = await gen.run(sched, ledger)
    meter.stop()
    self1, workers1 = env.cpu()
    applied = await injector.finalize() if injector is not None else []
    served1 = await env.served()
    stages1 = await env.stages()
    served = {
        pid: served1[pid] - served0.get(pid, 0) for pid in served1
    }
    stages = {k: v - stages0.get(k, 0.0) for k, v in stages1.items()}
    return Window(ledger, wall, self1 - self0, workers1 - workers0, served,
                  stages, meter, applied)


def rung_ok(w: Window) -> bool:
    led = w.ledger
    return (
        len(led.get_lat) > 0
        and quantile(led.get_lat, 0.99) * 1e3 <= GET_P99_LIMIT_MS
        and led.failed / max(1, led.attempted) <= FAILED_SHARE_LIMIT
        and quantile(led.lateness, 0.99) * 1e3 <= LATENESS_LIMIT_MS
    )


async def find_knee(env, gen: OpenLoop, wl: Workload, base: Window,
                    seed: int, probe_s: float, ledgers: list[Ledger]) -> float:
    """Highest rung of the ladder ``rate * KNEE_STEP**k`` that holds.

    Bisects ``k`` between the base rung (the measured window itself) and
    ``KNEE_TOP``, which is taken to fail; the ladder is assumed to
    hold up to the knee and fail above it.  A rung fails only when a
    second trial fails too, so one stall does not end the search.
    Rungs are probed on the warm cluster without churn and with the
    schedule always on.
    """
    async def trial(rung: int, attempt: int) -> bool:
        mix = wl.mix.scaled(KNEE_STEP ** rung)
        w = await window(env, gen, wl, mix, probe_s,
                         seed * 1009 + 100 + 2 * rung + attempt)
        ledgers.append(w.ledger)
        await asyncio.sleep(0.2)
        led = w.ledger
        ok = rung_ok(w)
        print(f"info knee rung {rung} rate {mix.rate:.0f}/s: get p99 "
              f"{quantile(led.get_lat, 0.99) * 1e3:.1f} ms, failed "
              f"{led.failed}/{led.attempted}, lateness p99 "
              f"{quantile(led.lateness, 0.99) * 1e3:.1f} ms -> "
              f"{'holds' if ok else 'fails'}")
        return ok

    lo, hi = (0, KNEE_TOP) if rung_ok(base) else (-KNEE_TOP, 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if await trial(mid, 0) or await trial(mid, 1):
            lo = mid
        else:
            hi = mid
    return wl.mix.rate * KNEE_STEP ** lo


# -- metrics ------------------------------------------------------------------

class Report:
    """Collects metrics; prints each as a line and keeps them for JSON."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, samples: int | None = None,
            note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        count = "" if samples is None else f" n={samples}"
        extra = f" ({note})" if note else ""
        print(f"metric {name} {value:.6g} {unit}{count}{extra}")


def tail(samples, q: float) -> tuple[float, int, str]:
    """Percentile in ms, the sample count, and a note if the tail is thin."""
    beyond = int(len(samples) * (1.0 - q))
    note = "" if beyond >= MIN_TAIL_SAMPLES else f"only {beyond} samples beyond"
    return quantile(samples, q) * 1e3, len(samples), note


def imbalance(served: dict[int, int], live) -> float:
    counts = [served.get(pid, 0) for pid in live if pid in served]
    mean = sum(counts) / len(counts) if counts else 0.0
    return max(counts) / mean if mean > 0 else 0.0


def commit_id() -> str:
    """The checkout's commit, or a digest of the program sources."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
        else:
            return ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def meta(wl: Workload, args) -> dict:
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit_id(),
        "mix": {"rate": wl.mix.rate, "update_share": wl.mix.update_share,
                "files": wl.mix.files, "zipf_s": wl.mix.zipf_s,
                "payload_bytes": wl.payload,
                "period_s": wl.period, "on_share": wl.on_share},
        "config": wl.config,
        "fleet_workers": wl.fleet_nodes,
        "warmup_s": wl.warmup,
    }


def ledger_problems(ledgers: list[Ledger]) -> list[str]:
    problems = []
    for i, led in enumerate(ledgers):
        if not led.balanced:
            problems.append(f"window {i}: unbalanced ledger {led.attempted} "
                            f"attempted vs {led.completed} completed + {led.kinds()}")
        if led.wrong_payload:
            problems.append(f"window {i}: {led.wrong_payload} GET replies "
                            f"carried another file's body")
    return problems


# -- the two kinds of run -------------------------------------------------------

async def untraced(env, wl: Workload, args, setups: list[float],
                   ledgers: list[Ledger]) -> tuple[Report, Ledger, list[str]]:
    gen, setup_s, _insert = await setup(env, wl)
    setups.append(setup_s)
    gc.collect()
    warm = await window(env, gen, wl, wl.mix, wl.warmup, args.seed * 31 + 7)
    ledgers.append(warm.ledger)
    main = await window(env, gen, wl, wl.mix, args.seconds, args.seed,
                        churn=0 if wl.churn else None)
    ledgers.append(main.ledger)
    replicas = env.replicas()
    live = sorted(env.nodes) if env.nodes is not None else sorted(main.served)
    self_rss, worker_rss = env.rss_mib()
    await gen.close()
    mismatches, _check_s = await env.check()

    led = main.ledger
    rep = Report()
    rep.add("setup_s", statistics.median(setups), "s", len(setups))
    width = wl.period or SLICE_S
    lo, shares, keep = quiet_slices(
        list(led.get_due) + list(led.update_due), main.meter, width, WAIT_LIMIT)
    kept_ops = 0
    for name, samples, dues, q in (
        ("get", led.get_lat, led.get_due, 0.99),
        ("update", led.update_lat, led.update_due, 0.95),
    ):
        kept = kept_samples(samples, dues, lo, width, keep)
        kept_ops += len(kept)
        for quant, label in ((0.5, "p50"), (q, f"p{q * 100:.0f}")):
            value, count, note = tail(kept, quant)
            note = "; ".join(filter(None, (
                f"whole window {quantile(samples, quant) * 1e3:.4g} ms", note)))
            rep.add(f"{name}_{label}_ms", value, "ms", count, note)
    if env.fleet:
        # The workers' CPU is read at the window's edges only.
        rep.add("cpu_us_per_op", main.per_op_us(main.cpu), "us", led.completed)
    else:
        # Everything runs on the loop's thread: its CPU in the kept
        # slices over the operations due in them.
        cpu = sum(main.meter.cpu(lo + k * width, lo + (k + 1) * width)
                  for k in range(len(keep)) if keep[k])
        rep.add("cpu_us_per_op", cpu / max(1, kept_ops) * 1e6, "us", kept_ops,
                f"whole window {main.per_op_us(main.cpu):.4g} us")
    rep.add("replicas_created", float(replicas), "count")
    rep.add("load_imbalance", imbalance(main.served, live), "ratio", len(live))
    rep.add("peak_rss_mb", self_rss + worker_rss, "MiB")
    kinds = " ".join(f"{k}={v}" for k, v in led.kinds().items())
    print(f"info failed_share {led.failed / max(1, led.attempted):.6g} ratio "
          f"n={led.attempted} ({kinds}; redirects={led.redirects} "
          f"reroutes={led.reroutes})")
    print(f"info host_wait slices kept {sum(keep)}/{len(keep)} of {width:g} s "
          f"(limit {WAIT_LIMIT:g}); shares " + " ".join(
              f"{share:.3f}{'' if ok else '*'}"
              for share, ok in zip(shares, keep)))
    if main.churn:
        print("info churn " + " ".join(
            f"{e['action']}@P({e['pid']})" for e in main.churn))
    return rep, led, mismatches


async def traced(env, wl: Workload, args,
                 ledgers: list[Ledger]) -> tuple[Report, Ledger, list[str]]:
    gen, _setup_s, insert_s = await setup(env, wl)
    gc.collect()
    warm = await window(env, gen, wl, wl.mix, wl.warmup, args.seed * 31 + 7)
    ledgers.append(warm.ledger)
    half = args.seconds / 2
    ref = await window(env, gen, wl, wl.mix, half, args.seed * 17 + 3,
                       churn=1 if wl.churn else None)
    ledgers.append(ref.ledger)

    tracer = tracing.Tracer()
    probes = tracing.Probes(env.nodes)
    t0 = perf_counter()
    tracing.cpu_seconds()
    rusage_cost = perf_counter() - t0
    tracer.install(env.nodes)
    probes.start()
    try:
        main = await window(env, gen, wl, wl.mix, half, args.seed,
                            churn=2 if wl.churn else None)
    finally:
        probes.stop()
        tracer.uninstall()
    ledgers.append(main.ledger)
    # The knee comes last: its overload probes change placement, and the
    # two windows compared for the tracing overhead must see the same.
    probe_s = min(1.5, max(0.5, args.seconds / 12))
    knee = await find_knee(env, gen, wl, ref, args.seed, probe_s, ledgers)
    self_rss, worker_rss = env.rss_mib()
    await gen.close()
    mismatches, check_s = await env.check()

    led = main.ledger
    ops = max(1, led.completed)
    gets = max(1, led.gets)
    per_op = main.per_op_us
    times = tracer.layer_times()

    def total(name: str) -> tuple[int, float, float]:
        return times.get(name, (0, 0.0, 0.0))

    rep = Report()
    rep.add("knee_rps", knee, "1/s", None,
            f"p99 <= {GET_P99_LIMIT_MS:g} ms, failed <= {FAILED_SHARE_LIMIT:g}, "
            f"lateness p99 <= {LATENESS_LIMIT_MS:g} ms")
    rows: dict[str, float] = {}
    late_p99, n_late, _ = tail(led.lateness, 0.99)
    rep.add("loadgen.lateness_p99_ms", late_p99, "ms", n_late)
    fire, reply = total("loadgen.fire"), total("loadgen.reply")
    rows["loadgen.self_us_per_op"] = per_op(fire[2] + reply[2])
    send = total("client.request_future")
    rows["client.send_us_per_op"] = per_op(send[1])
    rows["wire.encode_us_per_op"] = per_op(main.stages.get("encode", 0.0))
    rows["wire.decode_us_per_op"] = per_op(main.stages.get("decode", 0.0))
    rows["node.route_us_per_op"] = per_op(main.stages.get("route", 0.0))
    rows["node.serve_us_per_op"] = per_op(main.stages.get("serve", 0.0))
    decide, advance = total("coord.decide"), total("coord.advance")
    rows["coord.decide_us_per_op"] = per_op(decide[1])
    rows["coord.advance_us_per_op"] = per_op(advance[1])
    rpc = total("bootstrap.rpc")
    rows["bootstrap.rpc_us_per_op"] = per_op(rpc[1])
    rows["gc.pause_us_per_op"] = per_op(probes.gc_pause)
    probe_cost = probes.gc_cost + probes.lag_cost + probes.inbox_cost + 2 * rusage_cost
    rows["probe.cost_us_per_op"] = per_op(probe_cost)
    for name, value in rows.items():
        rep.add(name, value, "us", ops)

    rep.add("client.reroutes_per_get", led.reroutes / gets, "ratio", led.gets)
    rep.add("client.redirects_per_get", led.redirects / gets, "ratio", led.gets)
    frames = sum(tracer.frames_by_kind.values())
    rep.add("wire.frames_per_op", frames / ops, "count", ops)
    rep.add("wire.bytes_per_op", tracer.frame_bytes / ops, "B", ops)
    rep.add("wire.frames_per_flush", frames / max(1, tracer.flushes), "count",
            tracer.flushes)
    rep.add("node.hops_per_get", tracer.get_frames / gets, "count", led.gets)
    depth = probes.depth
    rep.add("node.inbox_depth_p99", quantile(depth, 0.99), "count", len(depth))
    mean_depth = probes.depth_sum / max(1, probes.depth_samples)
    dequeues = tracer.dequeued / main.wall if main.wall > 0 else 0.0
    rep.add("node.inbox_wait_ms", mean_depth / dequeues * 1e3 if dequeues else 0.0,
            "ms", tracer.dequeued)
    table = total("routing.table")
    rep.add("routing.table_calls_per_op", table[0] / ops, "count", table[0])
    rep.add("routing.table_us_per_op", per_op(table[1]), "us", table[0])
    lookups = tracer.cache_hits + tracer.cache_misses
    rep.add("routing.table_hit_share", tracer.cache_hits / lookups if lookups else 0.0,
            "ratio", lookups)
    rep.add("coord.decide_calls", float(decide[0]), "count")
    rep.add("coord.decide_us", decide[1] / decide[0] * 1e6 if decide[0] else 0.0,
            "us", decide[0])
    rep.add("coord.replicas_per_decide",
            tracer.replicas / decide[0] if decide[0] else 0.0, "ratio", decide[0])
    rep.add("coord.advance_us", advance[1] / advance[0] * 1e6 if advance[0] else 0.0,
            "us", advance[0])
    rep.add("coord.update_fanout", tracer.update_frames / max(1, led.updates),
            "count", led.updates)
    rep.add("coord.insert_ms", insert_s * 1e3, "ms", wl.mix.files)
    member = total("coord.membership")
    rep.add("coord.membership_ms", member[1] / member[0] * 1e3 if member[0] else 0.0,
            "ms", member[0])
    rep.add("overload.sheds_per_get", tracer.sheds / gets, "ratio", led.gets)
    rep.add("conformance.replay_ms", check_s * 1e3, "ms")
    rep.add("fleet.boot_s", env.boot_s, "s")
    rep.add("fleet.worker_cpu_us_per_op", per_op(main.cpu_workers), "us", ops)
    rep.add("fleet.parent_cpu_us_per_op", per_op(main.cpu_self), "us", ops)
    rep.add("bootstrap.rpcs_per_op", rpc[0] / ops, "count", rpc[0])
    rep.add("bootstrap.rpc_us", rpc[1] / rpc[0] * 1e6 if rpc[0] else 0.0, "us", rpc[0])
    rep.add("fleet.worker_rss_mb", worker_rss, "MiB")
    rep.add("proc.cpu_util", main.cpu / main.wall, "ratio")
    rep.add("gc.pause_ms_per_s", probes.gc_pause * 1e3 / main.wall, "ms/s")
    rep.add("gc.pause_max_ms", probes.gc_max * 1e3, "ms")
    rep.add("gc.gen2_collections", float(probes.gc_collections[2]), "count")
    lag_p99, n_lag, _ = tail(probes.lag, 0.99)
    rep.add("loop.lag_p99_ms", lag_p99, "ms", n_lag)

    traced_cpu = per_op(main.cpu)
    untraced_cpu = ref.per_op_us(ref.cpu)
    unattributed = traced_cpu - sum(rows.values())
    rep.add("trace.cpu_us_per_op", traced_cpu, "us", ops)
    rep.add("trace.overhead_us_per_op", traced_cpu - untraced_cpu, "us", ops)
    rep.add("layer.unattributed_us_per_op", unattributed, "us", ops)
    rep.add("probe.gc_us_per_op", per_op(probes.gc_cost), "us", ops)
    rep.add("probe.lag_us_per_op", per_op(probes.lag_cost), "us", ops)
    rep.add("probe.inbox_us_per_op", per_op(probes.inbox_cost), "us", ops)
    rep.add("probe.rusage_us_per_op", per_op(2 * rusage_cost), "us", ops)

    print("attribution (us per completed op, traced window):")
    for name, value in rows.items():
        print(f"  {name:32s} {value:10.2f}")
    print(f"  {'layer.unattributed_us_per_op':32s} {unattributed:10.2f}")
    print(f"  {'= trace.cpu_us_per_op':32s} {traced_cpu:10.2f}")
    print(f"  (of node.route: routing.table {per_op(table[1]):.2f}; "
          f"untraced cpu_us_per_op {untraced_cpu:.2f})")
    out = ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.tsv"
    tracer.write(out)
    print(f"info spans {len(tracer.span_start)} written to "
          f"{out.relative_to(ROOT)} (dropped {tracer.dropped})")
    return rep, led, mismatches


# -- entry point --------------------------------------------------------------

def more_setups(args, setups: list[float]) -> bool:
    """Whether another throwaway set-up should run before the measured one."""
    if args.trace:
        return False
    done = len(setups) + 1
    return done < SETUP_MIN_REPS or (
        done < SETUP_MAX_REPS and sum(setups) < SETUP_BUDGET_S
    )


async def run_inproc(wl: Workload, args, setups, ledgers):
    # All but the last set-up are torn down again: they only feed the
    # set-up median.
    while more_setups(args, setups):
        env = InProc(wl)
        try:
            gen, setup_s, _ = await setup(env, wl)
            await gen.close()
        finally:
            await env.close()
        setups.append(setup_s)
    env = InProc(wl)
    try:
        if args.trace:
            return await traced(env, wl, args, ledgers)
        return await untraced(env, wl, args, setups, ledgers)
    finally:
        await env.close()


def run_fleet(wl: Workload, args, setups, ledgers):
    # The fleet forks before any event loop exists, so each set-up is
    # its own loop.
    async def throwaway(env):
        try:
            gen, setup_s, _ = await setup(env, wl)
            await gen.close()
        finally:
            await env.close()
        return setup_s

    async def measured(env):
        try:
            if args.trace:
                return await traced(env, wl, args, ledgers)
            return await untraced(env, wl, args, setups, ledgers)
        finally:
            await env.close()

    while more_setups(args, setups):
        setups.append(asyncio.run(throwaway(Fleet(wl))))
    return asyncio.run(measured(Fleet(wl)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        # Each workload in its own interpreter: the fleet forks, and no
        # run should inherit another's heap.
        status = 0
        for name in WORKLOADS:
            proc = subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ])
            status = status or proc.returncode
        return status
    wl = WORKLOADS[args.workload]
    print("meta " + json.dumps(meta(wl, args), sort_keys=True))

    setups: list[float] = []
    ledgers: list[Ledger] = []
    if wl.fleet_nodes:
        rep, led, mismatches = run_fleet(wl, args, setups, ledgers)
    else:
        rep, led, mismatches = asyncio.run(run_inproc(wl, args, setups, ledgers))

    problems = ledger_problems(ledgers) + [f"oracle: {m}" for m in mismatches]
    if problems:
        for problem in problems[:20]:
            print(f"perfbench: FAIL {problem}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": True,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": rep.metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
