"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from repro.runtime import LiveCluster, RuntimeClient, RuntimeConfig  # noqa: E402

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

FILES = [f"t{i}" for i in range(6)]


async def _drive(config: RuntimeConfig, mix: Mix, seconds: float, timeout: float,
                 during=None) -> Ledger:
    cluster = await LiveCluster.start(config)
    try:
        boot = await RuntimeClient(cluster, min(cluster.nodes)).connect()
        for name in FILES:
            await boot.insert(name, payload_for(name, 0, 16))
        await boot.close()
        await cluster.drain()
        gen = OpenLoop(cluster, FILES, 16, timeout)
        await gen.connect()
        if during is not None:
            during(asyncio.get_running_loop())
        ledger = Ledger()
        await gen.run(Schedule(mix, seconds, gen.slots, seed=5), ledger)
        await gen.close()
        return ledger
    finally:
        await cluster.shutdown()


def test_blocked_loop_shows_in_latency_and_lateness():
    # A 150 ms stall delays every request due inside it.  Timed from
    # the due time, those requests are slow; timed from the send, they
    # would look fast — the generator must show the stall both in GET
    # latency and in its own lateness.
    config = RuntimeConfig(m=3, b=1, service_time=0.001)
    mix = Mix(rate=400.0, update_share=0.0, files=len(FILES), zipf_s=1.0)

    def block(loop):
        loop.call_later(0.5, time.sleep, 0.15)

    ledger = asyncio.run(_drive(config, mix, 1.5, 2.0, during=block))
    assert ledger.balanced and ledger.failed == 0
    assert quantile(ledger.get_lat, 0.99) >= 0.1
    assert quantile(ledger.lateness, 0.99) >= 0.1
    assert quantile(ledger.get_lat, 0.5) < 0.05


def test_injected_timeouts_keep_the_ledger_balanced():
    # Service slower than the client timeout: every GET times out.
    config = RuntimeConfig(m=3, b=1, service_time=0.6)
    mix = Mix(rate=100.0, update_share=0.0, files=len(FILES), zipf_s=1.0)
    ledger = asyncio.run(_drive(config, mix, 0.5, 0.05))
    assert ledger.balanced
    assert ledger.timeouts == ledger.attempted > 0
    assert ledger.failed == ledger.timeouts
    assert not ledger.get_lat


def test_same_seed_same_request_sequence():
    mix = Mix(rate=500.0, update_share=0.2, files=50, zipf_s=0.8)
    first = Schedule(mix, 2.0, 16, seed=9).rows()
    assert first == Schedule(mix, 2.0, 16, seed=9).rows()
    assert first != Schedule(mix, 2.0, 16, seed=10).rows()
    on_off = Schedule(mix, 4.0, 16, seed=9, period=2.0, on_share=0.5).rows()
    assert on_off == Schedule(mix, 4.0, 16, seed=9, period=2.0, on_share=0.5).rows()
    assert all(due % 2.0 < 1.0 for due, *_ in on_off)


def test_contended_slices_leave_the_percentiles_worst_first():
    # Host wait per second of a 6 s window: slices 1, 2, 4 and 5 are
    # contended.  At most half the slices may go, the worst first, so
    # slice 1 (the mildest of the four) stays.
    meter = HostMeter(1.0)
    per_second = [0.0, 0.02, 0.3, 0.0, 0.1, 0.05]
    for t in range(7):
        meter.times.append(100.0 + t)
        meter.cpus.append(0.5 * t)
        meter.waits.append(sum(per_second[:t]))
    dues = [100.0 + k * 0.5 for k in range(12)]
    lo, shares, keep = quiet_slices(dues, meter, 1.0, 0.01)
    assert lo == 100.0
    assert [round(x, 6) for x in shares] == per_second
    assert keep == [True, True, False, True, False, False]
    lat = [float(k) for k in range(12)]
    assert list(kept_samples(lat, dues, lo, 1.0, keep)) == [0, 1, 2, 3, 6, 7]
    assert meter.cpu(100.5, 102.0) == 0.75
    # A quiet window keeps everything.
    quiet = HostMeter(1.0)
    quiet.times.extend([100.0, 106.0])
    quiet.cpus.extend([0.0, 3.0])
    quiet.waits.extend([0.0, 0.01])
    assert all(quiet_slices(dues, quiet, 1.0, 0.01)[2])


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_printed_metric_is_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = json.loads((BENCH_DIR / "metrics.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    links = {**declared["end_to_end"], **declared["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert workloads == set(declared["workloads"])
    workloads |= set(declared["dropped_workloads"])
    for name, entry in declared["per_layer"].items():
        assert entry["moves"] or entry.get("note"), name
        for link in entry["moves"]:
            assert link["metric"] in links, (name, link)
            assert link["workload"] in workloads, (name, link)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "hot-read", "--seed", "3", "--seconds", "1",
                    "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        printed = {}
        for line in proc.stdout.splitlines():
            if line.startswith("metric "):
                _tag, name, _value, unit, *_ = line.split()
                printed[name] = unit
        for name, unit in printed.items():
            assert units.get(name) == unit, (name, unit)
            assert set(links[name]["workloads"]) <= workloads, name
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in bench[section]}
        assert set(result["metrics"]) == set(printed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "hot-read", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
