"""Tests for repository tooling (tools/gen_api_docs.py)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_api_doc_generator_runs(tmp_path):
    out = tmp_path / "api_overview.md"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"), str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    text = out.read_text()
    # Defaults render without memory addresses, so the output is a
    # function of the source alone.
    assert "at 0x" not in text
    # Spot-check a few load-bearing symbols are indexed.
    for symbol in (
        "choose_replica_target",
        "FluidSimulation",
        "LessLogSystem",
        "advanced_children_list",
        "DesExperiment",
    ):
        assert symbol in text, f"{symbol} missing from API overview"
    # Every core module section is present.
    for module in (
        "repro.core.vid",
        "repro.core.routing",
        "repro.engine.fluid",
        "repro.cluster.system",
    ):
        assert f"## `{module}`" in text
