"""bench/trace_launcher.py records a span for every layer bench/run.py reads.

The launcher wraps package attributes by name (the profiles and q_g, the
CLI's chunk workers, quadrature.build_grid/assemble, special.log_gamma), so
a rename or a bypassed entry point loses a layer silently; bench/run.py
then fails only when it divides by a missing count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("cli.chunk", "jcm.sweep", "quadrature.build_grid",
          "quadrature.assemble", "special.log_gamma")


def _traced_spans(tmp_path, command):
    """Every span the launcher wrote for one CLI run, from all processes,
    as (pid, span)."""
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_launcher.py"),
         str(spans_dir), *command, "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    assert "import_s" in json.loads((spans_dir / "launcher.json").read_text())
    return [(int(path.stem.split("-")[1]), json.loads(line))
            for path in spans_dir.glob("spans-*.jsonl")
            for line in path.read_text().splitlines()]


@pytest.mark.parametrize("command", [
    ["integrals", "--alpha", "4"],
    ["thermal", "--mode", "integral", "--delta-omega", "4"],
], ids=["integrals", "thermal"])
def test_launcher_traces_every_layer(command, tmp_path):
    spans = [span for _, span in _traced_spans(
        tmp_path, command + ["--t-end", "6.0", "--t-steps", "2", "--jobs", "1"])]
    layers = {span[2] for span in spans}
    assert set(LAYERS) <= layers
    sweep_rows = [span[6] for span in spans if span[2] == "jcm.sweep"]
    assert all(rows == 3 for rows in sweep_rows)


@pytest.mark.skipif(not hasattr(os, "fork") or (os.cpu_count() or 1) < 2,
                    reason="needs os.fork and two cores to start a worker")
def test_forked_workers_flush_their_spans_and_share_the_extended_family(tmp_path):
    # the latest row escalates first, in the parent, so the worker forked
    # after it inherits the extended family instead of building its own
    spans = _traced_spans(tmp_path, ["integrals", "--alpha", "4", "--t-start", "18",
                                     "--t-end", "21", "--t-steps", "9", "--jobs", "2"])
    assert len({pid for pid, span in spans if span[2] == "cli.chunk"}) == 2
    extended = [span for _, span in spans
                if span[2] == "quadrature.build_grid" and span[3] == "extended"]
    assert len(extended) == 1
