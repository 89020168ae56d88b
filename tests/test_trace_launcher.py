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


@pytest.mark.parametrize("command", [
    ["integrals", "--alpha", "4"],
    ["thermal", "--mode", "integral", "--delta-omega", "4"],
], ids=["integrals", "thermal"])
def test_launcher_traces_every_layer(command, tmp_path):
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_launcher.py"),
         str(spans_dir), *command, "--t-end", "6.0", "--t-steps", "2",
         "--jobs", "1", "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    spans = [json.loads(line)
             for path in spans_dir.glob("spans-*.jsonl")
             for line in path.read_text().splitlines()]
    layers = {span[2] for span in spans}
    assert set(LAYERS) <= layers
    sweep_rows = [span[6] for span in spans if span[2] == "jcm.sweep"]
    assert all(rows == 3 for rows in sweep_rows)
    assert "import_s" in json.loads((spans_dir / "launcher.json").read_text())
