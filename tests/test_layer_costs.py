"""tools/layer_costs.py prints one JSON line of per-layer costs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_costs_prints_every_layer_once():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_costs.py"), "--repeats", "1"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    costs = json.loads(lines[0])
    for layer, kinds in (("line", ("standard", "coarse")),
                         ("correction", ("standard", "extended", "coarse"))):
        for kind in kinds:
            assert f"{layer}.build.{kind}" in costs
            assert f"{layer}.row.{kind}" in costs
    # the line family has no extended kind to cost
    assert not any(key.startswith("line.") and key.endswith(".extended")
                   for key in costs)
    startup = ["startup.import_cli_s", "startup.cpu_s", "startup.teardown_s"]
    if os.path.isdir("/proc/self/task"):
        startup.append("startup.threads")
    for key in (*startup, "assemble.standard", "assemble.extended",
                "special.log_gamma.extended", "ddmath.exp", "ddmath.log",
                "ddmath.sincos", "ddmath.atan2", "ddmath.tables_s"):
        assert key in costs
    assert all(v > 0.0 for v in costs.values())
