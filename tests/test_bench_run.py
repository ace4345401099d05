"""Smoke test of the benchmark harness on its cheapest workload.

bench/run.py must end its standard output with one JSON line carrying the
correctness gate and every end-to-end metric with its unit, and write the
artifact digests that compare two commits byte for byte.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def test_bench_run_example1_reports_metrics_and_digests():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "example1",
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in last["metrics"].values())

    result = json.loads((ROOT / ".bench_run" / "example1" / "result.json")
                        .read_text(encoding="utf-8"))
    digests = result["artifacts"]
    assert "summary.json" in digests
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in digests.values())
    assert len(result["artifacts_sha256"]) == 64
