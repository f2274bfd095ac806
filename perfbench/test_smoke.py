"""The benchmark's own test: one tiny round of every workload with all checks.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_round_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert "machine" in lines[0]
    per_workload = {row["workload"]: row for row in lines[1:-1]}
    assert {w["name"] for w in _spec()["workloads"]} <= set(per_workload)
    for row in per_workload.values():
        assert row["correct"] and row["attempted"] > 0
    # only the two counted faults fail: a sampler row, and realize in-process
    # and through the command line
    assert per_workload["relations"]["failed"] == 1
    assert per_workload["realize"]["failed"] == per_workload["cli"]["failed"] == 1
    assert per_workload["exact"]["failed"] == 0
    assert lines[-1]["correct"] is True


def test_layer_names_match_the_benchmark_file():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run

    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
