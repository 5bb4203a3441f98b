"""Smoke test of the benchmark: every workload at a tiny size (one op cycle).

    python3 -m pytest perfbench/test_smoke.py

Checks that the reported metric names are the ones BENCHMARK.json lists,
that no op failed, and that two runs with the same seed give the same
output digest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# one full op cycle of each workload
OPS = {"oracle-roundtrip": 20, "bch-roundtrip": 5, "cloning-game": 6, "eb-check": 2}


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "60", "--trace", str(trace), "--ops", str(OPS[workload]),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return info["info"], result


def test_every_workload_has_a_smoke_size():
    assert sorted(OPS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(OPS))
def test_workload(workload):
    info, result = bench(workload, 7, 0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert result["attempted"] == OPS[workload]
    assert result["failed"] == 0 and result["correct"], info["problems"]
    assert result["metrics"]["op_ok_frac"]["value"] == 1.0

    again, _ = bench(workload, 7, 0)
    assert again["digest"] == info["digest"]

    traced_info, traced = bench(workload, 7, 1)
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert traced["failed"] == 0, traced_info["problems"]
    assert traced_info["digest"] == info["digest"]
