"""Steadiness runs: each workload once per seed, then spreads per metric.

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/baseline [WORKLOAD ...]

Runs ``run.py --trace 0`` for every seed and ``--trace 1`` for the first
seed, one run at a time, from the root of a checkout. Writes every result to
``OUT/<workload>.jsonl`` and, per workload and end-to-end metric, the median,
quartiles and spread (interquartile distance / median, the quantity the
metric's ``bound`` in BENCHMARK.json limits) to ``OUT/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, check=True,
    )
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {"seed": seed, "trace": trace, **info, "result": result}


def summarize(records: list, bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in records]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        out[name] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3,
        }
    return out


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary_path = args.out / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    for workload in args.workloads:
        records = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        records.append(run(workload, args.seeds[0], args.seconds, 1))
        with open(args.out / f"{workload}.jsonl", "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        summary[workload] = summarize([r for r in records if r["trace"] == 0], bounds)
        summary_path.write_text(json.dumps(summary, indent=2) + "\n")
        print(workload)
        for name, s in summary[workload].items():
            print(
                f"  {name:14s} median {s['median']:14.4f}  spread {s['spread']:.4f}"
                f"  bound {s['bound']}  {'steady' if s['steady'] else 'NOT STEADY'}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
