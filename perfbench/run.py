"""cvue benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload runs in a fresh,
single-threaded interpreter (perfbench/child.py) with ``src`` on its path;
``SETUP_PROBES`` more fresh interpreters only set up, and ``setup_s`` is the
median of all set-up times. Times are scaled to a reference machine speed
(see child.py). Prints the environment as one JSON line, then
the result line ``{"correct", "attempted", "failed", "metrics"}`` holding
every end_to_end metric of BENCHMARK.json (``--trace 0``) or every
per_layer one (``--trace 1``). Exits non-zero, without a result line, when
the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a child gets its run time plus this much for set-up and the last op
CHILD_SLACK_S = 60


def git_state(root: Path) -> dict:
    def git(*argv):
        try:
            done = subprocess.run(
                ["git", *argv], cwd=root, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    dirty = None if rev is None else bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"git_rev": rev, "git_dirty": dirty}


def child(argv: list, root: Path, env: dict, timeout: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many ops (smoke test)")
    args = parser.parse_args()

    load_1min = os.getloadavg()[0]
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2
    if not (root / "src" / "cvue" / "__init__.py").is_file():
        print("no cvue source under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{v: "1" for v in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    timeout = args.seconds + CHILD_SLACK_S
    # half the set-up probes run before the workload and half after it, so
    # that the median spans the machine's state over the whole run
    probe = [*common, "--setup-only"]
    try:
        probes = [child(probe, root, env, CHILD_SLACK_S) for _ in range(SETUP_PROBES // 2)]
        run = child([*common, "--trace", str(args.trace), "--ops", str(args.ops)], root, env, timeout)
        probes += [child(probe, root, env, CHILD_SLACK_S) for _ in range(SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    setups = [run, *probes]
    metrics = dict(run["metrics"])
    metrics["setup_s"] = statistics.median(s["setup_s"] * s["setup_speed"] for s in setups)
    if args.trace:
        for name in run["setup_layers"]:
            metrics[name] = statistics.median(s["setup_layers"][name] for s in setups)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark does not measure {missing}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "load_1min_at_start": load_1min,
        "threads": {v: env[v] for v in THREAD_VARS},
        **run["versions"],
        **git_state(root),
        "setup_s_unscaled": [s["setup_s"] for s in setups],
        "setup_speed": [s["setup_speed"] for s in setups],
        "trial_ops": run["trial_ops"],
        "digest": run["digest"],
        "problems": run["problems"],
    }
    if args.trace:
        info["missing_spans"] = run["missing_spans"]
    else:
        info["unscaled"] = run["unscaled"]
    print(json.dumps({"info": info}))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
