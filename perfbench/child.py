"""One workload run in a fresh, single-threaded interpreter; run.py starts it.

The set-up timer starts before anything outside the standard library is
imported: it covers ``import cvue``, ``import cvue.cli``, loading and
deriving the configs and building the codecs, up to the first op. Then ops
run back to back (closed loop, one client) until ``--seconds`` have passed,
or for exactly ``--ops`` ops. With ``--trace 1`` every op is followed by its
traced replay. Prints one JSON line of raw measurements for run.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402

SETUP_LAYERS = {
    "import.cvue_s": ("import.cvue", "total_s", "calls", 1.0),
    "import.cli_extra_s": ("import.cli_extra", "total_s", "calls", 1.0),
    "config.load_ms": ("config.load", "total_s", "calls", 1e3),
    "codec.make_codec_ms": ("codec.make_codec", "total_s", "calls", 1e3),
}


# The reference machine, a 2-vCPU VM, shares its physical cores, and its speed
# switches by up to 40 % for seconds at a time as neighbours come and go. So a
# fixed kernel that runs no cvue code is timed after every op, and each op's
# time is scaled by CALIBRATION_REF_S / (median of the five kernel times
# around it): times are reported at the speed where the kernel takes 2 ms.
# Unscaled metrics go to the info line.
CALIBRATION_REF_S = 0.002
CALIBRATION_WINDOW = 2  # kernel times on each side of an op


def calibration_kernel() -> float:
    """Seconds for a fixed mix of what cvue spends time on: a numpy array
    pass, an interpreted loop and big-integer arithmetic."""
    import numpy as np

    start = time.perf_counter()
    x = np.random.default_rng(0).normal(size=100_000)
    int(np.count_nonzero(x < 0.3))
    s = 0
    for i in range(10_000):
        s += i * i % 7
    v = 1
    for i in range(1, 150):
        v = v * (1000 - i) // i
    return time.perf_counter() - start


def speed_factors(kernel_s: list) -> list:
    w = CALIBRATION_WINDOW
    return [
        CALIBRATION_REF_S / statistics.median(kernel_s[max(0, i - w) : i + w + 1])
        for i in range(len(kernel_s))
    ]


def quantile(values, q: float) -> float:
    """Inclusive quantile, as statistics.quantiles computes it."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def run_metrics(timings: list, failed: int, factors: list) -> dict:
    """``timings`` holds (elapsed s, units, main, side) per op, and each
    elapsed time is scaled by the op's factor."""
    timings = [(t[0] * f, *t[1:]) for t, f in zip(timings, factors)]

    def rate(column):
        picked = [t for t in timings if t[column]]
        seconds = sum(t[0] for t in picked)
        return sum(t[1] for t in picked) / seconds if seconds else 0.0

    latency = [t[0] * 1e3 for t in timings if t[2]]
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ok_frac": 1.0 - failed / len(timings),
        "trials_per_s": rate(2),
        "side_per_s": rate(3),
        "op_p50_ms": quantile(latency, 0.50),
        "op_p95_ms": quantile(latency, 0.95),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many ops")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    gen = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    tracer = Tracer()
    try:
        with tracer.span("import.cvue"):
            import cvue
        with tracer.span("import.cli_extra"):
            import cvue.cli  # noqa: F401
        if Path(cvue.__file__).resolve().parent != (root / "src" / "cvue").resolve():
            print(f"cvue was imported from {cvue.__file__}, not from ./src", file=sys.stderr)
            return 2
        import workloads

        cycle = workloads.WORKLOADS[args.workload](root, gen, tracer)
        setup_s = time.perf_counter() - T0
        record = {
            "setup_s": setup_s,
            "setup_speed": CALIBRATION_REF_S / statistics.median(
                calibration_kernel() for _ in range(2 * CALIBRATION_WINDOW + 1)
            ),
            "setup_layers": layer_metrics(tracer.summary(), SETUP_LAYERS),
        }
        if args.setup_only:
            print(json.dumps(record))
            return 0

        import numpy
        import scipy

        fn = None
        if args.trace:
            import replay

            fn = replay.resolve()
        # only timings are kept per op, so outputs do not add to peak RSS
        timings, problems, kernel_s = [], [], []
        failed = 0
        digest = hashlib.sha256()
        replays = matched = 0
        traced_s = plain_s = 0.0
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < args.ops if args.ops else time.perf_counter() < deadline:
            op = cycle[index % len(cycle)]
            seed = workloads.op_seed(args.seed, index)
            try:
                result = workloads.run_op(op, seed)
            except Exception:  # an op that raises is a failed op; the run goes on
                result = workloads.OpResult(0.0, 0, b"raised", [traceback.format_exc()], None)
            timings.append((result.elapsed, result.units, op.main, op.side))
            if not args.trace:
                kernel_s.append(calibration_kernel())
            failed += bool(result.problems)
            digest.update(result.output)
            if len(problems) < 10:
                problems += [f"op {index} {op.kind} {op.label}: {p}" for p in result.problems]
            if args.trace:
                tracer.op_id = index
                start = time.perf_counter()
                try:
                    matched += replay.replay(op, seed, tracer, fn, result.value)
                except Exception:  # a replay the program no longer supports
                    if len(problems) < 10:
                        problems.append(f"replay of op {index}: {traceback.format_exc()}")
                traced_s += time.perf_counter() - start
                plain_s += result.elapsed
                replays += 1
            index += 1

        if args.trace:
            metrics, summary = replay.trace_metrics(tracer, replays, matched, traced_s, plain_s)
            tracer.dump(scratch / f"spans-{args.workload}-{args.seed}.jsonl")
            record["spans"] = summary
            record["missing_spans"] = sorted(tracer.missing)
        else:
            metrics = run_metrics(timings, failed, speed_factors(kernel_s))
            record["unscaled"] = run_metrics(timings, failed, [1.0] * len(timings))
        record.update(
            metrics=metrics,
            attempted=len(timings),
            failed=failed,
            trial_ops=sum(t[2] for t in timings),
            digest=digest.hexdigest(),
            problems=problems[:10],
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "cvue": getattr(cvue, "__version__", "unknown"),
            },
        )
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(gen, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
