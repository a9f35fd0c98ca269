"""Calibrated end-to-end benchmark of the repro framework.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 15 --trace 0

It imports the program from the checkout's ``src`` directory, sets up
the workload several times, runs whole rounds of operations for
``--seconds``, calibrating every step, checks every output, and
prints one JSON object as its last line of output: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# numpy/BLAS stays single-threaded: the benchmark never runs more busy
# threads than there are cores, and these must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space of a run (shard plan caches, traces), inside the checkout
WORKDIR = os.path.join(ROOT, ".perfbench")


def load_benchmark() -> dict:
    """BENCHMARK.json at the root of the checkout: workloads and metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def units(bench: dict, section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in bench[section]}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pin_cores(workload) -> set[int]:
    """Cores the workload's processes may use; pins this process to one
    core first if the workload runs on one."""
    cores = os.sched_getaffinity(0)
    if workload.pin:
        cores = {min(cores)}
        os.sched_setaffinity(0, cores)
    return cores


def end_to_end(name: str, seed: int, seconds: float, unit: dict[str, str]) -> dict:
    import calib
    import driver
    import pctl
    from workloads import WORKLOADS, CheckError

    workload = WORKLOADS[name](seed, WORKDIR)
    cal = calib.Calibrator(pin_cores(workload))
    try:
        setups, _, raw_setups = driver.timed_setups(workload, cal)
        m = driver.measure(workload, seconds, cal)
        rss_self = peak_rss_mb()
    finally:
        workload.teardown()
    rss = max(rss_self, peak_rss_mb())
    correct = True
    try:
        fixed = workload.finish()
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, fixed = False, {}
    for err in m.errors[:5]:
        print(f"failed operation: {err}", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": m.throughput,
        "latency_p50_ms": 1e3 * pctl.percentile(m.latencies, 50),
        "latency_p90_ms": 1e3 * pctl.percentile(
            m.latencies, 90, min_beyond=pctl.MIN_BEYOND
        ),
        "peak_rss_mb": rss,
        **fixed,
    }
    print(
        f"{name}: {len(m.latencies)} ops in {m.rounds} rounds, "
        f"{m.busy:.2f} calibrated s busy, reference kernel "
        f"{min(cal.readings) * 1e3:.3f}-{max(cal.readings) * 1e3:.3f} ms",
        file=sys.stderr,
    )
    raw = {
        "setup_s": statistics.median(raw_setups),
        "throughput_ops_s": len(m.raw_latencies) / m.raw_busy,
        "latency_p50_ms": 1e3 * pctl.percentile(m.raw_latencies, 50),
        "latency_p90_ms": 1e3 * pctl.percentile(m.raw_latencies, 90),
    }
    print("uncalibrated " + json.dumps(raw), file=sys.stderr)
    return {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # every workload runs by hand; BENCHMARK.json lists the gated ones
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    os.makedirs(WORKDIR, exist_ok=True)
    if args.trace:
        import tracerun

        result = tracerun.traced(args.workload, args.seed, args.seconds, WORKDIR,
                                 units(bench, "per_layer"))
    else:
        result = end_to_end(args.workload, args.seed, args.seconds,
                            units(bench, "end_to_end"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
