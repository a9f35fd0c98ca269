"""Steadiness check: run every workload repeatedly and report the spread.

    python3 perfbench/steady.py [--first-seed 1]

Runs ``perfbench/run.py`` ten times per workload for BENCHMARK.json's
``run_seconds``, seed after seed from ``--first-seed``, alternating the
order of the workloads from one seed to the next, and prints each
end-to-end metric's median and quartiles.  An end-to-end metric whose
quartile distance exceeds its bound (as a share of its median) is
flagged ``OVER BOUND``, one that exceeds a third of its bound, the margin
the benchmark aims for, is flagged too.  Exits 1 if any end-to-end
metric, set-up time included, exceeds its bound, if any run is
incorrect, or if the share of failed operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import pctl
from run import ROOT, load_benchmark

#: runs per workload
RUNS = 10


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stderr.splitlines():
        if line.startswith("uncalibrated "):
            result["uncalibrated"] = json.loads(line[len("uncalibrated "):])
    return result


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed_share: dict[str, set[float]] = {w: set() for w in workloads}
    ok = True
    for k in range(RUNS):
        seed = args.first_seed + k
        order = workloads if k % 2 == 0 else workloads[::-1]
        for w in order:
            result = run_once(bench["command"], w, seed, bench["run_seconds"])
            ok &= bool(result["correct"])
            failed_share[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for name, v in result.get("uncalibrated", {}).items():
                values[w].setdefault(f"{name} (raw)", []).append(v)
            print(f"  seed {seed} {w}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
    for w in workloads:
        print(f"\n{w}  (failed share {sorted(failed_share[w])})")
        print(f"  {'metric':22s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, q2, q3 = pctl.quartiles(vals)
            s = pctl.spread(vals)
            bound = bounds.get(name, 0.0)
            flag = ""
            if name.endswith("(raw)"):
                pass  # uncalibrated figures are shown, never gated
            elif s > bound:
                flag = "OVER BOUND"
                ok = False
            elif s > bound / 3:
                flag = "over a third of bound"
            print(f"  {name:22s} {q1:12.5g} {q2:12.5g} {q3:12.5g} "
                  f"{s:8.4f} {bound:6.3f} {flag}")
        if len(failed_share[w]) > 1:
            print("  failed share differs between runs")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
