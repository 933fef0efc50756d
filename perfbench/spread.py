"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload roundtrip --runs 10

Runs the command from BENCHMARK.json once for each of seeds 1 to ``--runs``
(trace off), then prints each metric's median, its quartile spread as a share
of the median, and that spread against the metric's bound.  Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"seed={seed} correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for line in lines:
            if line.startswith(("# slowdown", "# wall")):
                print(f"  {line}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])

    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print(f"{name:12s} median={med:.6g} spread={spread:.4f} bound={bounds[name]} spread/bound={share:.2f}")
    print(f"worst spread/bound (setup_s excluded) = {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
