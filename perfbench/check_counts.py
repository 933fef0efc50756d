"""Check that the traced run's exact counts repeat byte for byte.

    python3 perfbench/check_counts.py

For each workload, runs two traced runs with seed 1 and compares their count
sections (the ``# counts`` line) byte for byte, then runs one traced run with
seed 2 and lists the counts that moved with the inputs.  Exits
1 if any pair differs or a traced run reports ``correct: false``.  Run from the
root of a checkout.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "recursion", "repl", "roundtrip")
SEED, OTHER_SEED = 1, 2


def traced(workload: str, seed: int) -> tuple[str, bool]:
    """The count section and the correctness flag of one traced run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    counts = next(line for line in lines if line.startswith("# counts "))
    return counts[len("# counts "):], json.loads(lines[-1])["correct"]


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, correct1 = traced(workload, SEED)
        second, correct2 = traced(workload, SEED)
        other, correct3 = traced(workload, OTHER_SEED)
        identical = first == second
        ok &= identical and correct1 and correct2 and correct3
        a, b = json.loads(first), json.loads(other)
        moved = sorted(k for k in a if a[k] != b.get(k))
        print(f"{workload}: same-seed count sections byte-identical={identical} "
              f"correct={correct1 and correct2 and correct3}")
        print(f"{workload}: seed {SEED} -> {OTHER_SEED} moved {len(moved)}/{len(a)} counts: "
              + ", ".join(f"{k} {a[k]}->{b[k]}" for k in moved))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
