"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` there.
With ``--trace 0`` the run makes a fixed number of whole passes of the
workload, as many as fit in ``--seconds`` at the reference speed (at least
one), and reports the end-to-end metrics, every time in seconds at the
reference speed: each op's time is divided by the host's slowdown around
it, read from a fixed chunk of work timed between ops (``calibrate.py``).
With ``--trace 1`` it alternates an untraced and a traced pass of the same
inputs, reports the per-layer metrics of the traced passes and the tracing
overhead, and writes the first traced pass's spans under ``perfbench/out/``.
The last line of standard output is one JSON object; the lines before it
(prefixed ``#``) record the environment and details.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

# One BLAS thread, set before numpy loads.  With the default pool of two on
# a 2-vCPU share of a busy host, every scan waits for whichever core the host
# slowed, and op times swung with the host more than with the library; one
# thread also lets calibrate.py's one-thread chunk track the workload.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 5
# About the seconds one pass of each workload takes at the reference speed.  A run's
# pass count depends on --seconds alone, so every run of a seed attempts the
# same ops and fails the same ones.
PASS_SECONDS = {"corpus": 0.75, "recursion": 34.0, "repl": 9.5, "roundtrip": 20.0}
# Calibration chunks taken after each set-up sample; their median is its slowdown.
SETUP_CHUNKS = 2

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, Calibrator, local_slowdowns, slowdown  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, PassLog  # noqa: E402


def load_api() -> types.SimpleNamespace:
    """Import the library from the checkout's ``src/``; never an installed copy."""
    src = ROOT / "src"
    if not (src / "veclisp" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no veclisp sources under {src}")
    sys.path.insert(0, str(src))
    import veclisp
    from veclisp import cleanup, cli, codec, corpus, evaluator, hrr, oracle, reader

    if Path(veclisp.__file__).resolve().parent != (src / "veclisp").resolve():
        raise SystemExit(f"run.py: imported veclisp from {veclisp.__file__}, not from {src}")
    return types.SimpleNamespace(
        hrr=hrr, cleanup=cleanup, codec=codec, evaluator=evaluator, reader=reader, oracle=oracle,
        cli=cli, corpus=corpus, oracle_evaluate=oracle.evaluate,
    )


def environment(api, args) -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    config = api.evaluator.SessionConfig()
    return {
        "workload": args.workload, "workload_seed": args.seed, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)), "dim": config.dim,
        "session_seed": config.seed, "trace": args.trace, "calibration_reference_s": REFERENCE_S,
    }


def fresh_pass(api, workload_cls, seed, tracer=None):
    """Set up a fresh workload and run one pass; returns the log and wall seconds.

    The inputs are generated before the clock starts.
    """
    wl = workload_cls(seed)
    log = PassLog(tracer=tracer)
    t0 = time.perf_counter()
    if tracer is None:
        wl.setup(api)
        wl.run_pass(log)
    else:
        with tracer.installed(api):
            wl.setup(api)
            wl.run_pass(log)
    return log, time.perf_counter() - t0


def failure_summary(ops) -> str:
    kinds: dict[str, int] = {}
    for op in ops:
        if not op.ok:
            key = f"{op.error}{'' if op.known_defect else ' (unexpected)'}"
            kinds[key] = kinds.get(key, 0) + 1
    return json.dumps(kinds, sort_keys=True)


def timed_run(api, args, wl, setup0, cal):
    """A fixed number of whole passes; end-to-end metrics at the reference speed."""
    setups = [setup0 / slowdown(cal.take())]
    passes = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    ops, spans, reference_errors = [], [], []
    for _ in range(passes):
        log = PassLog(between_ops=cal.between_ops)
        wl.run_pass(log)
        ops.extend(log.ops)
        spans.extend(zip(log.starts, (op.seconds for op in log.ops)))
        reference_errors.extend(log.reference_errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_chunks = cal.take()
    slows = local_slowdowns(run_chunks, spans)
    raw_setups = [setup0]
    for _ in range(SETUP_SAMPLES - 1):
        raw_setups.append(setup_in_fresh_process(args))
        cal.sample(SETUP_CHUNKS)
        setups.append(raw_setups[-1] / slowdown(cal.take()))

    seconds = [op.seconds / slow for op, slow in zip(ops, slows)]
    matched = sum(op.ok for op in ops)
    failed = len(ops) - matched
    unexpected = sum(1 for op in ops if not op.ok and not op.known_defect)
    print(f"# passes={passes} ops={len(ops)} matched={matched} fail_rate={failed / len(ops):.6f} "
          f"failures={failure_summary(ops)}")
    print(f"# slowdown median={slowdown(run_chunks):.4f} over {len(run_chunks)} chunks, "
          f"per op {min(slows):.4f}..{max(slows):.4f}")
    print(f"# wall op_s_sum={sum(op.seconds for op in ops):.4f} "
          f"op_ms_p50={statistics.median(op.seconds for op in ops) * 1e3:.4f} "
          f"setup_samples_s={json.dumps([round(t, 6) for t in raw_setups])}")
    for err in sorted(set(reference_errors)):
        print(f"# reference error: {err}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (matched / sum(seconds), "1/s"),
        "op_ms_p50": (statistics.median(seconds) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(seconds, n=10, method="inclusive")[8] * 1e3, "ms"),
        "pass_rate": (matched / len(ops), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    correct = unexpected == 0 and not reference_errors
    return correct, len(ops), failed, metrics


def traced_run(api, args, workload_cls):
    """Untraced and traced passes of the same inputs, in pairs, for up to --seconds."""
    import numpy as np

    plain_walls, traced_walls, times, counts_seen = [], [], [], []
    first_log, first_tracer = None, None
    same_failures = True
    start = time.perf_counter()
    while True:
        plain, plain_wall = fresh_pass(api, workload_cls, args.seed)
        tracer = Tracer()
        log, wall = fresh_pass(api, workload_cls, args.seed, tracer)
        counts, layer_times = tracer.summarize(np)
        counts.update(log.counts)
        plain_walls.append(plain_wall)
        traced_walls.append(wall)
        times.append(layer_times)
        counts_seen.append(json.dumps(counts, sort_keys=True))
        # Wrapper frames must not move the recursion limit onto other ops.
        same_failures &= [(o.ok, o.error) for o in plain.ops] == [(o.ok, o.error) for o in log.ops]
        if first_log is None:
            first_log, first_tracer = log, tracer
        if time.perf_counter() - start + plain_wall + wall > args.seconds:
            break

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    first_tracer.save(out / f"spans-{args.workload}-{args.seed}.npz", np)
    counts = json.loads(counts_seen[0])
    stable = all(c == counts_seen[0] for c in counts_seen)
    print(f"# counts {counts_seen[0]}")
    print(f"# traced_passes={len(counts_seen)} counts_identical_across_passes={stable} "
          f"same_failures_traced_vs_untraced={same_failures}")
    ops = first_log.ops
    failed = sum(not op.ok for op in ops)
    print(f"# ops={len(ops)} failures={failure_summary(ops)}")

    metrics = {name: (value, "count") for name, value in counts.items()}
    for name in times[0]:
        metrics[name] = (statistics.median(t[name] for t in times), "s")
    metrics["cleanup.append.dedup_share"] = (
        counts["cleanup.append.dedup_hits"] / max(counts["cleanup.append.calls"], 1), "ratio")
    metrics["evaluator.projections_recalled_share"] = (
        counts["evaluator.projections_recalled"] / max(counts["evaluator.projections"], 1), "ratio")
    metrics["trace.overhead"] = (statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    unexpected = sum(1 for op in ops if not op.ok and not op.known_defect)
    correct = stable and same_failures and unexpected == 0 and not first_log.reference_errors
    return correct, len(ops), failed, metrics


def setup_in_fresh_process(args) -> float:
    """Import plus set-up time measured in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Set-up: importing the library, parsing the inputs and building the first
    # session (and, on roundtrip, encoding the stores).  The inputs are
    # generated before the clock starts: that is the benchmark's work, not the
    # library's.  So is numpy's import (with calibrate.py): no commit of this
    # repository changes it, and it swings between about 0.1 and 0.2 s with
    # the machine's memory state, which would hide the library's own set-up.
    wl = WORKLOADS[args.workload](args.seed)
    t0 = time.perf_counter()
    api = load_api()
    wl.setup(api)
    setup0 = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup0}))
        return 0
    cal = Calibrator()
    cal.sample(SETUP_CHUNKS)

    print(f"# env {json.dumps(environment(api, args), sort_keys=True)}")
    if args.trace:
        correct, attempted, failed, metrics = traced_run(api, args, WORKLOADS[args.workload])
    else:
        correct, attempted, failed, metrics = timed_run(api, args, wl, setup0, cal)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
