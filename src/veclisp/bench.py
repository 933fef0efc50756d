"""Benchmarks emitting deterministic tab-separated reports.

Every report starts with a comment block of key=value lines capturing the full
configuration, so identical configurations diff clean.  The two benches:
``capacity`` (recall accuracy versus trace count per memory kind) and
``kanerva`` (the permutation-based list encoding and its self-retrieval flaw).
"""
from __future__ import annotations

import numpy as np

from . import hrr
from .cleanup import CleanupMemory, ConvergenceError
from .evaluator import SessionConfig
from .hrr import Permutation

__all__ = ["BENCH_KINDS", "run_capacity", "run_kanerva", "run_bench"]

BENCH_KINDS = ("capacity", "kanerva")

CAPACITY_MEMORY_KINDS = ("lookup", "mhn", "minerva2", "hopfield", "grossberg")
CAPACITY_COUNTS = (16, 64, 256, 1024, 10000)
CAPACITY_PROBES = 64
KANERVA_LISTS = 50


def _header(kind: str, config: SessionConfig, extra: dict[str, object]) -> list[str]:
    lines = ["# veclisp bench report", f"# bench={kind}"]
    fields = {
        "dim": config.dim,
        "seed": config.seed,
        "theta_up": config.theta_up,
        "theta_down": config.theta_down,
        "memory_kind": config.memory_kind,
        "beta": config.beta,
        "rho": config.rho,
        "step_limit": config.step_limit,
    }
    fields.update(extra)
    lines.extend(f"# {key}={value}" for key, value in fields.items())
    return lines


def _unit_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    rows = rng.normal(0.0, 1.0 / np.sqrt(n), (m, n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def run_capacity(
    config: SessionConfig,
    counts: tuple[int, ...] = CAPACITY_COUNTS,
    kinds: tuple[str, ...] = CAPACITY_MEMORY_KINDS,
    probes: int = CAPACITY_PROBES,
) -> str:
    """Clean-probe recall accuracy for each memory kind at growing store sizes."""
    lines = _header("capacity", config, {"counts": ",".join(map(str, counts)), "probes": probes})
    lines.append("kind\trows\tdim\tprobes\tcorrect\taccuracy")
    for d in counts:
        rng = np.random.default_rng((config.seed, d))
        rows = _unit_rows(rng, d, config.dim)
        row_norms = np.linalg.norm(rows, axis=1)
        targets = rng.choice(d, size=min(probes, d), replace=False)
        for kind in kinds:
            mem = CleanupMemory(config.dim, kind, beta=config.beta, rho=config.rho)
            mem.extend(rows)
            correct = 0
            for idx in targets:
                probe = rows[idx]
                try:
                    out = mem.recall(probe)
                except ConvergenceError:
                    continue
                if kind == "grossberg":
                    # The logistic squash rides on a 0.5 offset; compare around it.
                    out = out - 0.5
                sims = rows @ out / (row_norms * np.linalg.norm(out))
                if int(np.argmax(sims)) == int(idx):
                    correct += 1
            total = len(targets)
            lines.append(f"{kind}\t{d}\t{config.dim}\t{total}\t{correct}\t{correct / total:.6f}")
    return "\n".join(lines) + "\n"


def run_kanerva(config: SessionConfig, list_count: int = KANERVA_LISTS) -> str:
    """Permutation-encoded lists: every stored sublist is its own best match.

    Lists here are built as head + permuted tail, with each sublist stored in
    the cleanup memory so nested structure could be recovered.  The recall that
    is supposed to give the head of a stored list instead returns the list
    itself, because a stored vector is always most similar to its own row.
    """
    perm = Permutation(config.dim, config.seed)
    rng = np.random.default_rng((config.seed, "kanerva".encode()))

    heads = _unit_rows(rng, list_count, config.dim)
    nil = _unit_rows(rng, 1, config.dim)[0]
    sublists = []
    current = nil
    for k in range(list_count):
        current = heads[k] + perm.forward(current)
        sublists.append(current / np.linalg.norm(current))

    store = np.vstack([heads, nil[None, :], np.vstack(sublists)])
    store_norms = np.linalg.norm(store, axis=1)
    first_sub = list_count + 1

    lines = _header("kanerva", config, {"lists": list_count})
    lines.append("list\tlength\tself_nn\tsim_self\tbest_other\tsim_head")
    self_hits = 0
    for k, sub in enumerate(sublists):
        sims = store @ sub / store_norms
        own = first_sub + k
        best = int(np.argmax(sims))
        others = np.delete(sims, own)
        hit = 1 if best == own else 0
        self_hits += hit
        head_sim = hrr.similarity(sub, heads[k])
        lines.append(
            f"{k}\t{k + 1}\t{hit}\t{sims[own]:.6f}\t{others.max():.6f}\t{head_sim:.6f}"
        )
    lines.append(f"# self_retrieval_rate={self_hits / list_count:.6f}")
    return "\n".join(lines) + "\n"


def run_bench(kind: str, config: SessionConfig) -> str:
    if kind == "capacity":
        return run_capacity(config)
    if kind == "kanerva":
        return run_kanerva(config)
    raise ValueError(f"unknown bench kind {kind!r}")
