"""Smoke test for the benchmark's workloads against the library under test.

The benchmark's workloads (``perfbench/workloads.py``) drive the library
through its public API: ``EvalSession``, ``codec.encode`` and
``codec.decode`` over a ``CleanupMemory``, the oracle and the CLI's result
comparison.  This test loads them by path, as ``test_tracer.py`` loads the
tracer, shrinks their inputs and runs one pass of each, so a library change
that breaks them fails here rather than in a benchmark run.  It also pins
where the session's collector runs: never on ``corpus``, ``recursion`` or
``roundtrip``, whose timed ops therefore never pay for it, and without
changing any answer on the generated REPL transcript.
"""
import importlib.util
import random
import sys
import types
from pathlib import Path

import pytest

from veclisp import cleanup, cli, codec, corpus, evaluator, hrr, oracle, reader


def load_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    module = load_workloads(monkeypatch)
    monkeypatch.setattr(module, "ROUNDTRIP_TREES", 6)
    monkeypatch.setattr(module, "LADDER", ((5, 1), (10, 1)))
    monkeypatch.setattr(module, "REPL_BLOCKS", 2)
    return module


@pytest.mark.parametrize("name", ["corpus", "recursion", "repl", "roundtrip"])
def test_one_pass_of_each_workload_runs_against_the_library(workloads, monkeypatch, name):
    api = types.SimpleNamespace(
        hrr=hrr, cleanup=cleanup, codec=codec, evaluator=evaluator, reader=reader, oracle=oracle,
        cli=cli, corpus=corpus, oracle_evaluate=oracle.evaluate,
    )
    if name == "repl":
        monkeypatch.setattr(workloads, "REPL_BLOCKS", 4)  # 40 lines: the table outgrows COLLECT_FLOOR
    workload = workloads.WORKLOADS[name](1)
    workload.setup(api)
    sessions = []
    if name != "roundtrip":
        new_session = workload.new_session
        monkeypatch.setattr(workload, "new_session", lambda: sessions.append(new_session()) or sessions[-1])
    log = workloads.PassLog()
    workload.run_pass(log)
    assert log.ops
    assert log.reference_errors == []
    assert [op.error for op in log.ops if not op.ok and not op.known_defect] == []
    # Only the REPL's table outgrows its live definitions; a LAST-10 call
    # passes COLLECT_FLOOR rows, but inside its last top-level expression.
    collections = sum(s.collections for s in sessions)
    assert collections >= 1 if name == "repl" else collections == 0


@pytest.mark.parametrize("seed", [1, 4])
def test_collection_changes_no_answer_step_or_branch_of_a_repl_transcript(monkeypatch, seed):
    lines = [reader.parse(line) for line in load_workloads(monkeypatch).repl_lines(random.Random(seed))]

    def transcript():
        session = evaluator.EvalSession()
        out = []
        for expr in lines:
            session.branch_log = []
            try:
                answer = reader.to_text(session.run(expr))
            except evaluator.EvalError as exc:
                answer = f"error: {exc}"
            out.append((answer, session.steps, session.branch_log))
        return out, session.collections

    collected, collections = transcript()
    monkeypatch.setattr(evaluator.EvalSession, "collect", lambda self: None)
    kept, _ = transcript()
    assert collections >= 1
    assert collected == kept
