"""Smoke test for the benchmark's workloads against the library under test.

The benchmark's workloads (``perfbench/workloads.py``) drive the library
through its public API: ``EvalSession``, ``codec.encode`` and
``codec.decode`` over a ``CleanupMemory``, the oracle and the CLI's result
comparison.  This test loads them by path, as ``test_tracer.py`` loads the
tracer, shrinks their inputs and runs one pass of each, so a library change
that breaks them fails here rather than in a benchmark run.
"""
import importlib.util
import sys
import types
from pathlib import Path

import pytest

from veclisp import cleanup, cli, codec, corpus, evaluator, hrr, oracle, reader


@pytest.fixture
def workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROUNDTRIP_TREES", 6)
    monkeypatch.setattr(module, "LADDER", ((5, 1), (10, 1)))
    monkeypatch.setattr(module, "REPL_BLOCKS", 2)
    return module


@pytest.mark.parametrize("name", ["corpus", "recursion", "repl", "roundtrip"])
def test_one_pass_of_each_workload_runs_against_the_library(workloads, name):
    api = types.SimpleNamespace(
        hrr=hrr, cleanup=cleanup, codec=codec, evaluator=evaluator, reader=reader, oracle=oracle,
        cli=cli, corpus=corpus, oracle_evaluate=oracle.evaluate,
    )
    workload = workloads.WORKLOADS[name](1)
    workload.setup(api)
    log = workloads.PassLog()
    workload.run_pass(log)
    assert log.ops
    assert log.reference_errors == []
    assert [op.error for op in log.ops if not op.ok and not op.known_defect] == []
