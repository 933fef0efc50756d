"""Smoke test for the benchmark's span tracer.

The tracer (``perfbench/tracer.py``) wraps library functions by name.  A
rename or removal of any of them breaks every traced benchmark run; this
test installs the tracer over the library as the benchmark's ``run.py`` does
and runs one decode and one evaluation through it.
"""
import importlib.util
import types
from pathlib import Path

import numpy as np

from veclisp import cleanup, cli, codec, corpus, evaluator, hrr, oracle, reader


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def api_namespace():
    """The library namespace the benchmark hands its workloads (``run.load_api``)."""
    return types.SimpleNamespace(
        hrr=hrr, cleanup=cleanup, codec=codec, evaluator=evaluator, reader=reader, oracle=oracle,
        cli=cli, corpus=corpus, oracle_evaluate=oracle.evaluate,
    )


def test_tracer_wraps_the_library_and_summarizes_a_decode_and_a_run():
    tracing = load_tracer()
    api = api_namespace()
    originals = (codec.decode, hrr.bind, cleanup.CleanupMemory.activations, evaluator.EvalSession.car)
    tracer = tracing.Tracer()
    with tracer.installed(api):
        registry = api.hrr.AtomRegistry(512, seed=1)
        mem = api.cleanup.CleanupMemory(512)
        tree = api.reader.parse("((A . B) C (D . E))")
        v = api.codec.encode(tree, registry, mem)
        assert api.codec.decode(v, mem, registry, hrr.Thresholds()) == tree
        session = api.evaluator.EvalSession(api.evaluator.SessionConfig(dim=512))
        got = session.run(api.reader.parse("(CAR (CDR (QUOTE (A B C))))"))
        assert got == reader.Atom("B")
        # The codec and sessions bind in Fourier coordinates; the paper's
        # time-domain bind is still a traced entry point.
        a, b = registry.vector("A"), registry.vector("B")
        assert np.array_equal(api.hrr.bind(a, b), hrr.bind(b, a))
        # Decode names its leaves by bytes; the registry's scan is still a
        # traced entry point.
        assert registry.nearest(a + b)[0] in ("A", "B")
    assert (codec.decode, hrr.bind, cleanup.CleanupMemory.activations, evaluator.EvalSession.car) == originals

    counts, times = tracer.summarize(np)
    assert counts["codec.decode.calls"] == 1
    assert counts["codec.cons_vec.calls"] > 0
    assert counts["hrr.bind.calls"] > 0
    assert counts["hrr.similarity.calls"] > 0
    assert counts["hrr.registry.nearest.calls"] > 0
    assert counts["evaluator.projections"] > 0
    assert counts["reader.parse.calls"] == 2
    assert set(times) == set(tracing.SELF_TIME)
    assert all(t >= 0.0 for t in times.values())
