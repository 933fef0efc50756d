"""Span recorder for the benchmark's traced runs.

The tracer wraps public functions and methods of the veclisp modules from the
outside, for the length of one traced pass, and restores them afterwards.
Each wrapped call records one span: label, start, end, parent span and op id.
Spans stay in flat arrays in memory; the per-layer figures are computed from
them when the pass ends.  A few exact counts that a span cannot carry (rows a
scan covered, dedup outcomes) are recorded by the same wrappers.

Every wrapper adds one or two Python frames between caller and callee, and
only the leaf layers are wrapped, never the driver's recursive spine, so a
traced pass hits the interpreter's recursion limit on the same ops as an
untraced one.  The benchmark checks that it does.
"""
from __future__ import annotations

import array
import time
import weakref
from collections import Counter
from contextlib import contextmanager

# Labels whose span count is reported as the layer's call count.
CALL_LABELS = (
    "hrr.bind",
    "hrr.similarity",
    "hrr.registry.nearest",
    "cleanup.append",
    "cleanup.recall",
    "cleanup.activations",
    "codec.cons_vec",
    "codec.decode",
    "evaluator.relabel",
    "reader.parse",
    "oracle.evaluate",
)

# Per-layer self time: metric name -> span label.
SELF_TIME = {
    "hrr.bind.self_s": "hrr.bind",
    "hrr.similarity.self_s": "hrr.similarity",
    "hrr.registry.vector_s": "hrr.registry.draw",
    "hrr.registry.nearest.self_s": "hrr.registry.nearest",
    "cleanup.append.self_s": "cleanup.append",
    "cleanup.recall.self_s": "cleanup.recall",
    "cleanup.activations.self_s": "cleanup.activations",
    "codec.encode.self_s": "codec.encode",
    "codec.decode.self_s": "codec.decode",
    "evaluator.relabel.self_s": "evaluator.relabel",
    "evaluator.driver.self_s": "evaluator.run",
    "reader.parse.self_s": "reader.parse",
    "oracle.evaluate.self_s": "oracle.evaluate",
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter[str] = Counter()
        self._row_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, label, fn, pre=None, post=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``pre`` runs before the span opens and its value is handed to
        ``post``, which runs after a normal return.
        """
        lid = self._id(label)
        labels, parents, ops, starts, ends, stack = (
            self.label, self.parent, self.op, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            state = pre(*args, **kwargs) if pre is not None else None
            i = len(labels)
            labels.append(lid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                post(state, result, *args, **kwargs)
            return result

        return traced

    # -- wrappers with exact counts ---------------------------------------------

    def _append(self, orig):
        counts, keys = self.counts, self._row_keys

        def pre(mem, t, *, dedup=True):
            return len(mem)

        def post(m0, result, mem, t, *, dedup=True):
            stored = keys.setdefault(mem, set())
            if dedup and m0:
                counts["cleanup.append.rows_scanned"] += m0
            if len(mem) > m0:
                stored.add(t.tobytes())
            elif dedup:
                counts["cleanup.append.dedup_hits"] += 1
                if t.tobytes() in stored:
                    counts["cleanup.append.exact_hits"] += 1

        return self.wrap("cleanup.append", orig, pre, post)

    def _recall(self, orig):
        counts = self.counts

        def pre(mem, p):
            counts["cleanup.recall.rows_scanned"] += len(mem)

        return self.wrap("cleanup.recall", orig, pre)

    def _activations(self, orig):
        """Activation scans outside a recall; those inside belong to the recall."""
        counts, labels, stack = self.counts, self.labels, self.stack
        label_of = self.label

        def pre(mem, p):
            counts["cleanup.activations.rows_scanned"] += len(mem)

        traced = self.wrap("cleanup.activations", orig, pre)

        def activations(mem, p):
            top = stack[-1]
            if top >= 0 and labels[label_of[top]] == "cleanup.recall":
                return orig(mem, p)
            return traced(mem, p)

        return activations

    def _vector(self, orig):
        """Registry lookups: a span only for calls that draw a new atom."""
        traced = self.wrap("hrr.registry.draw", orig)

        def vector(registry, name):
            if name in registry:
                return orig(registry, name)
            return traced(registry, name)

        return vector

    # -- installation -----------------------------------------------------------

    @contextmanager
    def installed(self, api):
        """Patch the library's entry points for the duration of the block."""
        ev = api.evaluator.EvalSession
        mem = api.cleanup.CleanupMemory
        reg = api.hrr.AtomRegistry
        targets = [
            (api.hrr, "bind", lambda f: self.wrap("hrr.bind", f)),
            (api.hrr, "similarity", lambda f: self.wrap("hrr.similarity", f)),
            (reg, "vector", self._vector),
            (reg, "nearest", lambda f: self.wrap("hrr.registry.nearest", f)),
            (mem, "append", self._append),
            (mem, "recall", self._recall),
            (mem, "activations", self._activations),
            (api.codec, "cons_vec", lambda f: self.wrap("codec.cons_vec", f)),
            (api.codec, "encode", lambda f: self.wrap("codec.encode", f)),
            (api.codec, "decode", lambda f: self.wrap("codec.decode", f)),
            (ev, "run", lambda f: self.wrap("evaluator.run", f)),
            (ev, "car", lambda f: self.wrap("evaluator.projection", f)),
            (ev, "cdr", lambda f: self.wrap("evaluator.projection", f)),
            (ev, "relabel", lambda f: self.wrap("evaluator.relabel", f)),
            (api.reader, "parse", lambda f: self.wrap("reader.parse", f)),
            # Top-level oracle calls only: the oracle's own recursion goes
            # through its module global, which stays unwrapped.
            (api, "oracle_evaluate", lambda f: self.wrap("oracle.evaluate", f)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, make in targets:
                setattr(owner, attr, make(getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def summarize(self, np) -> tuple[dict[str, int], dict[str, float]]:
        """Exact counts and per-layer self times (seconds) from the spans."""
        n = len(self.label)
        label, parent = np.asarray(self.label), np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_time = np.bincount(label, weights=dur - child, minlength=len(self.labels))
        calls = np.bincount(label, minlength=len(self.labels))

        ids = self._label_ids  # every label is registered when the wrappers are made
        counts = dict(self.counts)
        for lab in CALL_LABELS:
            counts[f"{lab}.calls"] = int(calls[ids[lab]])
        counts["hrr.registry.draws"] = int(calls[ids["hrr.registry.draw"]])
        counts["evaluator.projections"] = int(calls[ids["evaluator.projection"]])
        # A projection reached cleanup when a recall span sits directly under it.
        under = parent[(label == ids["cleanup.recall"]) & nested]
        counts["evaluator.projections_recalled"] = int(np.unique(under[label[under] == ids["evaluator.projection"]]).size)
        for key in ("cleanup.append.rows_scanned", "cleanup.append.dedup_hits", "cleanup.append.exact_hits",
                    "cleanup.recall.rows_scanned", "cleanup.activations.rows_scanned"):
            counts.setdefault(key, 0)
        times = {metric: float(self_time[ids[lab]]) for metric, lab in SELF_TIME.items()}
        return counts, times

    def save(self, path, np) -> None:
        """Write the raw spans as a compressed npz archive."""
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            label=np.asarray(self.label),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
