"""The benchmark's four workloads and their seeded input generators.

Generators are pure Python and depend only on the workload seed; the library
receives nothing but the generated source text.  Every op is closed loop:
one client, each op waits for the previous one.  Op time covers the vector
side only (``EvalSession.run``, or ``codec.decode`` on ``roundtrip``); the
reference check runs outside it.

A workload object generates its inputs from the seed in ``__init__``,
without the library; ``setup`` takes the library, parses the inputs and
builds the first session (or, on ``roundtrip``, the shared stores); and
``run_pass`` runs one pass over all the ops.  Passes are identical, so
same-seed passes do identical work.
"""
from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass, field

LAST_SOURCE = "(DEFINE LAST (LAMBDA (P) (COND ((ATOM (CDR P)) . (CAR P)) ((QUOTE T) . ((LAST (CDR P)))))))"
# (list length, lists) over ROADMAP's range for recursion scaling.  The
# median op is the middle list of the middle rung, which gets the most lists
# and has as many lists below it as above, and a pass visits the rungs in
# rounds, so the median is not one short slow moment.
# The top rung crosses the interpreter's recursion limit today; that failure,
# which costs as much as the rest of the ladder, is part of the measurement.
LADDER = ((5, 2), (10, 2), (20, 5), (40, 3), (80, 1))
# Line kinds of one block of ten repl lines; a session is 20 blocks, 200 lines.
REPL_BLOCK = (("define", 2), ("call", 3), ("list", 2), ("proj", 2), ("eq", 1))
REPL_BLOCKS = 20
ROUNDTRIP_TREES = 200
ROUNDTRIP_STORES = 2
# The leaf names of the acceptance round-trip test.
ROUNDTRIP_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H", "J", "K")
ROUNDTRIP_DEPTH = 5
SIZE_SEED = 1729  # the acceptance suite's seed

RESERVED = {"CONS", "CAR", "CDR", "EQ", "ATOM", "QUOTE", "COND", "DEFINE", "LAMBDA", "NIL", "T", "F", "P", "LAST"}


@dataclass
class OpRecord:
    seconds: float
    ok: bool
    error: str | None  # exception type name, "wrong" for a wrong answer, None when ok
    known_defect: bool  # a failure of a class the seed is known to have


@dataclass
class PassLog:
    """What one pass did: per-op records plus exact session-level counts."""

    ops: list[OpRecord] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # perf_counter at each op's begin_op
    counts: dict[str, int] = field(default_factory=lambda: {"evaluator.steps": 0, "cleanup.rows_end": 0,
                                                            "evaluator.fns_rows": 0})
    reference_errors: list[str] = field(default_factory=list)
    tracer: object | None = None
    between_ops: object | None = None  # called before each op, outside op time

    def begin_op(self) -> None:
        if self.between_ops is not None:
            self.between_ops()
        self.starts.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops)

    def add(self, seconds: float, ok: bool, error: str | None, known_defect: bool = False) -> None:
        self.ops.append(OpRecord(seconds, ok, None if ok else error, known_defect and not ok))

    def end_session(self, session) -> None:
        self.counts["cleanup.rows_end"] += len(session.mem)
        self.counts["evaluator.fns_rows"] += len(session.fns)


def timed(fn, *args):
    """Run one op; a raised exception is a result here, not a crash."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # the op boundary: every failure is counted, none stops the run
        return None, time.perf_counter() - t0, exc
    return out, time.perf_counter() - t0, None


class FreshNames:
    """Seeded source of distinct atom names that no builtin or template uses."""

    def __init__(self, rng: random.Random, prefix: str) -> None:
        self.rng = rng
        self.prefix = prefix
        self.used: set[str] = set()

    def __call__(self) -> str:
        while True:
            name = self.prefix + "".join(self.rng.choices(string.ascii_uppercase + string.digits, k=5))
            if name not in self.used and name not in RESERVED:
                self.used.add(name)
                return name


class _EvalWorkload:
    """Shared plumbing for workloads that run ``EvalSession`` against the oracle."""

    def __init__(self, seed: int) -> None:
        pass

    def setup(self, api) -> None:
        self.api = api
        self.new_session()

    def new_session(self):
        return self.api.evaluator.EvalSession(self.api.evaluator.SessionConfig())

    def checked(self, log: PassLog, session, env, expr, known=()) -> object:
        """One op: the vector side timed, then the oracle on the same expression."""
        log.begin_op()
        got, seconds, exc = timed(session.run, expr)
        log.counts["evaluator.steps"] += session.steps
        env.steps = 0
        try:
            ref, ref_exc = self.api.oracle_evaluate(expr, env), None
        except self.api.oracle.OracleError as oexc:
            ref, ref_exc = None, oexc
        if exc is None and ref_exc is None:
            ok, error = self.api.cli._same_result(got, ref), "wrong"
        else:
            # Both sides rejecting the expression is agreement, as in the CLI.
            ok = exc is not None and ref_exc is not None
            error = type(exc).__name__ if exc is not None else "wrong"
        log.add(seconds, ok, error, isinstance(exc, known))
        return ref


class Corpus(_EvalWorkload):
    """All bundled programs, each in a fresh default session.  The seed is unused."""

    def setup(self, api) -> None:
        self.programs = [[api.reader.parse(src) for src in srcs] for _, srcs in api.corpus.PROGRAMS]
        super().setup(api)

    def run_pass(self, log: PassLog) -> None:
        for exprs in self.programs:
            session, env = self.new_session(), self.api.oracle.OracleEnv()
            for expr in exprs:
                self.checked(log, session, env, expr)
            log.end_session(session)


class Recursion(_EvalWorkload):
    """``LAST`` over lists of fresh atoms, a ladder of lengths, one fresh session per list."""

    def __init__(self, seed: int) -> None:
        fresh = FreshNames(random.Random(seed), "R")
        rounds = max(lists for _, lists in LADDER)
        self.lists = [[fresh() for _ in range(n)] for r in range(rounds) for n, lists in LADDER if r < lists]

    def setup(self, api) -> None:
        self.define = api.reader.parse(LAST_SOURCE)
        self.calls = [api.reader.parse(f"((LAST (QUOTE ({' '.join(items)}))))") for items in self.lists]
        super().setup(api)

    def run_pass(self, log: PassLog) -> None:
        Atom = self.api.reader.Atom
        done = Atom(self.api.codec.DONE_NAME)
        for items, call in zip(self.lists, self.calls):
            session, env = self.new_session(), self.api.oracle.OracleEnv()
            if session.run(self.define) != done or self.api.oracle_evaluate(self.define, env) != done:
                log.reference_errors.append("LAST definition did not return #DONE")
            ref = self.checked(log, session, env, call, known=(RecursionError,))
            if ref != Atom(items[-1]):
                log.reference_errors.append(f"oracle LAST-{len(items)} returned {ref!r}")
            log.end_session(session)


class Repl(_EvalWorkload):
    """One long session of generated lines, checked against one shared oracle env."""

    def __init__(self, seed: int) -> None:
        self.lines = repl_lines(random.Random(seed))

    def setup(self, api) -> None:
        self.exprs = [api.reader.parse(line) for line in self.lines]
        super().setup(api)

    def run_pass(self, log: PassLog) -> None:
        session, env = self.new_session(), self.api.oracle.OracleEnv()
        for expr in self.exprs:
            self.checked(log, session, env, expr)
        log.end_session(session)


# One-parameter function bodies for the repl workload, each with the shape of
# argument its calls pass.  {a} is a fresh atom baked into the definition.
REPL_BODIES = (
    ("(CONS (QUOTE {a}) (CONS P ()))", "atom"),
    ("(CONS P (QUOTE {a}))", "list2"),
    ("(CAR (CDR P))", "list3"),
    ("(COND ((ATOM P) . (QUOTE {a})) ((QUOTE T) . (CAR P)))", "either"),
)


def repl_lines(rng: random.Random) -> list[str]:
    """Seeded REPL transcript: definitions, calls, list building, projections, EQ.

    The mix of line kinds in every block of ten lines is fixed and the seed
    only shuffles the order within a block.  Definitions take the function
    bodies in turn, the n-th call goes to a function with the n-th body in
    turn, and projection templates and equal or unequal EQ pairs alternate
    too.  So a seed changes the lines, the atoms and which function is
    called, not how much of each kind of work a pass does nor, since latency
    climbs with the session's memory, how late in the session it comes.
    """
    fresh = FreshNames(rng, "K")
    kinds = []
    for _ in range(REPL_BLOCKS):
        block = [kind for kind, count in REPL_BLOCK for _ in range(count)]
        rng.shuffle(block)
        kinds.extend(block)
    kinds.insert(0, kinds.pop(kinds.index("define")))
    defined: list[tuple[str, int]] = []  # (name, body index)
    seen = dict.fromkeys(("define", "call", "either", "proj", "eq"), 0)
    lines = []

    def turn(key: str) -> int:
        seen[key] += 1
        return seen[key] - 1

    def arg(shape: str) -> str:
        if shape == "either":
            shape = ("atom", "list3")[turn("either") % 2]
        if shape == "atom":
            return fresh()
        return "(" + " ".join(fresh() for _ in range(2 if shape == "list2" else 3)) + ")"

    for kind in kinds:
        if kind == "define":
            i = turn("define") % len(REPL_BODIES)
            name = fresh()
            defined.append((name, i))
            lines.append(f"(DEFINE {name} (LAMBDA (P) {REPL_BODIES[i][0].format(a=fresh())}))")
        elif kind == "call":
            i = turn("call") % len(REPL_BODIES)
            name, i = rng.choice([d for d in defined if d[1] == i] or defined)
            lines.append(f"(({name} (QUOTE {arg(REPL_BODIES[i][1])})))")
        elif kind == "list":
            a, b, c = fresh(), fresh(), fresh()
            lines.append(f"(CONS (QUOTE {a}) (CONS (QUOTE {b}) (CONS (QUOTE {c}) ())))")
        elif kind == "proj":
            a, b, c = fresh(), fresh(), fresh()
            lines.append((
                f"(CAR (CDR (QUOTE ({a} {b} {c}))))",
                f"(CDR (QUOTE ({a} {b})))",
                f"(CAR (CAR (QUOTE (({a} {b}) {c}))))",
            )[turn("proj") % 3])
        else:
            a = fresh()
            b = fresh() if turn("eq") % 2 else a
            lines.append(f"(EQ (QUOTE {a}) (QUOTE {b}))")
    return lines


def tree_text(rng: random.Random, names: tuple[str, ...], depth: int) -> str:
    """A random dotted tree with the shape of the acceptance round-trip generator."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names)
    return f"({tree_text(rng, names, depth - 1)} . {tree_text(rng, names, depth - 1)})"


def sized_trees(rng: random.Random, count: int) -> list[str]:
    """Seeded trees whose sizes follow one fixed sequence.

    Decode time grows with a tree's pair count, and the median of a few
    hundred draws from the generator jumps between size classes from seed to
    seed.  So the pair counts come from the generator under a fixed seed, and
    each seeded tree is drawn from the same generator until it has the pair
    count asked for: shapes and leaves change with the seed, the size mix
    does not.
    """
    sizer = random.Random(SIZE_SEED)
    out = []
    for _ in range(count):
        pairs = tree_text(sizer, ROUNDTRIP_NAMES, ROUNDTRIP_DEPTH).count("(")
        while True:
            text = tree_text(rng, ROUNDTRIP_NAMES, ROUNDTRIP_DEPTH)
            if text.count("(") == pairs:
                out.append(text)
                break
    return out


class Roundtrip:
    """Encode seeded trees into shared lookup stores, then decode each one.

    Each store holds ``ROUNDTRIP_TREES`` trees, the size whose miss rate the
    seed shows; the run decodes from several such stores so that the miss
    rate it reports is not the luck of one store.
    """

    def __init__(self, seed: int) -> None:
        texts = sized_trees(random.Random(seed), ROUNDTRIP_TREES * ROUNDTRIP_STORES)
        self.texts = [texts[i::ROUNDTRIP_STORES] for i in range(ROUNDTRIP_STORES)]

    def setup(self, api) -> None:
        self.api = api
        config = api.evaluator.SessionConfig()
        self.registry = api.hrr.AtomRegistry(config.dim, config.seed)
        self.thresholds = api.hrr.Thresholds(config.theta_up, config.theta_down)
        self.stores = []
        for texts in self.texts:
            store = api.cleanup.CleanupMemory(config.dim, "lookup")
            trees = [api.reader.parse(text) for text in texts]
            vectors = [api.codec.encode(tree, self.registry, store) for tree in trees]
            self.stores.append((store, trees, vectors))

    def run_pass(self, log: PassLog) -> None:
        decode, DecodeError = self.api.codec.decode, self.api.codec.DecodeError
        for store, trees, vectors in self.stores:
            for tree, vec in zip(trees, vectors):
                log.begin_op()
                got, seconds, exc = timed(decode, vec, store, self.registry, self.thresholds)
                ok = exc is None and got == tree
                # A wrong tree or a decode divergence is the shared store's known miss.
                log.add(seconds, ok, "wrong" if exc is None else type(exc).__name__,
                        exc is None or isinstance(exc, DecodeError))
            log.counts["cleanup.rows_end"] += len(store)


WORKLOADS = {"corpus": Corpus, "recursion": Recursion, "repl": Repl, "roundtrip": Roundtrip}
