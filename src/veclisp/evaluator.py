"""The vector evaluator: Lisp evaluation as algebra on high-dimensional vectors.

Every operation here works on encoded vectors.  Branching is expressed with the
saturating lazy cascade: each alternative is a deferred computation scaled by a
guard similarity, and an alternative whose guard is already below theta_down is
never forced.  Pair halves flow through the session's cleanup memory, function
definitions through a second lookup store keyed by bound names.

A session owns the registry, both memories, the reserved tags and the step
budget; REPL lines share one session so definitions and stored pairs persist.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from . import codec, hrr, reader
from .cleanup import CleanupMemory
from .codec import TagSet
from .hrr import AtomRegistry, Thresholds, Vector
from .reader import Atom, Pair, SExpr

__all__ = [
    "BUILTIN_ORDER",
    "SessionConfig",
    "EvalSession",
    "FnNamespace",
    "EvalError",
    "BudgetExceeded",
]

BUILTIN_ORDER = ("CONS", "CAR", "CDR", "EQ", "ATOM", "QUOTE", "COND", "DEFINE")
LAMBDA_NAME = "LAMBDA"


class EvalError(RuntimeError):
    """Evaluation failed in a way the algebra defines as an error."""


class BudgetExceeded(EvalError):
    """The driver ran out of steps, or of Python stack depth."""


@dataclass(frozen=True)
class SessionConfig:
    dim: int = 2048
    seed: int = 1729
    theta_up: float = 0.8
    theta_down: float = 0.2
    memory_kind: str = "lookup"
    beta: float = 1000.0
    gamma: float = 1000.0
    alpha: float = 1.0
    eta: float = 0.1
    rho: int | float = 3
    max_iters: int = 100
    tol: float = 1e-6
    step_limit: int = 100_000


class FnNamespace:
    """Definition store: rows are cons(name, body) vectors, names stay unique."""

    def __init__(self, dim: int) -> None:
        self.store = CleanupMemory(dim, "lookup")
        self._names: list[Vector] = []

    def __len__(self) -> int:
        return len(self._names)

    def define(self, name: Vector, entry: Vector) -> None:
        for i, known in enumerate(self._names):
            if hrr.similarity(name, known) >= 0.99:
                self.store.set_row(i, entry)
                self._names[i] = name
                return
        self.store.append(entry, dedup=False)
        self._names.append(name)


class EvalSession:
    """One evaluation context: registry, tag set, pair memory, definitions."""

    def __init__(self, config: SessionConfig | None = None) -> None:
        self.config = config or SessionConfig()
        c = self.config
        self.thresholds = Thresholds(c.theta_up, c.theta_down)
        self.registry = AtomRegistry(c.dim, c.seed)
        self.tags = TagSet.from_registry(self.registry)
        self.mem = CleanupMemory(
            c.dim,
            c.memory_kind,
            beta=c.beta,
            gamma=c.gamma,
            alpha=c.alpha,
            eta=c.eta,
            rho=c.rho,
            max_iters=c.max_iters,
            tol=c.tol,
        )
        # T and F back every truth test, NIL every empty-tail probe.
        self.mem.append(self.tags.nil)
        self.mem.append(self.tags.true)
        self.mem.append(self.tags.false)
        self.fns = FnNamespace(c.dim)
        self.steps = 0
        self.branch_log: list[tuple[str, object]] | None = None
        self.trace_sink: Callable[[str], None] | None = None
        self._gensym_counter = 0
        self._builtin_vectors = [self.registry.vector(n) for n in BUILTIN_ORDER]
        # Construction shadow: every vector the session builds from known
        # structure remembers that structure.  Relabeling fills memory with
        # near-twin rows (old and renamed bodies differ in one deep leaf, so
        # their cosine sits inside recall noise); projections consult the
        # shadow first and fall back to cleanup recall for vectors born from
        # blends or probes.  Produced vectors are bit-identical either way.
        # ``_trees`` maps the hash of a vector's bytes to the (vector, tree)
        # entries with that hash; a vector is known only when bitwise equal to
        # one held there.  ``_held`` maps the id of each held vector to its
        # tree: held vectors stay alive and read-only, so an id found there
        # names the same bytes, and most lookups pass the held object itself.
        self._trees: dict[int, list[tuple[Vector, SExpr]]] = {}
        self._held: dict[int, SExpr] = {}
        self._vecs: dict[SExpr, Vector] = {}
        for nm in ("NIL", "T", "F", codec.DONE_NAME):
            self._remember(self.registry.vector(nm), Atom(nm))

    # -- plumbing -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.config.dim

    def _known(self, v: Vector) -> SExpr | None:
        """The tree behind a vector bitwise equal to ``v``, if the session built one."""
        tree = self._held.get(id(v))
        if tree is not None:
            return tree
        raw = v.tobytes()
        for held, tree in self._trees.get(hash(raw), ()):
            if held.tobytes() == raw:
                return tree
        return None

    def _remember(self, v: Vector, tree: SExpr) -> None:
        """Record ``v``'s tree unless a bitwise-equal vector is already known."""
        raw = v.tobytes()
        bucket = self._trees.setdefault(hash(raw), [])
        if all(held.tobytes() != raw for held, _ in bucket):
            # The shadow holds ``v`` itself, so an in-place write must fail.
            v.flags.writeable = False
            bucket.append((v, tree))
            self._held[id(v)] = tree

    def is_atomic(self, v: Vector) -> bool:
        return codec.is_atomic_vec(v, self.tags, self.thresholds)

    def encode(self, e: SExpr) -> Vector:
        v = self._vecs.get(e)
        if v is not None:
            return v
        if isinstance(e, Atom):
            v = self.registry.vector(e.name)
            self._remember(v, e)
        else:
            v = self.cons(self.encode(e.left), self.encode(e.right))
        self._vecs[e] = v
        return v

    def decode(self, v: Vector) -> SExpr:
        known = self._known(v)
        if known is not None:
            return known
        return codec.decode(v, self.mem, self.registry, self.thresholds)

    def _log(self, family: str, which: object) -> None:
        if self.branch_log is not None:
            self.branch_log.append((family, which))

    def _tick(self) -> None:
        if self.steps >= self.config.step_limit:
            raise BudgetExceeded("evaluation budget exhausted")
        self.steps += 1

    def _gensym(self) -> str:
        self._gensym_counter += 1
        return f"{codec.GENSYM_PREFIX}{self._gensym_counter}"

    def _is_nil(self, v: Vector) -> bool:
        return hrr.similarity(v, self.tags.nil) >= self.thresholds.theta_up

    # -- structural operations --------------------------------------------------

    def cons(self, a: Vector, b: Vector) -> Vector:
        v = codec.cons_vec(a, b, self.tags, self.mem)
        ta = self._known(a)
        tb = self._known(b)
        if ta is not None and tb is not None:
            tree = Pair(ta, tb)
            self._remember(v, tree)
            self._vecs.setdefault(tree, v)
        return v

    def car(self, c: Vector) -> Vector:
        t = self._known(c)
        if isinstance(t, Pair):
            return self.encode(t.left)
        return self.mem.recall(self.tags.unbind(self.tags.left, c))

    def cdr(self, c: Vector) -> Vector:
        t = self._known(c)
        if isinstance(t, Pair):
            return self.encode(t.right)
        return self.mem.recall(self.tags.unbind(self.tags.right, c))

    def eq(self, a: Vector, b: Vector) -> Vector:
        s = hrr.similarity(a, b)
        return s * self.tags.true + (1.0 - s) * self.tags.false

    def atom(self, a: Vector, n: Vector) -> Vector:
        """Atom test; ``n`` is the call tail and anything non-NIL poisons it to F."""
        t = self.thresholds
        s_a = hrr.similarity(a, self.tags.phi)
        blend = s_a * self.tags.false + max(0.0, 2.0 * t.theta_down - s_a) * self.tags.true
        cleaned = self.mem.recall(blend)
        s_n = hrr.similarity(n, self.tags.nil)
        return s_n * cleaned + max(0.0, 2.0 * t.theta_down - s_n) * self.tags.false

    def quote(self, e: Vector) -> Vector:
        return e

    def define(self, name: Vector, body: Vector) -> Vector:
        if not self.is_atomic(name):
            raise EvalError("define requires an atomic name")
        entry = self.cons(name, body)
        self.fns.define(name, entry)
        return self.tags.done

    def truthy(self, v: Vector) -> bool:
        return hrr.similarity(v, self.tags.true) > hrr.similarity(v, self.tags.false)

    # -- conditionals ------------------------------------------------------------

    def cond_eval(self, r: Vector) -> Vector:
        """First clause whose evaluated condition is T-similar wins, lazily.

        The clauses are walked in a loop, not by recursion, so a fall-through
        costs no stack frame.
        """

        def take(clause: Vector) -> Vector:
            self._log("cond", "take")
            return self.eval_vec(self.cdr(clause))

        def clauses() -> Iterator[tuple[Callable[[], float], Callable[[], Vector]]]:
            rest = r
            while not self._is_nil(rest):
                clause = self.car(rest)
                gate = hrr.similarity(self.eval_vec(self.car(clause)), self.tags.true)
                # Both thunks bind this clause's values now; ``partial`` also
                # keeps the recursion through the clause body to one frame.
                yield (lambda g=gate: g), partial(take, clause)
                self._log("cond", "next")
                rest = self.cdr(rest)

        def exhausted() -> Vector:
            raise EvalError("cond exhausted")

        return hrr.cascade(clauses(), exhausted, self.thresholds)

    # -- lambda machinery ----------------------------------------------------------

    def relabel(self, x: Vector, e: Vector) -> tuple[Vector, Vector]:
        """Swap every parameter for a fresh reserved atom throughout the body."""
        if self._is_nil(x):
            return self.tags.nil, e
        params = self.decode(x)
        names: list[str] = []
        cur: SExpr = params
        while isinstance(cur, Pair):
            if not isinstance(cur.left, Atom):
                raise EvalError("relabel: parameters must be atoms")
            names.append(cur.left.name)
            cur = cur.right
        if cur != reader.NIL or not names:
            raise EvalError("relabel: parameter list must be a proper list of atoms")
        if len(set(names)) != len(names):
            raise EvalError("relabel: duplicate parameter name")
        mapping = {nm: self._gensym() for nm in names}
        body = _rename_atoms(self.decode(e), mapping)
        fresh: SExpr = reader.NIL
        for nm in reversed(names):
            fresh = Pair(Atom(mapping[nm]), fresh)
        return self.encode(fresh), self.encode(body)

    def _lambda_expr(self, x: Vector, e: Vector) -> Vector:
        lam = self.registry.vector(LAMBDA_NAME)
        return self.cons(lam, self.cons(x, self.cons(e, self.tags.nil)))

    def lambda_apply(self, lam: Vector, a: Vector) -> Vector:
        """Apply a lambda vector to an argument list vector.

        A lambda without the relabel marker is relabeled, marked and re-applied.
        After that: exhausted parameters yield the body, an empty body yields
        NIL, and otherwise one parameter is substituted away and a lambda over
        the remaining parameters is built.
        """
        fresh = hrr.similarity(lam, self.tags.rho) < self.thresholds.theta_down
        params = _once(lambda: self.car(self.cdr(lam)))
        body = _once(lambda: self.car(self.cdr(self.cdr(lam))))

        def relabel_and_retry() -> Vector:
            self._log("apply", "relabel")
            y, e2 = self.relabel(params(), body())
            base = self._lambda_expr(y, e2)
            marked = base + self.tags.rho
            known = self._known(base)
            if known is not None:
                self._remember(marked, known)
            return self.lambda_apply(marked, a)

        def params_done() -> Vector:
            self._log("apply", "params-done")
            return body()

        def body_nil() -> Vector:
            self._log("apply", "body-nil")
            return self.tags.nil

        def curry() -> Vector:
            self._log("apply", "curry")
            new_body = self.lambda_subst(params(), body(), a)
            return self._lambda_expr(self.cdr(params()), new_body)

        return hrr.cascade(
            [
                (lambda: 1.0 if fresh else 0.0, relabel_and_retry),
                (lambda: hrr.similarity(params(), self.tags.nil), params_done),
                (lambda: hrr.similarity(body(), self.tags.nil), body_nil),
            ],
            curry,
            self.thresholds,
        )

    def lambda_subst(self, x: Vector, e: Vector, a: Vector) -> Vector:
        """Structural substitution of the first parameter's value through ``e``."""
        nil = self.tags.nil
        car_x = _once(lambda: self.car(x))
        car_e = _once(lambda: self.car(e))
        cdr_e = _once(lambda: self.cdr(e))
        car_a = _once(lambda: self.car(a))

        def subst(y: Vector) -> Vector:
            return self.lambda_subst(x, y, a)

        def logged(i: int, payload: Callable[[], Vector]) -> Callable[[], Vector]:
            def run() -> Vector:
                self._log("subst", i)
                return payload()
            return run

        alternatives = [
            (lambda: hrr.similarity(x, nil), lambda: e),
            (lambda: hrr.similarity(e, nil), lambda: nil),
            (lambda: hrr.similarity(car_x(), e), car_a),
            (lambda: hrr.similarity(self.atom(e, nil), self.tags.true), lambda: e),
            (lambda: hrr.similarity(car_x(), car_e()), lambda: self.cons(car_a(), subst(cdr_e()))),
            (
                lambda: hrr.similarity(self.atom(car_e(), nil), self.tags.false),
                lambda: self.cons(subst(car_e()), subst(cdr_e())),
            ),
        ]
        return hrr.cascade(
            [(gate, logged(i, payload)) for i, (gate, payload) in enumerate(alternatives, 1)],
            logged(7, lambda: self.cons(car_e(), subst(cdr_e()))),
            self.thresholds,
        )

    # -- function calls ------------------------------------------------------------

    def fcall(self, f: Vector, a: Vector) -> tuple[Vector, bool]:
        """Call by name: substitute a stored body, or stay data if unknown.

        Returns the result vector and whether a binding matched; the driver
        keeps evaluating only in the matched case.
        """
        t = self.thresholds
        if len(self.fns) == 0:
            self._log("fcall", "miss")
            return self.cons(f, a), False
        entry = self.fns.store.recall(self.tags.bind(self.tags.left, f))
        gate = hrr.similarity(f, self.car(entry))

        def hit() -> Vector:
            self._log("fcall", "hit")
            return self.cons(self.cdr(entry), a)

        def miss() -> Vector:
            self._log("fcall", "miss")
            return self.cons(f, a)

        out = hrr.cascade([(lambda: gate, hit)], miss, t)
        return out, gate > t.theta_up

    # -- the driver ---------------------------------------------------------------

    def eval_expr(self, v: Vector) -> Vector:
        """Evaluate one top-level expression vector with a fresh step budget."""
        self.steps = 0
        return self.eval_vec(v)

    def eval_vec(self, v: Vector) -> Vector:
        self._tick()
        if self.is_atomic(v):
            self._trace("atom", hrr.similarity(v, self.tags.phi))
            return v
        head = self.car(v)
        if not self.is_atomic(head):
            self._trace("lambda", hrr.similarity(head, self.tags.phi))
            lam = self.eval_vec(head)
            a = self._eval_call_args(self.cdr(v))
            return self.eval_vec(self.lambda_apply(lam, a))
        sims = [hrr.similarity(head, b) for b in self._builtin_vectors]
        best = int(np.argmax(sims))
        if sims[best] >= self.thresholds.theta_up:
            name = BUILTIN_ORDER[best]
            self._trace(name, sims[best])
            return self._apply_builtin(name, v)
        self._trace("fcall", sims[best])
        out, matched = self.fcall(head, self.cdr(v))
        return self.eval_vec(out) if matched else out

    def _apply_builtin(self, name: str, v: Vector) -> Vector:
        rest = self.cdr(v)
        if name == "QUOTE":
            return self.quote(self.car(rest))
        if name == "DEFINE":
            return self.define(self.car(rest), self.car(self.cdr(rest)))
        if name == "COND":
            return self.cond_eval(rest)
        first = self.eval_vec(self.car(rest))
        if name == "CAR":
            return self.car(first)
        if name == "CDR":
            return self.cdr(first)
        if name == "ATOM":
            return self.atom(first, self.cdr(rest))
        second = self.eval_vec(self.car(self.cdr(rest)))
        if name == "CONS":
            return self.cons(first, second)
        return self.eq(first, second)

    def _eval_call_args(self, rest: Vector) -> Vector:
        if self._is_nil(rest):
            return self.tags.nil
        val = self.eval_vec(self.car(rest))
        return self.cons(val, self.cdr(rest))

    def _trace(self, label: str, sim: float) -> None:
        if self.trace_sink is not None:
            self.trace_sink(f"step={self.steps} head={label} sim={sim:.4f} mem={len(self.mem)}")

    # -- conveniences -----------------------------------------------------------

    def run(self, expr: SExpr) -> SExpr:
        try:
            v = self.eval_expr(self.encode(expr))
        except RecursionError as exc:
            raise BudgetExceeded("evaluation nested deeper than the interpreter's recursion limit") from exc
        return self.decode(v)

    def run_text(self, source: str) -> SExpr:
        return self.run(reader.parse(source))


def _once(thunk: Callable[[], Vector]) -> Callable[[], Vector]:
    """``thunk``, forced at most once: later calls return the first result."""
    memo: list[Vector] = []

    def get() -> Vector:
        if not memo:
            memo.append(thunk())
        return memo[0]

    return get


def _rename_atoms(e: SExpr, mapping: dict[str, str]) -> SExpr:
    if isinstance(e, Atom):
        new = mapping.get(e.name)
        return Atom(new) if new is not None else e
    return Pair(_rename_atoms(e.left, mapping), _rename_atoms(e.right, mapping))
