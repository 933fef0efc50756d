"""The vector evaluator: Lisp evaluation as algebra on high-dimensional vectors.

Every operation here works on encoded vectors.  Branching is expressed with the
saturating lazy cascade: each alternative is a deferred computation scaled by a
guard similarity, and an alternative whose guard is already below theta_down is
never forced.  Pairs live in the session's pair table (``codec.PairTable``),
which holds each unit-norm pair key with its halves and answers a probe by
identity, exact bytes or highest cosine, or raises; CONS interns into it, CAR
and CDR read from it, and decode and relabel are one fold over it, so
evaluation builds no tree.  A flat cleanup memory holds NIL, T and F for
ATOM's truth snap, which under ``lookup`` returns the held tag and recalls
only on a near tie; a function definition is the table row of its
``cons(name, body)`` key.  Similarities between two read-only vectors, which
the session holds and never changes, are computed once per session.

A session holds every vector in ``hrr.to_coords`` coordinates, an orthogonal
map, so every norm, dot product and cosine is the time-domain one, and a
bind is the elementwise ``hrr.bind_coords``: building a pair takes no FFT and one buffer.
Atoms enter through ``coords`` and leave through ``atom_name``, the
registry's ``AtomRegistry.coords`` and ``AtomRegistry.name``.

A session owns the registry, the memories, the reserved tags and the step
budget; REPL lines share one session so definitions and stored pairs persist.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, TypeVar

import numpy as np

from . import codec, hrr, reader
from .cleanup import CleanupMemory
from .codec import DecodeError, TagSet
from .hrr import AtomRegistry, Thresholds, Vector
from .reader import Atom, Pair, SExpr

__all__ = [
    "BUILTIN_ORDER",
    "SessionConfig",
    "EvalSession",
    "EvalError",
    "BudgetExceeded",
]

BUILTIN_ORDER = ("CONS", "CAR", "CDR", "EQ", "ATOM", "QUOTE", "COND", "DEFINE")
LAMBDA_NAME = "LAMBDA"

Out = TypeVar("Out")


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
    rho: int | float = 3
    max_iters: int = 100
    tol: float = 1e-6
    step_limit: int = 100_000


class EvalSession:
    """One evaluation context: registry, tag set, pair table, flat memory, definitions."""

    def __init__(self, config: SessionConfig | None = None) -> None:
        self.config = config or SessionConfig()
        c = self.config
        self.thresholds = Thresholds(c.theta_up, c.theta_down)
        self.registry = AtomRegistry(c.dim, c.seed)
        self.tags = TagSet.from_coords(self.registry.coords)
        self.mem = CleanupMemory(
            c.dim,
            c.memory_kind,
            beta=c.beta,
            rho=c.rho,
            max_iters=c.max_iters,
            tol=c.tol,
        )
        # ATOM's truth snap recalls from these three rows; nothing else
        # reads this memory, and pairs live in the pair table below.
        self.mem.append(self.tags.nil)
        self.mem.append(self.tags.true)
        self.mem.append(self.tags.false)
        # Lookup recall of s_f * F + s_t * T takes the row of highest s_f * (row @ F) + s_t * (row @ T).
        # That sum and the recall's activation each err by at most (dim + 2) eps |row| (|s_f| |F| +
        # |s_t| |T|), so a lead of over four times that bound is the recall's pick too.
        self._truth_rows = (self.tags.nil, self.tags.true, self.tags.false)
        self._truth_dots = [(r @ self.tags.false, r @ self.tags.true) for r in self._truth_rows]
        self._truth_tol = 4 * (c.dim + 2) * hrr._EPS * max(r @ r for r in self._truth_rows)
        # Table rows of the live definitions' cons(name, body) keys, one per name.
        self.fns: list[int] = []
        self.steps = 0
        self.branch_log: list[tuple[str, object]] | None = None
        self.trace_sink: Callable[[str], None] | None = None
        self._gensym_counter = 0
        self._builtin_vectors = [self.coords(n) for n in BUILTIN_ORDER]
        self.pairs = codec.PairTable(c.dim)
        # (id(u), id(v)) -> (similarity(u, v), u, v) for read-only u and v;
        # holding both operands keeps their ids from passing to new objects.
        self._sims: dict[tuple[int, int], tuple[float, Vector, Vector]] = {}

    # -- plumbing -------------------------------------------------------------

    def coords(self, name: str) -> Vector:
        """The registry's read-only ``hrr.to_coords`` coordinates of the atom ``name``."""
        return self.registry.coords(name)

    def atom_name(self, v: Vector) -> str:
        """The name of the atom nearest ``v``: by bytes for a ``coords`` vector or its copy, else by a registry scan."""
        return self.registry.name(v)

    def _sim(self, u: Vector, v: Vector) -> float:
        """``hrr.similarity(u, v)``, computed once per session when both operands are read-only."""
        if u.flags.writeable or v.flags.writeable:
            return hrr.similarity(u, v)
        key = (id(u), id(v))
        hit = self._sims.get(key)
        if hit is None:
            hit = self._sims[key] = (hrr.similarity(u, v), u, v)
        return hit[0]

    def is_atomic(self, v: Vector) -> bool:
        """``codec.is_atomic_vec`` of one vector."""
        return self._sim(v, self.tags.phi) < self.thresholds.theta_down

    def _project(self, c: Vector, side: int) -> Vector:
        """Half ``side`` (0 left, 1 right) of the pair that the table answers ``c`` with."""
        row = self.pairs.row(c, self.thresholds.theta_down)
        if row is None:
            raise EvalError("no stored pair answers this probe")
        return self.pairs.halves[row][side]

    def encode(self, e: SExpr) -> Vector:
        if isinstance(e, Atom):
            return self.coords(e.name)
        return self.cons(self.encode(e.left), self.encode(e.right))

    def decode(self, v: Vector) -> SExpr:
        """The tree of ``v``: its nearest atom at every atomic node."""
        return self._fold(v, lambda x: Atom(self.atom_name(x)), Pair)

    def _fold(self, v: Vector, leaf: Callable[[Vector], Out], node: Callable[[Out, Out], Out]) -> Out:
        """``v`` folded through the pair table in a loop, bottom-up and left before right.

        An atomic node folds to ``leaf`` of itself and any other node to
        ``node`` of its halves' folds, its halves found as ``car`` and ``cdr``
        find them.  Each row is folded once per walk; a node no row answers,
        or a row met again inside its own halves, raises ``DecodeError``.
        """
        done: dict[int, Out] = {}
        open_rows: set[int] = set()
        folds: list[Out] = []
        todo: list[Vector | int] = [v]  # vectors to fold, and rows whose halves are folded
        while todo:
            item = todo.pop()
            if isinstance(item, int):
                right = folds.pop()
                done[item] = value = node(folds.pop(), right)
                open_rows.remove(item)
                folds.append(value)
                continue
            if self.pairs.held(item) is None and self.is_atomic(item):
                folds.append(leaf(item))
                continue
            row = self.pairs.row(item, self.thresholds.theta_down)
            if row is None:
                raise DecodeError("decode failed: no stored pair answers this node")
            if row in done:
                folds.append(done[row])
                continue
            if row in open_rows:
                raise DecodeError("decode divergence: a pair reaches itself through its halves")
            open_rows.add(row)
            left, right = self.pairs.halves[row]
            todo += [row, right, left]
        return folds[0]

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
        return self._sim(v, self.tags.nil) >= self.thresholds.theta_up

    # -- structural operations --------------------------------------------------

    def cons(self, a: Vector, b: Vector) -> Vector:
        """The pair key of ``a`` and ``b``, hash-consed through the table."""
        return self.pairs.cons(a, b, self.tags)

    def car(self, c: Vector) -> Vector:
        return self._project(c, 0)

    def cdr(self, c: Vector) -> Vector:
        return self._project(c, 1)

    def eq(self, a: Vector, b: Vector) -> Vector:
        if not (self.is_atomic(a) and self.is_atomic(b)):
            raise EvalError("EQ on non-atoms is undefined")
        s = self._sim(a, b)
        if s == 1.0:
            return self.tags.true  # bitwise 1.0 * T + 0.0 * F
        return s * self.tags.true + (1.0 - s) * self.tags.false

    def atom(self, a: Vector, n: Vector) -> Vector:
        """Atom test; ``n`` is the call tail and anything non-NIL poisons it to F."""
        t = self.thresholds
        s_a = self._sim(a, self.tags.phi)
        cleaned = self._truth_snap(s_a, max(0.0, 2.0 * t.theta_down - s_a))
        s_n = self._sim(n, self.tags.nil)
        w_f = max(0.0, 2.0 * t.theta_down - s_n)
        if s_n == 1.0 and w_f == 0.0:
            return cleaned  # bitwise 1.0 * cleaned + 0.0 * F
        return s_n * cleaned + w_f * self.tags.false

    def _truth_snap(self, s_f: float, s_t: float) -> Vector:
        """``mem.recall(s_f * F + s_t * T)``; under ``lookup``, the held NIL, T or F it would copy."""
        if self.mem.kind == "lookup":
            acts = [s_f * df + s_t * dt for df, dt in self._truth_dots]
            top, runner_up = sorted(acts, reverse=True)[:2]
            if top - runner_up > self._truth_tol * (abs(s_f) + abs(s_t)):
                return self._truth_rows[acts.index(top)]
        return self.mem.recall(s_f * self.tags.false + s_t * self.tags.true)

    def quote(self, e: Vector) -> Vector:
        return e

    def define(self, name: Vector, body: Vector) -> Vector:
        if not self.is_atomic(name):
            raise EvalError("define requires an atomic name")
        row = self.pairs.held(self.cons(name, body))
        for i, known in enumerate(self.fns):
            if self._sim(name, self.pairs.halves[known][0]) >= 0.99:
                self.fns[i] = row
                break
        else:
            self.fns.append(row)
        return self.tags.done

    def truthy(self, v: Vector) -> bool:
        return self._sim(v, self.tags.true) > self._sim(v, self.tags.false)

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
                gate = self._sim(self.eval_vec(self.car(clause)), self.tags.true)
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
        """Swap every parameter, in a proper list of distinct atoms, for a fresh reserved atom.

        The fresh list is consed first and the body then folded into its renamed
        copy, so the table gains rows in the order encoding the renamed trees would add them.
        """
        if self._is_nil(x):
            return self.tags.nil, e
        names: list[str] = []
        cur = x
        while not self._is_nil(cur):
            if self.is_atomic(cur):
                raise EvalError("relabel: parameter list must be a proper list of atoms")
            param = self.car(cur)
            if not self.is_atomic(param):
                raise EvalError("relabel: parameters must be atoms")
            names.append(self.atom_name(param))
            cur = self.cdr(cur)
        if len(set(names)) != len(names):
            raise EvalError("relabel: duplicate parameter name")
        mapping = {nm: self._gensym() for nm in names}
        fresh = self.tags.nil
        for g in reversed([self.coords(mapping[nm]) for nm in names]):
            fresh = self.cons(g, fresh)

        def renamed(v: Vector) -> Vector:
            name = self.atom_name(v)
            return self.coords(mapping.get(name, name))

        return fresh, self._fold(e, renamed, self.cons)

    def _lambda_expr(self, x: Vector, e: Vector) -> Vector:
        lam = self.coords(LAMBDA_NAME)
        return self.cons(lam, self.cons(x, self.cons(e, self.tags.nil)))

    def lambda_apply(self, lam: Vector, a: Vector) -> Vector:
        """Apply a lambda vector to an argument list vector.

        A lambda without the relabel marker is relabeled, marked and re-applied.
        After that: exhausted parameters yield the body, an empty body yields
        NIL, and otherwise one parameter is substituted away and a lambda over
        the remaining parameters is built.
        """
        fresh = self._sim(lam, self.tags.rho) < self.thresholds.theta_down
        params = _once(lambda: self.car(self.cdr(lam)))
        body = _once(lambda: self.car(self.cdr(self.cdr(lam))))

        def relabel_and_retry() -> Vector:
            self._log("apply", "relabel")
            y, e2 = self.relabel(params(), body())
            base = self._lambda_expr(y, e2)
            # The marked lambda, at unit norm like every key, is a key of its own with
            # base's halves; it is interned, not built, so a cons of them still returns base.
            row = self.pairs.intern(hrr.normalize(base + self.tags.rho), *self.pairs.halves[self.pairs.held(base)])
            return self.lambda_apply(self.pairs.keys[row], a)

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
                (lambda: self._sim(params(), self.tags.nil), params_done),
                (lambda: self._sim(body(), self.tags.nil), body_nil),
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
            (lambda: self._sim(x, nil), lambda: e),
            (lambda: self._sim(e, nil), lambda: nil),
            (lambda: self._sim(car_x(), e), car_a),
            (lambda: self._sim(self.atom(e, nil), self.tags.true), lambda: e),
            (lambda: self._sim(car_x(), car_e()), lambda: self.cons(car_a(), subst(cdr_e()))),
            (
                lambda: self._sim(self.atom(car_e(), nil), self.tags.false),
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
        if not self.fns:
            self._log("fcall", "miss")
            return self.cons(f, a), False
        # The definition whose key is most like the bound name, ties to the first.
        acts = np.stack([self.pairs.keys[r] for r in self.fns]) @ self.tags.bind(self.tags.left, f)
        entry = self.pairs.keys[self.fns[int(np.argmax(acts))]]
        gate = self._sim(f, self.car(entry))

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
            self._trace("atom", self._sim(v, self.tags.phi))
            return v
        head = self.car(v)
        if not self.is_atomic(head):
            self._trace("lambda", self._sim(head, self.tags.phi))
            lam = self.eval_vec(head)
            a = self._eval_call_args(self.cdr(v))
            return self.eval_vec(self.lambda_apply(lam, a))
        sims = [self._sim(head, b) for b in self._builtin_vectors]
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
            self.trace_sink(f"step={self.steps} head={label} sim={sim:.4f} mem={len(self.pairs)}")

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

