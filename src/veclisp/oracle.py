"""Reference interpreter over plain trees, used to check the vector evaluator.

This is the classical pattern-match semantics: substitution instead of
environments, curried single-argument lambdas with relabeling before every
application, dotted cond clauses, and unknown function names left in place as
data.  It shares no code path with the vector side beyond the tree types, so
agreement between the two is meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .codec import DONE_NAME
from .reader import NIL, T, F, Atom, Pair, SExpr

__all__ = ["OracleEnv", "OracleError", "evaluate", "apply_lambda", "substitute", "relabel", "run_program"]

GENSYM_PREFIX = "#o"


class OracleError(RuntimeError):
    pass


@dataclass
class OracleEnv:
    defs: dict[str, SExpr] = field(default_factory=dict)
    step_limit: int = 100_000
    steps: int = 0
    gensym_counter: int = 0
    branch_log: list[tuple[str, object]] | None = None

    def log(self, family: str, which: object) -> None:
        if self.branch_log is not None:
            self.branch_log.append((family, which))

    def tick(self) -> None:
        if self.steps >= self.step_limit:
            raise OracleError("evaluation budget exhausted")
        self.steps += 1

    def gensym(self) -> str:
        self.gensym_counter += 1
        return f"{GENSYM_PREFIX}{self.gensym_counter}"


def evaluate(e: SExpr, env: OracleEnv) -> SExpr:
    env.tick()
    if isinstance(e, Atom):
        return e
    head = e.left
    if isinstance(head, Pair):
        lam = evaluate(head, env)
        arg = _eval_call_arg(e.right, env)
        return evaluate(apply_lambda(lam, arg, env), env)
    name = head.name
    if name == "QUOTE":
        return _arg(e.right, 0, "QUOTE")
    if name == "COND":
        return _eval_cond(e.right, env)
    if name == "DEFINE":
        target = _arg(e.right, 0, "DEFINE")
        if not isinstance(target, Atom):
            raise OracleError("DEFINE requires an atomic name")
        env.defs[target.name] = _arg(e.right, 1, "DEFINE")
        return Atom(DONE_NAME)
    if name in ("CONS", "CAR", "CDR", "EQ", "ATOM"):
        first = evaluate(_arg(e.right, 0, name), env)
        if name == "CAR":
            if isinstance(first, Atom):
                raise OracleError("CAR of an atom is undefined")
            return first.left
        if name == "CDR":
            if isinstance(first, Atom):
                raise OracleError("CDR of an atom is undefined")
            return first.right
        if name == "ATOM":
            return T if isinstance(first, Atom) else F
        second = evaluate(_arg(e.right, 1, name), env)
        if name == "CONS":
            return Pair(first, second)
        if not (isinstance(first, Atom) and isinstance(second, Atom)):
            raise OracleError("EQ on non-atoms is undefined")
        return T if first == second else F
    if name in env.defs:
        env.log("fcall", "hit")
        return evaluate(Pair(env.defs[name], e.right), env)
    env.log("fcall", "miss")
    return e


def _arg(rest: SExpr, index: int, who: str) -> SExpr:
    cur = rest
    for _ in range(index):
        if not isinstance(cur, Pair):
            raise OracleError(f"{who}: missing argument")
        cur = cur.right
    if not isinstance(cur, Pair):
        raise OracleError(f"{who}: missing argument")
    return cur.left


def _eval_call_arg(rest: SExpr, env: OracleEnv) -> SExpr:
    if rest == NIL:
        return NIL
    if not isinstance(rest, Pair):
        raise OracleError("improper application tail")
    return evaluate(rest.left, env)


def _eval_cond(clauses: SExpr, env: OracleEnv) -> SExpr:
    cur = clauses
    while isinstance(cur, Pair):
        clause = cur.left
        if not isinstance(clause, Pair):
            raise OracleError("COND clause must be a pair")
        if evaluate(clause.left, env) == T:
            env.log("cond", "take")
            return evaluate(clause.right, env)
        env.log("cond", "next")
        cur = cur.right
    if cur == NIL:
        raise OracleError("cond exhausted")
    raise OracleError("COND clauses must form a proper list")


def relabel(params: SExpr, body: SExpr, env: OracleEnv) -> tuple[SExpr, SExpr]:
    if params == NIL:
        return NIL, body
    names = []
    cur = params
    while isinstance(cur, Pair):
        if not isinstance(cur.left, Atom):
            raise OracleError("relabel: parameters must be atoms")
        names.append(cur.left.name)
        cur = cur.right
    if cur != NIL or not names:
        raise OracleError("relabel: parameter list must be a proper list of atoms")
    if len(set(names)) != len(names):
        raise OracleError("relabel: duplicate parameter name")
    mapping = {nm: env.gensym() for nm in names}
    fresh: SExpr = NIL
    for nm in reversed(names):
        fresh = Pair(Atom(mapping[nm]), fresh)
    return fresh, _rename(body, mapping)


def _rename(e: SExpr, mapping: dict[str, str]) -> SExpr:
    if isinstance(e, Atom):
        new = mapping.get(e.name)
        return Atom(new) if new is not None else e
    return Pair(_rename(e.left, mapping), _rename(e.right, mapping))


def apply_lambda(lam: SExpr, arg: SExpr, env: OracleEnv) -> SExpr:
    """One application step; the caller evaluates whatever comes back."""
    if not (
        isinstance(lam, Pair)
        and lam.left == Atom("LAMBDA")
        and isinstance(lam.right, Pair)
        and isinstance(lam.right.right, Pair)
        and lam.right.right.right == NIL
    ):
        raise OracleError("malformed lambda expression")
    env.log("apply", "relabel")
    params, body = relabel(lam.right.left, lam.right.right.left, env)
    if params == NIL:
        env.log("apply", "params-done")
        return body
    if body == NIL:
        env.log("apply", "body-nil")
        return NIL
    env.log("apply", "curry")
    new_body = substitute(params, body, arg, env)
    assert isinstance(params, Pair)
    return Pair(Atom("LAMBDA"), Pair(params.right, Pair(new_body, NIL)))


def substitute(x: SExpr, e: SExpr, value: SExpr, env: OracleEnv) -> SExpr:
    """Replace the first parameter with ``value`` throughout ``e``, structurally."""
    if x == NIL:
        env.log("subst", 1)
        return e
    if e == NIL:
        env.log("subst", 2)
        return NIL
    assert isinstance(x, Pair)
    first = x.left
    if e == first:
        env.log("subst", 3)
        return value
    if isinstance(e, Atom):
        env.log("subst", 4)
        return e
    if e.left == first:
        env.log("subst", 5)
        return Pair(value, substitute(x, e.right, value, env))
    if isinstance(e.left, Pair):
        env.log("subst", 6)
        left = substitute(x, e.left, value, env)
        return Pair(left, substitute(x, e.right, value, env))
    env.log("subst", 7)
    return Pair(e.left, substitute(x, e.right, value, env))


def run_program(exprs: list[SExpr], env: OracleEnv | None = None) -> list[SExpr]:
    """Evaluate a sequence of expressions in one environment."""
    env = env or OracleEnv()
    out = []
    for e in exprs:
        env.steps = 0
        out.append(evaluate(e, env))
    return out
