"""Command line interface: REPL, script runner and benchmark reports.

Each setting comes from one flag, which defaults to ``SessionConfig()``'s
value, on the subcommands that read it.  Exit codes: 0 on success, 1 for user
errors (bad input, evaluation errors, any oracle mismatch), 2 for internal
failures.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable

from . import bench, codec, oracle, reader
from .cleanup import KINDS, ConvergenceError, EmptyMemoryError
from .evaluator import EvalError, EvalSession, SessionConfig
from .hrr import DegenerateVector, DimensionMismatch
from .reader import Atom, Pair, ParseError, SExpr

__all__ = ["main"]

USER_ERRORS = (
    ParseError,
    EvalError,
    oracle.OracleError,
    codec.DecodeError,
    DegenerateVector,
    DimensionMismatch,
    EmptyMemoryError,
    ConvergenceError,
    ValueError,
    OSError,
)


def _parse_rho(text: str) -> int | float:
    """"3" stays an integer (exact odd-power path), "3.0" goes real."""
    try:
        return int(text)
    except ValueError:
        return float(text)


# Each ``SessionConfig`` field's flag and argparse keywords; its default is ``SessionConfig()``'s.
SETTINGS = {
    "dim": ("--dim", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "theta_up": ("--theta-up", {"type": float}),
    "theta_down": ("--theta-down", {"type": float}),
    "memory_kind": ("--memory", {"choices": KINDS, "help": "cleanup memory kind"}),
    "beta": ("--beta", {"type": float}),
    "rho": ("--rho", {"type": _parse_rho}),
    "step_limit": ("--step-limit", {"type": int}),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract reserves 2 for bugs."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        # Each subcommand's parser rejects the arguments it does not take
        # itself, so the error shows that subcommand's usage line.
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


def _settings(parser: argparse.ArgumentParser, fields: Iterable[str]) -> argparse._ArgumentGroup:
    """Give ``parser`` the flags of ``fields``, each defaulting to ``SessionConfig()``'s value."""
    group = parser.add_argument_group("session")
    defaults = SessionConfig()
    for field in fields:
        flag, keywords = SETTINGS[field]
        group.add_argument(flag, dest=field, default=getattr(defaults, field), **keywords)
    return group


def _build_parser() -> _Parser:
    session = argparse.ArgumentParser(add_help=False)
    switch = {"action": argparse.BooleanOptionalAction, "default": False}
    _settings(session, SETTINGS).add_argument("--trace", **switch, help="log each driver dispatch to stderr")
    session.add_argument("--oracle-check", **switch, help="run the symbolic oracle alongside and compare")

    parser = _Parser(prog="veclisp", description="A Lisp whose expressions are vectors.")
    sub = parser.add_subparsers(dest="mode", required=True)

    p_repl = sub.add_parser("repl", parents=[session], help="interactive session")
    p_repl.set_defaults(func=_cmd_repl)

    p_run = sub.add_parser("run", parents=[session], help="evaluate a script")
    p_run.add_argument("path", help="script of s-expressions, or - for stdin")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="emit a benchmark report")
    kinds = p_bench.add_subparsers(dest="kind", required=True)
    for kind, fields in bench.BENCH_KINDS.items():
        p_kind = kinds.add_parser(kind)
        _settings(p_kind, fields)
        p_kind.add_argument("--out", default=None, help="report path (default stdout)")
        p_kind.set_defaults(func=_cmd_bench)
    return parser


def _session_config(args: argparse.Namespace) -> SessionConfig:
    return SessionConfig(**{field: getattr(args, field) for field in SETTINGS if hasattr(args, field)})


def _new_session(args: argparse.Namespace) -> EvalSession:
    session = EvalSession(_session_config(args))
    if args.trace:
        session.trace_sink = lambda line: print(line, file=sys.stderr)
    return session


def _same_result(vec: SExpr, orc: SExpr) -> bool:
    """Whether two answers are equal once each side's machine-chosen fresh atoms are renamed.

    Each side numbers its fresh atoms in order of first appearance, left-first
    preorder, and the trees are compared under those numbers.  The walk is a
    loop, so an answer's depth is not bounded by the recursion limit.
    """
    prefixes = (codec.GENSYM_PREFIX, oracle.GENSYM_PREFIX)
    tables: tuple[dict[str, str], dict[str, str]] = ({}, {})
    todo = [(vec, orc)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, Pair) and isinstance(b, Pair):
            todo += [(a.right, b.right), (a.left, b.left)]
            continue
        if not (isinstance(a, Atom) and isinstance(b, Atom)):
            return False
        names = [
            table.setdefault(e.name, f"#{len(table)}") if e.name.startswith(prefix) else e.name
            for e, prefix, table in zip((a, b), prefixes, tables)
        ]
        if names[0] != names[1]:
            return False
    return True


def _eval_checked(
    session: EvalSession, env: oracle.OracleEnv | None, expr: SExpr
) -> tuple[list[str], bool, str | None]:
    """Evaluate one expression, optionally against the oracle.

    Returns the output lines, whether the twins disagreed, and the vector
    side's error message if it raised.
    """
    lines: list[str] = []
    vec_result: SExpr | None = None
    vec_error: str | None = None
    try:
        vec_result = session.run(expr)
    except USER_ERRORS as exc:
        vec_error = str(exc)
    lines.append(reader.to_text(vec_result) if vec_error is None else f"error: {vec_error}")
    if env is None:
        return lines, False, vec_error

    env.steps = 0
    orc_result: SExpr | None = None
    orc_error: str | None = None
    try:
        orc_result = oracle.evaluate(expr, env)
    except oracle.OracleError as exc:
        orc_error = str(exc)

    if vec_error is None and orc_error is None:
        assert vec_result is not None and orc_result is not None
        ok = _same_result(vec_result, orc_result)
        lines.append(f"oracle: {reader.to_text(orc_result)} {'MATCH' if ok else 'MISMATCH'}")
    elif vec_error is not None and orc_error is not None:
        # Both sides reject the program: that is agreement.  The messages are
        # implementation detail and are both shown.
        ok = True
        lines.append(f"oracle: error: {orc_error} MATCH")
    else:
        ok = False
        if orc_error is not None:
            lines.append(f"oracle: error: {orc_error} MISMATCH")
        else:
            lines.append(f"oracle: {reader.to_text(orc_result)} MISMATCH")
    return lines, not ok, vec_error


def _pending(text: str) -> bool:
    """True while the buffer still has unclosed parentheses."""
    depth = 0
    comment = False
    for ch in text:
        if comment:
            comment = ch != "\n"
        elif ch == ";":
            comment = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
    return depth > 0


def _cmd_repl(args: argparse.Namespace) -> int:
    session = _new_session(args)
    env = oracle.OracleEnv(step_limit=args.step_limit) if args.oracle_check else None
    interactive = sys.stdin.isatty()
    mismatched = False
    buffer = ""
    while True:
        prompt = ""
        if interactive:
            prompt = "... " if buffer else "veclisp> "
        try:
            line = input(prompt)
        except EOFError:
            break
        blank = not line.strip()
        buffer = f"{buffer}\n{line}" if buffer else line
        if not buffer.strip():
            buffer = ""
            continue
        # A blank line flushes an unbalanced buffer so the parse error surfaces.
        if _pending(buffer) and not blank:
            continue
        chunk, buffer = buffer, ""
        try:
            exprs = reader.parse_many(chunk)
        except ParseError as exc:
            print(f"error: {exc}")
            continue
        for expr in exprs:
            lines, bad, _ = _eval_checked(session, env, expr)
            for out in lines:
                print(out)
            mismatched = mismatched or bad
    if buffer.strip():
        try:
            reader.parse_many(buffer)
            print("error: unexpected end of input")
        except ParseError as exc:
            print(f"error: {exc}")
        return 1
    return 1 if mismatched else 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.path == "-":
        source = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            source = fh.read()
    exprs = reader.parse_many(source)
    session = _new_session(args)
    env = oracle.OracleEnv(step_limit=args.step_limit) if args.oracle_check else None
    mismatched = False
    for expr in exprs:
        lines, bad, vec_error = _eval_checked(session, env, expr)
        if vec_error is not None:
            print(f"error: {vec_error}", file=sys.stderr)
            for out in lines[1:]:  # the oracle's verdict, under --oracle-check
                print(out)
            return 1
        for out in lines:
            print(out)
        mismatched = mismatched or bad
    return 1 if mismatched else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    report = bench.run_bench(args.kind, _session_config(args))
    if args.out is None:
        sys.stdout.write(report)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return int(args.func(args))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except KeyboardInterrupt:
        return 1
    except RecursionError:
        # Every recursion here follows the nesting of the input, so this is the input's doing.
        print("error: input nested deeper than the interpreter's recursion limit", file=sys.stderr)
        return 1
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the contract maps bugs to 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
