"""Command line interface: REPL, script runner and benchmark reports.

Configuration comes from flags, with ``VECLISP_``-prefixed environment
variables as fallback defaults; flags win.  Exit codes: 0 on success, 1 for
user errors (bad input, evaluation errors, any oracle mismatch), 2 for
internal failures.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable, TextIO

from . import bench, codec, oracle, reader
from .cleanup import KINDS, ConvergenceError, EmptyMemoryError
from .evaluator import EvalError, EvalSession, SessionConfig
from .hrr import DegenerateVector, DimensionMismatch
from .reader import Atom, Pair, ParseError, SExpr

__all__ = ["RunConfig", "main"]

ENV_PREFIX = "VECLISP_"

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


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs: session parameters plus mode switches."""

    session: SessionConfig
    mode: str
    oracle_check: bool = False
    trace: bool = False


def _env_raw(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _env(name: str, default, cast: Callable[[str], object]):
    raw = _env_raw(name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"bad value {raw!r} for {ENV_PREFIX}{name}") from None


def _env_bool(name: str, default: bool) -> bool:
    raw = _env_raw(name)
    if raw is None:
        return default
    text = raw.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"bad value {raw!r} for {ENV_PREFIX}{name}")


def _parse_rho(text: str) -> int | float:
    """"3" stays an integer (exact odd-power path), "3.0" goes real."""
    try:
        return int(text)
    except ValueError:
        return float(text)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract reserves 2 for bugs."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("session")
    g.add_argument("--dim", type=int, default=_env("DIM", 2048, int))
    g.add_argument("--seed", type=int, default=_env("SEED", 1729, int))
    g.add_argument("--theta-up", type=float, default=_env("THETA_UP", 0.8, float))
    g.add_argument("--theta-down", type=float, default=_env("THETA_DOWN", 0.2, float))
    g.add_argument(
        "--memory", choices=KINDS, default=_env("MEMORY", "lookup", str), help="cleanup memory kind"
    )
    g.add_argument("--beta", type=float, default=_env("BETA", 1000.0, float))
    g.add_argument("--gamma", type=float, default=_env("GAMMA", 1000.0, float))
    g.add_argument("--alpha", type=float, default=_env("ALPHA", 1.0, float))
    g.add_argument("--eta", type=float, default=_env("ETA", 0.1, float))
    g.add_argument("--rho", type=_parse_rho, default=_env("RHO", 3, _parse_rho))
    g.add_argument("--max-iters", type=int, default=100)
    g.add_argument("--tol", type=float, default=1e-6)
    g.add_argument("--step-limit", type=int, default=_env("STEP_LIMIT", 100_000, int))
    g.add_argument(
        "--trace",
        action=argparse.BooleanOptionalAction,
        default=_env_bool("TRACE", False),
        help="log each driver dispatch to stderr",
    )

    checked = argparse.ArgumentParser(add_help=False)
    checked.add_argument(
        "--oracle-check",
        action=argparse.BooleanOptionalAction,
        default=_env_bool("ORACLE_CHECK", False),
        help="run the symbolic oracle alongside and compare",
    )

    parser = _Parser(prog="veclisp", description="A Lisp whose expressions are vectors.")
    sub = parser.add_subparsers(dest="mode", required=True)

    p_repl = sub.add_parser("repl", parents=[common, checked], help="interactive session")
    p_repl.set_defaults(func=_cmd_repl)

    p_run = sub.add_parser("run", parents=[common, checked], help="evaluate a script")
    p_run.add_argument("path", help="script of s-expressions, or - for stdin")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", parents=[common], help="emit a benchmark report")
    p_bench.add_argument("kind", choices=bench.BENCH_KINDS)
    p_bench.add_argument("--out", default=None, help="report path (default stdout)")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    session = SessionConfig(
        dim=args.dim,
        seed=args.seed,
        theta_up=args.theta_up,
        theta_down=args.theta_down,
        memory_kind=args.memory,
        beta=args.beta,
        gamma=args.gamma,
        alpha=args.alpha,
        eta=args.eta,
        rho=args.rho,
        max_iters=args.max_iters,
        tol=args.tol,
        step_limit=args.step_limit,
    )
    return RunConfig(
        session=session,
        mode=args.mode,
        oracle_check=getattr(args, "oracle_check", False),
        trace=args.trace,
    )


def _new_session(config: RunConfig) -> EvalSession:
    session = EvalSession(config.session)
    if config.trace:
        session.trace_sink = lambda line: print(line, file=sys.stderr)
    return session


def _canon(e: SExpr, prefix: str, table: dict[str, str]) -> SExpr:
    """Rename machine-chosen fresh atoms to positional placeholders."""
    if isinstance(e, Atom):
        if e.name.startswith(prefix):
            if e.name not in table:
                table[e.name] = f"#{len(table)}"
            return Atom(table[e.name])
        return e
    return Pair(_canon(e.left, prefix, table), _canon(e.right, prefix, table))


def _same_result(vec: SExpr, orc: SExpr) -> bool:
    return _canon(vec, codec.GENSYM_PREFIX, {}) == _canon(orc, oracle.GENSYM_PREFIX, {})


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
    config = _run_config(args)
    session = _new_session(config)
    env = oracle.OracleEnv(step_limit=config.session.step_limit) if config.oracle_check else None
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
    config = _run_config(args)
    if args.path == "-":
        source = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            source = fh.read()
    exprs = reader.parse_many(source)
    session = _new_session(config)
    env = oracle.OracleEnv(step_limit=config.session.step_limit) if config.oracle_check else None
    mismatched = False
    for expr in exprs:
        lines, bad, vec_error = _eval_checked(session, env, expr)
        if vec_error is not None:
            print(f"error: {vec_error}", file=sys.stderr)
            return 1
        for out in lines:
            print(out)
        mismatched = mismatched or bad
    return 1 if mismatched else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _run_config(args)
    report = bench.run_bench(args.kind, config.session)
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
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the contract maps bugs to 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
