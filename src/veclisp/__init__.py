"""veclisp: a Lisp 1.5 subset evaluated as algebra on high-dimensional vectors.

Expressions parse to s-expressions, encode to holographic reduced
representations, and evaluate through binding, superposition and cleanup
memories; a purely symbolic oracle interpreter provides the reference
semantics for differential checking.
"""
from .cleanup import CleanupMemory, ConvergenceError, EmptyMemoryError
from .codec import DecodeError, TagSet, decode, encode
from .evaluator import BudgetExceeded, EvalError, EvalSession, SessionConfig
from .hrr import (
    AtomRegistry,
    DegenerateVector,
    DimensionMismatch,
    Permutation,
    Thresholds,
    bind,
    cascade,
    involution,
    normalize,
    similarity,
    unbind,
)
from .oracle import OracleEnv, OracleError, evaluate as oracle_evaluate
from .reader import Atom, Pair, ParseError, SExpr, parse, parse_many, to_text

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Atom",
    "AtomRegistry",
    "BudgetExceeded",
    "CleanupMemory",
    "ConvergenceError",
    "DecodeError",
    "DegenerateVector",
    "DimensionMismatch",
    "EmptyMemoryError",
    "EvalError",
    "EvalSession",
    "OracleEnv",
    "OracleError",
    "Pair",
    "ParseError",
    "Permutation",
    "SessionConfig",
    "SExpr",
    "TagSet",
    "Thresholds",
    "bind",
    "cascade",
    "decode",
    "encode",
    "involution",
    "normalize",
    "oracle_evaluate",
    "parse",
    "parse_many",
    "similarity",
    "to_text",
    "unbind",
]
