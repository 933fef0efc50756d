"""S-expression reader and printer.

Atoms are case-sensitive runs of [A-Za-z0-9].  Lists are sugar for right-nested
dotted pairs ending in NIL, and () reads as the atom NIL.  Semicolon comments
run to end of line (a convenience the classic syntax lacks).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

__all__ = ["Atom", "Pair", "SExpr", "NIL", "T", "F", "ParseError", "parse", "parse_many", "to_text"]


@dataclass(frozen=True)
class Atom:
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True)
class Pair:
    left: "SExpr"
    right: "SExpr"

    def __post_init__(self) -> None:
        # Hashed once: dict lookups on deep trees would otherwise rehash every node.
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: string hashes differ between processes.
        return (Pair, (self.left, self.right))

    def __repr__(self) -> str:
        return f"Pair({self.left!r}, {self.right!r})"


SExpr = Union[Atom, Pair]

NIL = Atom("NIL")
T = Atom("T")
F = Atom("F")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


_ATOM_RE = re.compile(r"[A-Za-z0-9]+")
_COMMENT_RE = re.compile(r";[^\n]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, offset) triples; kind is one of '(', ')', '.', 'atom'."""
    src = _COMMENT_RE.sub(lambda m: " " * len(m.group()), text)
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "().":
            tokens.append((c, c, i))
            i += 1
            continue
        m = _ATOM_RE.match(src, i)
        if m:
            tokens.append(("atom", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"illegal character {c!r}", *_line_col(text, i))
    return tokens


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    start = text.rfind("\n", 0, offset) + 1
    return line, offset - start + 1


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _error(self, message: str, offset: int) -> ParseError:
        return ParseError(message, *_line_col(self.text, offset))

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect: str | None = None) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise self._error("unexpected end of input", len(self.text))
        if expect is not None and tok[0] != expect:
            raise self._error(f"expected {expect!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def read(self) -> SExpr:
        kind, value, offset = self._next()
        if kind == "atom":
            return Atom(value)
        if kind == "(":
            return self._read_tail(offset)
        if kind == ")":
            raise self._error("unmatched ')'", offset)
        raise self._error("misplaced '.'", offset)

    def _read_tail(self, open_offset: int) -> SExpr:
        items: list[SExpr] = []
        while True:
            tok = self._peek()
            if tok is None:
                raise self._error("unterminated list", open_offset)
            kind, _, offset = tok
            if kind == ")":
                self._next()
                return _from_items(items, NIL)
            if kind == ".":
                if not items:
                    raise self._error("misplaced '.'", offset)
                self._next()
                tail = self.read()
                closer = self._peek()
                if closer is None or closer[0] != ")":
                    where = closer[2] if closer else len(self.text)
                    raise self._error("expected ')' after dotted tail", where)
                self._next()
                return _from_items(items, tail)
            items.append(self.read())


def _from_items(items: list[SExpr], tail: SExpr) -> SExpr:
    out = tail
    for item in reversed(items):
        out = Pair(item, out)
    return out


def parse(text: str) -> SExpr:
    """Parse exactly one expression; trailing tokens are an error."""
    p = _Parser(text)
    expr = p.read()
    extra = p._peek()
    if extra is not None:
        raise p._error(f"surplus input {extra[1]!r}", extra[2])
    return expr


def parse_many(text: str) -> list[SExpr]:
    """Parse a whole source as a sequence of expressions."""
    p = _Parser(text)
    out = []
    while p._peek() is not None:
        out.append(p.read())
    return out


def to_text(e: SExpr) -> str:
    """Canonical printing: list notation wherever the right spine ends in NIL."""
    if isinstance(e, Atom):
        return e.name
    parts = []
    cur: SExpr = e
    while isinstance(cur, Pair):
        parts.append(to_text(cur.left))
        cur = cur.right
    if cur == NIL:
        return "(" + " ".join(parts) + ")"
    return "(" + " ".join(parts) + " . " + to_text(cur) + ")"
