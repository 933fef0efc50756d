"""Reader tests: surface syntax, canonical printing, positioned errors, and
print/parse round-trips over random trees."""
import os
import random
import subprocess
import sys

import pytest

from veclisp.reader import NIL, Atom, Pair, ParseError, parse, parse_many, to_text


def test_dotted_pair():
    assert parse("(a . b)") == Pair(Atom("a"), Atom("b"))


def test_list_sugar_desugars_to_nested_pairs():
    assert parse("(a b c)") == Pair(Atom("a"), Pair(Atom("b"), Pair(Atom("c"), NIL)))


def test_empty_list_is_nil():
    assert parse("()") == NIL
    assert parse("NIL") == NIL


def test_mixed_list_and_dot():
    assert parse("(a b . c)") == Pair(Atom("a"), Pair(Atom("b"), Atom("c")))
    assert parse("(a . (b . ()))") == parse("(a b)")


def test_nested_lists():
    assert parse("((a) (b c))") == Pair(
        Pair(Atom("a"), NIL), Pair(Pair(Atom("b"), Pair(Atom("c"), NIL)), NIL)
    )


def test_atoms_are_case_sensitive_alphanumerics():
    assert parse("abc") != parse("ABC")
    assert parse("A1B2") == Atom("A1B2")


def test_whitespace_is_flexible():
    assert parse("( a\n\tb )") == parse("(a b)")


def test_comments_run_to_end_of_line():
    assert parse("(a ; trailing words () . \n b)") == parse("(a b)")
    assert parse_many("; whole line\n(a)\n; footer") == [parse("(a)")]


def test_parse_many_splits_expressions():
    out = parse_many("(a) b (c . d)")
    assert out == [parse("(a)"), Atom("b"), parse("(c . d)")]
    assert parse_many("  ; nothing\n") == []


# -- errors ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, fragment",
    [
        (")", "unmatched ')'"),
        ("(a", "unterminated list"),
        ("(. a)", "misplaced '.'"),
        (".", "misplaced '.'"),
        ("(a . b c)", "expected ')' after dotted tail"),
        ("(a @)", "illegal character '@'"),
        ("", "unexpected end of input"),
        ("a b", "surplus input 'b'"),
        ("(a . )", "unmatched ')'"),
        ("(a .", "unexpected end of input"),
    ],
)
def test_parse_errors_carry_a_message(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse("(a\n  !)")
    assert exc.value.line == 2 and exc.value.column == 3
    with pytest.raises(ParseError) as exc:
        parse("(x")
    assert exc.value.line == 1 and exc.value.column == 1


# -- printing ------------------------------------------------------------------------


def test_print_prefers_list_notation():
    assert to_text(parse("(a b c)")) == "(a b c)"
    assert to_text(parse("(a . b)")) == "(a . b)"
    assert to_text(parse("(a b . c)")) == "(a b . c)"
    assert to_text(NIL) == "NIL"
    assert to_text(parse("()")) == "NIL"
    assert to_text(parse("((a) ())")) == "((a) NIL)"


def test_print_parse_canonicalizes_idempotently():
    for text in ["( a   b\n c )", "(a . (b . ()))", "(a.(b.c))"]:
        once = to_text(parse(text))
        assert to_text(parse(once)) == once


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return Atom(rng.choice(["A", "B", "C", "NIL", "x1", "Y2z"]))
    return Pair(random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_round_trip_over_random_trees():
    rng = random.Random(1234)
    for _ in range(10_000):
        tree = random_tree(rng, 8)
        assert parse(to_text(tree)) == tree


def test_pair_hash_survives_pickling_across_processes():
    # String hashes depend on the process's hash seed, so an unpickled Pair must
    # not carry the hash it cached where it was built.
    script = (
        "import pickle, sys\n"
        "from veclisp.reader import parse\n"
        "if sys.argv[1] == 'dump':\n"
        "    sys.stdout.buffer.write(pickle.dumps(parse('(A (B . C) D)')))\n"
        "else:\n"
        "    got = pickle.loads(sys.stdin.buffer.read())\n"
        "    assert {parse('(A (B . C) D)'): 1}[got] == 1\n"
    )

    def run(seed, arg, stdin=b""):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run([sys.executable, "-c", script, arg], input=stdin, env=env,
                              capture_output=True, check=True, timeout=60).stdout

    run("2", "load", run("1", "dump"))
