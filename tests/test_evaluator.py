"""Vector evaluator behavior: structural ops, branching, lambdas, the driver."""

import inspect
import random
import sys

import numpy as np
import pytest

from veclisp import cleanup, codec, hrr, oracle, reader
from veclisp.evaluator import COLLECT_FLOOR, BudgetExceeded, EvalError, EvalSession, SessionConfig
from veclisp.oracle import OracleEnv
from veclisp.reader import Atom, Pair, parse, to_text

DIM = 1024


def fresh(**kw):
    kw.setdefault("dim", DIM)
    kw.setdefault("seed", 11)
    return EvalSession(SessionConfig(**kw))


def run(sess, text):
    return to_text(sess.run_text(text))


# -- structural operations -------------------------------------------------------


def test_cons_halves_come_back_bit_identical():
    sess = fresh()
    a = sess.encode(Atom("A"))
    b = sess.encode(Atom("B"))
    c = sess.cons(a, b)
    assert np.array_equal(sess.car(c), a)
    assert np.array_equal(sess.cdr(c), b)


def test_a_bitwise_copy_of_a_key_projects_to_the_same_halves():
    sess = fresh()
    a, b = sess.encode(Atom("A")), sess.encode(Atom("B"))
    c = sess.cons(a, b)
    copy = c.copy()
    assert sess.pairs.find(copy) == 0
    assert sess.car(copy) is a and sess.cdr(copy) is b


def test_a_nudged_key_projects_through_the_nearest_key(monkeypatch):
    sess = fresh()
    a, b = sess.encode(Atom("A")), sess.encode(Atom("B"))
    c = sess.cons(a, b)
    sess.cons(b, a)
    nudged = c.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert sess.pairs.find(nudged) is None
    scans = []
    nearest = sess.pairs.nearest
    monkeypatch.setattr(sess.pairs, "nearest", lambda p: scans.append(p) or nearest(p))
    assert sess.car(nudged) is a and sess.cdr(nudged) is b
    assert len(scans) == 2


def test_stored_keys_and_halves_are_read_only():
    sess = fresh()
    a = sess.encode(Atom("A")) * 0.5  # a fresh, writeable half
    b = sess.encode(Atom("B"))
    c = sess.cons(a, b)
    for v in (c, a):
        with pytest.raises(ValueError):
            v += 1.0  # an in-place write would silently corrupt the table
    assert sess.cons(a, b) is c


def test_a_repeated_cons_of_held_halves_binds_nothing(monkeypatch):
    sess = fresh()
    a, b = sess.encode(Atom("A")), sess.encode(Atom("B"))
    c = sess.cons(a, b)
    builds = []
    cons_vec = codec.cons_vec
    monkeypatch.setattr(codec, "cons_vec", lambda *args: builds.append(1) or cons_vec(*args))
    assert sess.cons(a, b) is c
    assert builds == []
    # Bitwise copies are not the held objects: they build a pair vector once,
    # which interns to the same key.
    again = sess.cons(a.copy(), b.copy())
    assert len(builds) == 1
    assert again is c and len(sess.pairs) == 1


@pytest.mark.parametrize("dim", [DIM, 257])
def test_session_keys_are_the_coordinates_of_the_time_domain_pairs(dim):
    # The paper's pair normalize(L * a + R * b + PHI), built by FFT from the
    # atoms of a registry with the session's dim and seed; a session and
    # the codec both build its coordinates.
    sess = fresh(dim=dim)
    registry = hrr.AtomRegistry(dim, 11)
    left, right, phi = (registry.vector(name) for name in (codec.L_NAME, codec.R_NAME, codec.PHI_NAME))

    def built(tree):
        if isinstance(tree, Atom):
            return registry.vector(tree.name)
        return hrr.normalize(hrr.bind(left, built(tree.left)) + hrr.bind(right, built(tree.right)) + phi)

    for text in ("(A . B)", "((A B) . (C (D) . NIL))"):
        tree = parse(text)
        want = hrr.to_coords(built(tree))
        assert np.abs(sess.encode(tree) - want).max() < 1e-12
        assert np.abs(codec.encode(tree, registry, cleanup.CleanupMemory(dim)) - want).max() < 1e-12
    assert np.abs(sess.tags.phi - hrr.to_coords(phi)).max() < 1e-12
    coords = sess.registry.coords
    assert sess.registry.name(coords("A")) == "A"
    # A vector the session did not hand out is named by the registry's nearest atom.
    assert sess.registry.name(coords("B") * 0.5 + 0.1 * coords("A")) == "B"


def test_an_odd_dim_session_agrees_with_the_oracle():
    from veclisp import corpus
    from veclisp.cli import _same_result

    disagree = []
    for name, texts in corpus.PROGRAMS:
        sess, env = fresh(dim=257, seed=1729), OracleEnv()
        for text in texts:
            sess.branch_log, env.branch_log = [], []
            try:
                got = sess.run_text(text)
            except EvalError:
                got = None
            env.steps = 0
            try:
                want = oracle.evaluate(parse(text), env)
            except oracle.OracleError:
                want = None
            if (got is None) != (want is None) or (
                got is not None and not (_same_result(got, want) and sess.branch_log == env.branch_log)
            ):
                disagree.append(name)
                break
    # At low dims a gate can miss now and then: at 257/1729 recursive-last
    # does, as it does with time-domain vectors.
    assert set(disagree) <= {"recursive-last"}, disagree


def test_sessions_answer_alike_with_atoms_drawn_afresh_or_from_the_store(monkeypatch):
    from veclisp import corpus

    draws = []
    vector = hrr.AtomRegistry.vector
    monkeypatch.setattr(hrr.AtomRegistry, "vector", lambda reg, name: draws.append(name) or vector(reg, name))

    def corpus_pass(cold):
        seen = []
        for name, texts in corpus.PROGRAMS:
            if cold:
                hrr._atoms.clear()  # every session draws every atom it names
            sess = EvalSession(SessionConfig())
            for text in texts:
                sess.branch_log = []
                try:
                    got = run(sess, text)
                except EvalError as exc:
                    got = repr(exc)
                seen.append((name, got, sess.steps, sess.branch_log))
            seen.append([key.tobytes() for key in sess.pairs.keys])
        return seen

    cold = corpus_pass(cold=True)
    drawn = len(draws)
    assert corpus_pass(cold=False) == cold
    # The cold sessions drew their names again and again; the warm pass drew
    # each name at most once, and only those the last clear let go.
    warm = draws[drawn:]
    assert len(set(draws[:drawn])) < drawn and len(set(warm)) == len(warm) < drawn


def test_similarities_of_read_only_operands_are_computed_once(monkeypatch):
    sess = fresh()
    a, b = sess.encode(Atom("A")), sess.encode(Atom("B"))
    key = sess.cons(a, b)
    pairs = ((a, b), (key, sess.tags.phi), (b, key), (key, key))
    want = [np.float64(hrr.similarity(u, v)).tobytes() for u, v in pairs]
    calls = []
    similarity = hrr.similarity
    monkeypatch.setattr(hrr, "similarity", lambda u, v: calls.append(1) or similarity(u, v))
    for _ in range(3):
        assert [np.float64(sess._sim(u, v)).tobytes() for u, v in pairs] == want
    assert len(calls) == len(pairs)
    # A writeable operand, on either side, is never memoized: a write between
    # two calls shows in the second.
    for w, other in ((a.copy(), b), (b.copy(), a)):
        args = [(w, other), (other, w)]
        first = [sess._sim(u, v) for u, v in args]
        w[:] = other
        assert max(first) < 0.5 and [sess._sim(u, v) for u, v in args] == [1.0, 1.0]


def test_evaluation_stores_no_halves_in_the_flat_memory_and_never_calls_codec_decode(monkeypatch):
    from veclisp import corpus

    def forbidden(*args, **kw):
        raise AssertionError("evaluation decoded a vector")

    # Evaluation builds no tree: only the final answer is decoded.
    monkeypatch.setattr(codec, "decode", forbidden)
    monkeypatch.setattr(EvalSession, "decode", forbidden)
    for name, sources in corpus.PROGRAMS:
        sess = EvalSession(SessionConfig())
        for src in sources:
            try:
                sess.eval_expr(sess.encode(parse(src)))
            except EvalError:
                pass  # the corpus's error programs; the vector side's errors are its own
        assert len(sess.mem) == 3, name  # NIL, T and F
        assert len(sess.pairs) > 0, name


def test_a_long_quoted_list_decodes_without_a_depth_limit():
    sess = fresh(dim=512, seed=5)
    text = "(" + " ".join(f"X{i}" for i in range(100)) + ")"
    assert run(sess, f"(QUOTE {text})") == text


def test_decode_visits_a_repeated_row_once(monkeypatch):
    sess = fresh()
    v = sess.encode(parse("((A B) (A B))"))
    calls = []
    name = sess.registry.name
    monkeypatch.setattr(sess.registry, "name", lambda x: calls.append(1) or name(x))
    assert to_text(sess.decode(v)) == "((A B) (A B))"
    # A, B and NIL under the shared (A B) row, then the spine's last NIL; a
    # walk that decoded the row twice would look up 7 atoms.
    assert len(calls) == 4


def test_a_row_that_reaches_itself_raises_decode_error():
    # x is not a key, so it projects through the nearest key: the very row
    # that holds it as a half.
    sess = fresh()
    x = codec.cons_vec(sess.encode(Atom("C")), sess.encode(Atom("D")), sess.tags)
    r = sess.cons(sess.encode(Atom("A")), x)
    assert len(sess.pairs) == 1
    assert hrr.similarity(x, r) >= sess.thresholds.theta_down
    with pytest.raises(codec.DecodeError):
        sess.decode(r)


def test_a_probe_no_stored_pair_answers_raises():
    # A pair vector with no key at or above theta_down, here in an empty
    # table, has no halves to give.
    sess = fresh()
    a = sess.encode(Atom("A"))
    b = sess.encode(Atom("B"))
    c = codec.cons_vec(a, b, sess.tags)
    for project in (sess.car, sess.cdr):
        with pytest.raises(EvalError, match="no stored pair answers this probe"):
            project(c)
    with pytest.raises(codec.DecodeError):
        sess.decode(c)
    # With a key present: a probe without the PHI marker stays below it.
    sess.cons(sess.encode(Atom("X")), sess.encode(Atom("Y")))
    probe = hrr.normalize(hrr.bind_coords(sess.tags.left, a) + hrr.bind_coords(sess.tags.right, b))
    assert hrr.similarity(probe, sess.pairs.traces[0]) < sess.thresholds.theta_down
    for project in (sess.car, sess.cdr):
        with pytest.raises(EvalError, match="no stored pair answers this probe"):
            project(probe)
    # Projecting an atom is the oracle's "CAR of an atom is undefined".
    with pytest.raises(EvalError):
        run(sess, "(CAR (QUOTE A))")


def truthy(sess, v):
    """Whether ``v`` is more like T than like F."""
    return hrr.similarity(v, sess.tags.true) > hrr.similarity(v, sess.tags.false)


def test_eq_blend_is_truthy_only_for_the_same_atom():
    sess = fresh()
    a = sess.encode(Atom("A"))
    b = sess.encode(Atom("B"))
    assert truthy(sess, sess.eq(a, a))
    assert not truthy(sess, sess.eq(a, b))


@pytest.mark.parametrize("args", ["(QUOTE (A)) (QUOTE A)", "(QUOTE A) (QUOTE (A))", "(QUOTE (A)) (QUOTE (A))"])
def test_eq_on_non_atoms_raises_as_in_the_oracle(args):
    text = f"(EQ {args})"
    with pytest.raises(oracle.OracleError, match="EQ on non-atoms is undefined"):
        oracle.evaluate(parse(text), OracleEnv())
    with pytest.raises(EvalError, match="EQ on non-atoms is undefined"):
        run(fresh(), text)


def test_atom_probe_checks_both_operand_and_call_tail():
    sess = fresh()
    a = sess.encode(Atom("A"))
    p = sess.encode(parse("(A . B)"))
    assert truthy(sess, sess.atom(a, sess.tags.nil))
    assert not truthy(sess, sess.atom(p, sess.tags.nil))
    # A non-NIL tail means the call had surplus arguments; that poisons it.
    assert not truthy(sess, sess.atom(a, sess.tags.true))


def blended(sess, a, n):
    """ATOM of ``a`` and ``n`` as blend, recall and tail mix, with no shortcut."""
    tags, down = sess.tags, sess.thresholds.theta_down
    s_a, s_n = hrr.similarity(a, tags.phi), hrr.similarity(n, tags.nil)
    cleaned = sess.mem.recall(s_a * tags.false + max(0.0, 2.0 * down - s_a) * tags.true)
    return s_n * cleaned + max(0.0, 2.0 * down - s_n) * tags.false


def counting_recalls(monkeypatch, sess):
    calls = []
    recall = sess.mem.recall
    monkeypatch.setattr(sess.mem, "recall", lambda p: calls.append(1) or recall(p))
    return calls


def test_atom_and_eq_return_the_held_truth_tags_bitwise_as_blend_and_recall(monkeypatch):
    sess = fresh()
    tags = sess.tags
    a, b, p = sess.encode(Atom("A")), sess.encode(Atom("B")), sess.encode(parse("(A . B)"))
    calls = counting_recalls(monkeypatch, sess)
    assert sess.atom(a, tags.nil) is tags.true and sess.atom(p, tags.nil) is tags.false
    assert sess.eq(a, a) is tags.true
    assert sess.eq(a, a).tobytes() == (1.0 * tags.true + 0.0 * tags.false).tobytes()
    for x, n in ((a, tags.nil), (p, tags.nil), (a, b), (p, tags.true), (tags.nil, tags.nil)):
        assert sess.atom(x, n).tobytes() == blended(sess, x, n).tobytes()
    assert len(calls) == 5  # blended's own
    # A planted tie: with theta_down 0 a zero operand blends to the zero
    # vector, which every row scores alike, so the snap takes the recall.
    sess = fresh(theta_down=0.0)
    calls = counting_recalls(monkeypatch, sess)
    zero = np.zeros(DIM)
    got = sess.atom(zero, sess.tags.nil)
    assert len(calls) == 1 and got.tobytes() == blended(sess, zero, sess.tags.nil).tobytes()
    # Other memory kinds recall on every ATOM.
    sess = fresh(memory_kind="mhn")
    calls = counting_recalls(monkeypatch, sess)
    a = sess.encode(Atom("A"))
    got = sess.atom(a, sess.tags.nil)
    assert len(calls) == 1 and got.tobytes() == blended(sess, a, sess.tags.nil).tobytes()


def test_atomicity_probe():
    sess = fresh()
    assert sess.is_atomic(sess.encode(Atom("ZEBRA")))
    assert not sess.is_atomic(sess.encode(parse("(A . B)")))


# -- define -----------------------------------------------------------------------


def test_define_returns_done_and_stores_the_body():
    sess = fresh()
    assert run(sess, "(DEFINE SND (LAMBDA (P) (CAR (CDR P))))") == "#DONE"
    assert len(sess.fns) == 1
    assert run(sess, "((SND (QUOTE (A B))))") == "B"


def test_define_rejects_a_pair_name():
    sess = fresh()
    name = sess.encode(parse("(A B)"))
    with pytest.raises(EvalError, match="atomic name"):
        sess.define(name, sess.encode(Atom("C")))


def test_redefinition_replaces_the_row_in_place():
    sess = fresh()
    run(sess, "(DEFINE PICK (LAMBDA (P) (CAR P)))")
    run(sess, "(DEFINE PICK (LAMBDA (P) (CDR P)))")
    assert len(sess.fns) == 1
    assert run(sess, "((PICK (QUOTE (A B))))") == "(B)"


def test_a_definition_is_a_table_row_of_the_sessions_one_table(monkeypatch):
    memories = []
    init = cleanup.CleanupMemory.__init__
    monkeypatch.setattr(cleanup.CleanupMemory, "__init__", lambda self, *a, **kw: memories.append(1) or init(self, *a, **kw))
    sess = fresh()
    run(sess, "(DEFINE SWAP (LAMBDA (P) (CONS (CDR P) (CAR P))))")
    (row,) = sess.fns
    name, body = sess.pairs.halves[row]
    assert to_text(sess.decode(name)) == "SWAP" and to_text(sess.decode(body)).startswith("(LAMBDA")
    assert len(memories) == 1  # the NIL/T/F rows of ATOM's truth snap; definitions need none


def test_a_call_of_a_defined_function_finds_no_key_by_bytes(monkeypatch):
    # The call takes the held key of its definition, so every projection is an identity hit.
    sess = fresh()
    run(sess, "(DEFINE SWAP (LAMBDA (P) (CONS (CDR P) (CAR P))))")
    finds = []
    find = sess.pairs.find
    monkeypatch.setattr(sess.pairs, "find", lambda t: finds.append(1) or find(t))
    assert run(sess, "((SWAP (QUOTE (A . B))))") == "(B . A)"
    assert finds == []


# -- cond -------------------------------------------------------------------------


def test_cond_takes_the_first_true_clause_without_touching_the_rest():
    sess = fresh()
    sess.branch_log = []
    out = run(sess, "(COND ((QUOTE T) . (QUOTE A)) ((QUOTE T) . (QUOTE B)))")
    assert out == "A"
    assert sess.branch_log == [("cond", "take")]


def test_cond_falls_through_a_false_guard():
    sess = fresh()
    sess.branch_log = []
    out = run(sess, "(COND ((EQ (QUOTE A) (QUOTE B)) . (QUOTE X)) ((QUOTE T) . (QUOTE B)))")
    assert out == "B"
    assert sess.branch_log == [("cond", "next"), ("cond", "take")]


def test_cond_with_no_true_clause_raises():
    sess = fresh()
    with pytest.raises(EvalError, match="cond exhausted"):
        sess.run_text("(COND ((EQ (QUOTE A) (QUOTE B)) . (QUOTE X)))")


def test_gated_payload_is_never_forced_below_the_lower_threshold():
    sess = fresh()

    def boom():
        raise AssertionError("forced a gated-off payload")

    a = sess.encode(Atom("A"))
    assert hrr.cascade([(lambda: 0.05, boom)], lambda: a, sess.thresholds) is a
    # A unit gate skips the multiply entirely, so the payload stays bit-exact.
    assert hrr.cascade([(lambda: 1.0, lambda: a)], boom, sess.thresholds) is a


LAST = "(DEFINE LAST (LAMBDA (P) (COND ((ATOM (CDR P)) . (CAR P)) ((QUOTE T) . ((LAST (CDR P)))))))"


def last_call(n):
    return f"((LAST (QUOTE ({' '.join(f'X{i}' for i in range(n))}))))"


def run_within(sess, text, frames):
    """Run ``text`` with the recursion limit ``frames`` above the caller's depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + frames)
    try:
        return run(sess, text)
    finally:
        sys.setrecursionlimit(limit)


def test_cond_falls_through_without_a_stack_frame():
    # COND walks its clauses in a loop: a LAST element costs 6 frames, so 40
    # elements fit in 400, which a fall-through by recursion (11) overruns.
    sess = fresh(dim=512, seed=5)
    run(sess, LAST)
    assert run_within(sess, last_call(40), 400) == "X39"


def test_a_depth_limit_is_a_budget_error():
    sess = fresh(dim=512, seed=5)
    run(sess, LAST)
    with pytest.raises(BudgetExceeded, match="recursion limit"):
        run_within(sess, last_call(40), 150)


# -- lambda machinery ---------------------------------------------------------------


def test_lambda_application_end_to_end():
    sess = fresh()
    assert run(sess, "(((LAMBDA (P) (CONS P (QUOTE B))) (QUOTE A)))") == "(A . B)"


def test_capture_avoidance_matches_the_oracle():
    sess = fresh()
    out = run(sess, "((((LAMBDA (P Q) (CONS P Q)) (QUOTE Q)) (QUOTE A)))")
    assert out == "(Q . A)"


def test_lambda_expression_is_ordinary_data():
    sess = fresh()
    assert run(sess, "(LAMBDA (P) P)") == "(LAMBDA (P) P)"


def test_partial_application_leaves_a_renamed_lambda():
    sess = fresh()
    out = sess.run_text("((LAMBDA (P Q) (CONS P Q)) (QUOTE A))")
    assert isinstance(out, Pair) and out.left == Atom("LAMBDA")
    params = out.right.left
    assert isinstance(params, Pair) and params.right == reader.NIL
    assert params.left.name.startswith(codec.GENSYM_PREFIX)


def test_nullary_lambda_runs_its_body_on_the_implicit_nil_call():
    sess = fresh()
    sess.branch_log = []
    assert run(sess, "((LAMBDA () (QUOTE A)))") == "A"
    # The head is itself evaluated first, which is a definition-store miss.
    assert sess.branch_log == [("fcall", "miss"), ("apply", "relabel"), ("apply", "params-done")]


def test_a_lambda_applied_to_no_argument_binds_its_parameter_to_nil_on_both_twins():
    # The empty call tail is the argument NIL, as in the oracle's _eval_call_arg.
    text = "((LAMBDA (X) (CONS X X)))"
    want_log = [("fcall", "miss"), ("apply", "relabel"), ("apply", "curry"), ("subst", 7), ("subst", 5),
                ("subst", 5), ("subst", 2), ("fcall", "miss")]
    sess = fresh()
    sess.branch_log = []
    assert run(sess, text) == "(LAMBDA NIL (CONS NIL NIL))"
    assert sess.branch_log == want_log
    env = OracleEnv(branch_log=[])
    assert to_text(oracle.evaluate(parse(text), env)) == "(LAMBDA NIL (CONS NIL NIL))"
    assert env.branch_log == want_log


def test_empty_body_yields_nil_before_any_substitution():
    sess = fresh()
    sess.branch_log = []
    assert run(sess, "((LAMBDA (P) ()) (QUOTE A))") == "NIL"
    assert sess.branch_log == [("fcall", "miss"), ("apply", "relabel"), ("apply", "body-nil")]


def test_relabel_validates_parameter_lists():
    sess = fresh()
    body = sess.encode(Atom("P"))
    # A non-atom parameter, an improper list (twice), a duplicate name and
    # NIL, each rejected with the oracle's message.
    for params in ["((A) B)", "(P . Q)", "P", "(P P)", "(P NIL)"]:
        with pytest.raises(oracle.OracleError) as want:
            oracle.relabel(parse(params), Atom("P"), OracleEnv())
        with pytest.raises(EvalError) as got:
            sess.relabel(sess.encode(parse(params)), body)
        assert str(got.value) == str(want.value)
    y, e2 = sess.relabel(sess.tags.nil, body)
    assert np.array_equal(y, sess.tags.nil) and np.array_equal(e2, body)


def test_a_parameter_named_nil_is_rejected_on_both_twins():
    # Renaming NIL would rename every list terminator in the body: here the
    # ATOM call would gain a surplus argument, which the twins treat apart.
    # An enclosing application can substitute NIL into a parameter list.
    for text in ["(((LAMBDA (NIL) (ATOM (QUOTE A))) (QUOTE X)))",
                 "(((LAMBDA (P) (((LAMBDA (P) (ATOM (QUOTE A))) (QUOTE X)))) NIL))"]:
        with pytest.raises(EvalError, match="NIL cannot be a parameter"):
            run(fresh(), text)
        with pytest.raises(oracle.OracleError, match="NIL cannot be a parameter"):
            oracle.evaluate(parse(text), OracleEnv())


def test_relabel_keys_are_the_encoding_of_the_renamed_tree():
    params, body = parse("(P Q)"), parse("((Q P) (P Q) P . R)")
    g1, g2 = (Atom(f"{codec.GENSYM_PREFIX}{i}") for i in (1, 2))

    def rename(tree):
        if isinstance(tree, Pair):
            return Pair(rename(tree.left), rename(tree.right))
        return {"P": g1, "Q": g2}.get(tree.name, tree)

    renamed = rename(body)
    sess, twin = fresh(), fresh()
    x, e = sess.encode(params), sess.encode(body)
    twin.encode(params), twin.encode(body)
    y, e2 = sess.relabel(x, e)
    # The fresh list is consed before the body, each bottom-up and left
    # first, so the table's rows are those of encoding the renamed trees.
    want_y, want_e2 = twin.encode(Pair(g1, Pair(g2, reader.NIL))), twin.encode(renamed)
    assert [k.tobytes() for k in sess.pairs.keys] == [k.tobytes() for k in twin.pairs.keys]
    assert y.tobytes() == want_y.tobytes() and e2.tobytes() == want_e2.tobytes()

    def built(tree):
        if isinstance(tree, Atom):
            return sess.registry.coords(tree.name)
        return codec.cons_vec(built(tree.left), built(tree.right), sess.tags)

    assert y.tobytes() == built(Pair(g1, Pair(g2, reader.NIL))).tobytes()
    assert e2.tobytes() == built(renamed).tobytes()


def test_every_table_key_is_the_cons_of_its_halves_after_a_curried_application():
    # An application stores no key of its own, so every row is a built pair
    # at unit norm and the table's dot-product nearest key is the cosine one.
    sess = fresh()
    assert run(sess, "((((LAMBDA (P Q) (CONS Q P)) (QUOTE A)) (QUOTE B)))") == "(B . A)"
    for key, (left, right) in zip(sess.pairs.keys, sess.pairs.halves):
        assert key.tobytes() == codec.cons_vec(left, right, sess.tags).tobytes()
    norms = np.linalg.norm(sess.pairs.traces, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_relabel_renames_every_occurrence_with_prefixed_atoms():
    sess = fresh()
    y, e2 = sess.relabel(sess.encode(parse("(P Q)")), sess.encode(parse("(P (Q P) . R)")))
    params = sess.decode(y)
    body = sess.decode(e2)
    p2, q2 = params.left, params.right.left
    assert p2.name.startswith(codec.GENSYM_PREFIX) and q2.name.startswith(codec.GENSYM_PREFIX)
    assert p2 != q2
    assert body == Pair(p2, Pair(Pair(q2, Pair(p2, reader.NIL)), Atom("R")))


# -- substitution, checked against the oracle ------------------------------------------


SUBST_CASES = [
    ("()", "(P Q)", "V"),
    ("(P)", "()", "V"),
    ("(P)", "P", "V"),
    ("(P)", "Z", "V"),
    ("(P)", "(P R)", "V"),
    ("(P)", "((P) P)", "V"),
    ("(P)", "(Z P)", "V"),
    ("(P)", "(P . P)", "V"),
]


@pytest.mark.parametrize("x_text,e_text,value_text", SUBST_CASES)
def test_substitution_agrees_with_the_oracle(x_text, e_text, value_text):
    sess = fresh()
    sess.branch_log = []
    value = sess.encode(parse(value_text))
    got = sess.lambda_subst(sess.encode(parse(x_text)), sess.encode(parse(e_text)), value)

    env = OracleEnv(branch_log=[])
    want = oracle.substitute(parse(x_text), parse(e_text), parse(value_text), env)

    assert sess.decode(got) == want
    assert sess.branch_log == env.branch_log


# -- function calls and the driver ----------------------------------------------------


def test_unknown_name_stays_data_with_its_tail_unevaluated():
    sess = fresh()
    sess.branch_log = []
    assert run(sess, "(FOO (QUOTE A))") == "(FOO (QUOTE A))"
    assert sess.branch_log == [("fcall", "miss")]


def test_known_name_substitutes_the_stored_body():
    sess = fresh()
    run(sess, "(DEFINE WRAP (LAMBDA (P) (CONS P ())))")
    sess.branch_log = []
    assert run(sess, "((WRAP (QUOTE A)))") == "(A)"
    assert ("fcall", "hit") in sess.branch_log


def test_atoms_evaluate_to_themselves_bit_for_bit():
    sess = fresh()
    v = sess.encode(Atom("SELF"))
    assert np.array_equal(sess.eval_expr(v), v)


def test_runaway_recursion_hits_the_step_budget():
    sess = fresh(dim=512, seed=5, step_limit=400)
    run(sess, "(DEFINE LOOP (LAMBDA (P) ((LOOP P))))")
    with pytest.raises(BudgetExceeded):
        sess.run_text("((LOOP (QUOTE A)))")


def test_each_top_level_expression_gets_a_fresh_budget():
    sess = fresh(dim=512, seed=5, step_limit=60)
    for _ in range(3):
        assert run(sess, "(CONS (QUOTE A) ())") == "(A)"


def test_trace_lines_report_step_head_and_similarity():
    sess = fresh()
    lines = []
    sess.trace_sink = lines.append
    run(sess, "(QUOTE A)")
    # mem= counts the pair table's rows: (QUOTE A) is the two pairs (QUOTE . (A)) and (A).
    assert lines == ["step=1 head=QUOTE sim=1.0000 mem=2"]
    run(sess, "(CONS (QUOTE B) ())")
    assert len(sess.pairs) > 2 and lines[-1].endswith(f" mem={len(sess.pairs)}")


def test_session_runs_on_a_softmax_memory():
    sess = fresh(dim=512, seed=3, memory_kind="mhn", beta=1000.0)
    assert run(sess, "(CAR (QUOTE (A B)))") == "A"


# -- collection ---------------------------------------------------------------------


def test_a_collection_leaves_no_id_map_entry_on_a_dropped_row():
    sess = fresh()
    run(sess, "(DEFINE KEEP (LAMBDA (P) (CONS P (QUOTE Z))))")
    defined = sess.pairs.keys[sess.fns[0]]
    dead = sess.encode(parse("((DEAD . PAIR) . GONE)"))
    inner = sess.car(dead)
    halves = [v.copy() for v in sess.pairs.halves[sess.pairs.held(inner)]]
    assert sess.is_atomic(dead) is False  # a kept similarity on the dead key
    rows = len(sess.pairs)
    sess.collect()
    table = sess.pairs
    assert sess.collections == 1 and len(table) < rows
    assert table.keys[sess.fns[0]] is defined
    for dropped in (dead, inner):
        assert table.held(dropped) is None and table.find(dropped) is None
    assert not any(id(dead) in ids for ids in sess._sims)
    # Every id pair left names the halves of the row it maps to.
    assert all(ids == tuple(map(id, table.halves[row])) for ids, row in table._built.items())
    rebuilt = sess.cons(*halves)
    assert rebuilt.tobytes() == inner.tobytes()
    row = table.held(rebuilt)
    assert row == len(table) - 1 and all(a is b for a, b in zip(table.halves[row], halves))
    sess.branch_log = []
    assert run(sess, "((KEEP (QUOTE A)))") == "(A . Z)"
    assert ("fcall", "hit") in sess.branch_log


def test_a_long_repl_session_keeps_its_table_under_a_fixed_bound():
    # 2,000 lines: eight names redefined in turn, calls of them and lists, all
    # over fresh atoms.  The live definitions stay few, so the table must too:
    # a collection keeps only what they reach, and ``run`` collects before
    # the table passes COLLECT_FLOOR rows plus one line's worth.
    sess, env = fresh(dim=512), OracleEnv()
    sizes = []
    for n in range(2000):
        name, a, b = f"F{n // 4 % 8}", f"X{n}", f"Y{n}"
        text = (
            f"(DEFINE {name} (LAMBDA (P) (CONS P (QUOTE {a}))))",
            f"(({name} (QUOTE ({a} {b}))))",
            f"(({name} (QUOTE {a})))",
            f"(CONS (QUOTE {a}) (CONS (QUOTE {b}) ()))",
        )[n % 4]
        sizes.append(len(sess.pairs))
        env.steps = 0
        assert run(sess, text) == to_text(oracle.evaluate(parse(text), env)), text
    assert sess.collections >= 10
    assert max(sizes) <= COLLECT_FLOOR + 32
