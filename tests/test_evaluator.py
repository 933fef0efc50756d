"""Vector evaluator behavior: structural ops, branching, lambdas, the driver."""

import numpy as np
import pytest

from veclisp import codec, oracle, reader
from veclisp.evaluator import BudgetExceeded, EvalError, EvalSession, SessionConfig
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


def test_the_shadow_knows_bitwise_copies_and_freezes_what_it_holds():
    sess = fresh()
    c = sess.cons(sess.encode(Atom("A")), sess.encode(Atom("B")))
    assert sess._known(c.copy()) == Pair(Atom("A"), Atom("B"))
    with pytest.raises(ValueError):
        c += 1.0  # an in-place write would silently corrupt the shadow
    nudged = c.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert sess._known(nudged) is None


def test_projection_falls_back_to_memory_recall():
    # A pair vector the session never built itself has no shadow entry, so the
    # halves must come back through unbind plus cleanup recall.
    sess = fresh()
    a = sess.encode(Atom("A"))
    b = sess.encode(Atom("B"))
    c = codec.cons_vec(a, b, sess.tags, sess.mem)
    assert sess._known(c) is None
    assert np.array_equal(sess.car(c), a)
    assert np.array_equal(sess.cdr(c), b)


def test_eq_blend_is_truthy_only_for_the_same_atom():
    sess = fresh()
    a = sess.encode(Atom("A"))
    b = sess.encode(Atom("B"))
    assert sess.truthy(sess.eq(a, a))
    assert not sess.truthy(sess.eq(a, b))


def test_atom_probe_checks_both_operand_and_call_tail():
    sess = fresh()
    a = sess.encode(Atom("A"))
    p = sess.encode(parse("(A . B)"))
    assert sess.truthy(sess.atom(a, sess.tags.nil))
    assert not sess.truthy(sess.atom(p, sess.tags.nil))
    # A non-NIL tail means the call had surplus arguments; that poisons it.
    assert not sess.truthy(sess.atom(a, sess.tags.true))


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

    assert not sess._gv(0.05, boom).any()
    # A unit gate skips the multiply entirely, so the payload stays bit-exact.
    a = sess.encode(Atom("A"))
    assert sess._gv(1.0, lambda: a) is a


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


def test_empty_body_yields_nil_before_any_substitution():
    sess = fresh()
    sess.branch_log = []
    assert run(sess, "((LAMBDA (P) ()) (QUOTE A))") == "NIL"
    assert sess.branch_log == [("fcall", "miss"), ("apply", "relabel"), ("apply", "body-nil")]


def test_relabel_validates_parameter_lists():
    sess = fresh()
    body = sess.encode(Atom("P"))
    for params in ["(P . Q)", "((A) B)", "(P P)"]:
        with pytest.raises(EvalError):
            sess.relabel(sess.encode(parse(params)), body)
    y, e2 = sess.relabel(sess.tags.nil, body)
    assert np.array_equal(y, sess.tags.nil) and np.array_equal(e2, body)


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
    args = sess.encode(Pair(parse(value_text), reader.NIL))
    got = sess.lambda_subst(sess.encode(parse(x_text)), sess.encode(parse(e_text)), args)

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
    assert lines == [f"step=1 head=QUOTE sim=1.0000 mem={len(sess.mem)}"]


def test_session_runs_on_a_softmax_memory():
    sess = fresh(dim=512, seed=3, memory_kind="mhn", beta=1000.0)
    assert run(sess, "(CAR (QUOTE (A B)))") == "A"
