"""Reference interpreter tests.

Expected values here are worked out by hand from the classical substitution
semantics; the point of this module is that the oracle itself never drifts,
since everything else is checked against it.
"""
import pytest

from veclisp import oracle
from veclisp.oracle import OracleEnv, OracleError
from veclisp.reader import NIL, Atom, Pair, parse, to_text


def run(text, env=None):
    env = env or OracleEnv()
    return oracle.evaluate(parse(text), env)


def run_all(texts):
    env = OracleEnv()
    out = []
    for t in texts:
        env.steps = 0
        out.append(to_text(oracle.evaluate(parse(t), env)))
    return out


# -- plain evaluation -----------------------------------------------------------


def test_atoms_evaluate_to_themselves():
    assert run("A") == Atom("A")
    assert run("NIL") == NIL


@pytest.mark.parametrize(
    "text, want",
    [
        ("(CONS (QUOTE A) (QUOTE B))", "(A . B)"),
        ("(CONS (QUOTE A) ())", "(A)"),
        ("(CAR (QUOTE (A B)))", "A"),
        ("(CDR (QUOTE (A B)))", "(B)"),
        ("(CDR (QUOTE (A . B)))", "B"),
        ("(CAR (CDR (QUOTE (A B C))))", "B"),
        ("(EQ (QUOTE A) (QUOTE A))", "T"),
        ("(EQ (QUOTE A) (QUOTE B))", "F"),
        ("(EQ () ())", "T"),
        ("(ATOM (QUOTE A))", "T"),
        ("(ATOM (QUOTE (A . B)))", "F"),
        ("(ATOM ())", "T"),
        ("(QUOTE (CAR X))", "(CAR X)"),
        ("(COND ((QUOTE T) . (QUOTE A)))", "A"),
        ("(COND ((EQ (QUOTE A) (QUOTE B)) . (QUOTE X)) ((QUOTE T) . (QUOTE Y)))", "Y"),
    ],
)
def test_builtin_evaluation(text, want):
    assert to_text(run(text)) == want


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(CAR (QUOTE A))", "CAR of an atom"),
        ("(CDR (QUOTE A))", "CDR of an atom"),
        ("(EQ (QUOTE (A)) (QUOTE (A)))", "EQ on non-atoms"),
        ("(COND ((QUOTE A) . (QUOTE B)))", "cond exhausted"),
        ("(COND)", "cond exhausted"),
        ("(COND X)", "clause must be a pair"),
        ("(CAR)", "missing argument"),
        ("(EQ (QUOTE A))", "missing argument"),
        ("(DEFINE (QUOTE (A)) (QUOTE B))", "DEFINE requires an atomic name"),
    ],
)
def test_evaluation_errors(text, fragment):
    with pytest.raises(OracleError) as exc:
        run(text)
    assert fragment in str(exc.value)


def test_define_binds_and_returns_the_done_marker():
    env = OracleEnv()
    out = run("(DEFINE SELF (LAMBDA (P) P))", env)
    assert out == Atom("#DONE")
    assert to_text(env.defs["SELF"]) == "(LAMBDA (P) P)"


def test_define_redefinition_replaces():
    outs = run_all(
        [
            "(DEFINE K (LAMBDA (P) (QUOTE FIRST)))",
            "((K (QUOTE A)))",
            "(DEFINE K (LAMBDA (P) (QUOTE SECOND)))",
            "((K (QUOTE A)))",
        ]
    )
    assert outs == ["#DONE", "FIRST", "#DONE", "SECOND"]


def test_unknown_function_names_stay_data():
    env = OracleEnv(branch_log=[])
    out = run("(MYSTERY (QUOTE A) B)", env)
    assert to_text(out) == "(MYSTERY (QUOTE A) B)"
    assert env.branch_log == [("fcall", "miss")]


def test_known_function_names_log_a_hit():
    env = OracleEnv(branch_log=[])
    run("(DEFINE ID (LAMBDA (P) P))", env)
    env.branch_log.clear()
    out = run("((ID (QUOTE W)))", env)
    assert out == Atom("W")
    assert env.branch_log[0] == ("fcall", "hit")


# -- lambda machinery ---------------------------------------------------------------


def test_lambda_application_is_curried():
    assert to_text(run("((((LAMBDA (P Q) (CONS Q P)) (QUOTE A)) (QUOTE B)))")) == "(B . A)"


def test_lambda_no_params_returns_body():
    assert run("((LAMBDA () (QUOTE A)))") == Atom("A")


def test_lambda_nil_body_returns_nil():
    assert run("((LAMBDA (P) NIL) (QUOTE B))") == NIL


def test_capture_avoidance_by_relabeling():
    # Passing the literal name of the second parameter must not capture it.
    out = run("((((LAMBDA (P Q) (CONS P Q)) (QUOTE Q)) (QUOTE A)))")
    assert to_text(out) == "(Q . A)"


def test_partial_application_leaves_a_lambda():
    out = run("((LAMBDA (P Q) (CONS P Q)) (QUOTE A))")
    assert isinstance(out, Pair) and out.left == Atom("LAMBDA")
    params = out.right.left
    assert isinstance(params, Pair) and params.right == NIL
    assert params.left.name.startswith(oracle.GENSYM_PREFIX)


def test_malformed_lambda_shapes_raise():
    env = OracleEnv()
    for text in ["(LAMBDA)", "(LAMBDA (P))", "(LAMBDA (P) P P)"]:
        with pytest.raises(OracleError, match="malformed lambda expression"):
            oracle.apply_lambda(parse(text), Atom("A"), env)


def test_relabel_validates_parameter_lists():
    env = OracleEnv()
    for params in ["(P . Q)", "((A) B)", "(P P)", "A", "(NIL)"]:
        with pytest.raises(OracleError):
            oracle.relabel(parse(params), parse("P"), env)
    fresh, body = oracle.relabel(NIL, parse("(A B)"), env)
    assert fresh == NIL and body == parse("(A B)")


def test_relabel_renames_every_occurrence():
    env = OracleEnv()
    fresh, body = oracle.relabel(parse("(P Q)"), parse("(P (Q P) . R)"), env)
    p2, q2 = fresh.left, fresh.right.left
    assert body == Pair(p2, Pair(Pair(q2, Pair(p2, NIL)), Atom("R")))


# -- substitution branches -------------------------------------------------------------


def subst(x_text, e_text, value_text):
    env = OracleEnv(branch_log=[])
    out = oracle.substitute(parse(x_text), parse(e_text), parse(value_text), env)
    return to_text(out), env.branch_log


def test_substitute_branch_catalog():
    # exhausted parameter list leaves the body alone
    assert subst("()", "(P Q)", "V") == ("(P Q)", [("subst", 1)])
    # empty body stays empty
    assert subst("(P)", "()", "V") == ("NIL", [("subst", 2)])
    # the body IS the parameter
    assert subst("(P)", "P", "V") == ("V", [("subst", 3)])
    # some other atom
    assert subst("(P)", "Z", "V") == ("Z", [("subst", 4)])
    # head position
    out, log = subst("(P)", "(P R)", "V")
    assert out == "(V R)" and log[0] == ("subst", 5)
    # nonatomic head recurses into both halves, left first
    out, log = subst("(P)", "((P) P)", "V")
    assert out == "((V) V)" and log[0] == ("subst", 6)
    assert log[1:] == [("subst", 5), ("subst", 2), ("subst", 5), ("subst", 2)]
    # atomic non-parameter head walks the tail
    out, log = subst("(P)", "(Z P)", "V")
    assert out == "(Z V)" and log[0] == ("subst", 7)


def test_substitute_listed_precedence_on_the_ambiguous_overlap():
    # A head equal to a later parameter is still branch 5 for the current one.
    out, log = subst("(P)", "(P . P)", "V")
    assert out == "(V . V)" and log[0] == ("subst", 5)


# -- recursion and budgets ---------------------------------------------------------------


def test_recursive_function_through_the_definition_store():
    outs = run_all(
        [
            "(DEFINE LAST (LAMBDA (P) (COND ((ATOM (CDR P)) . (CAR P))"
            " ((QUOTE T) . ((LAST (CDR P)))))))",
            "((LAST (QUOTE (A B C))))",
            "((LAST (QUOTE (A))))",
        ]
    )
    assert outs == ["#DONE", "C", "A"]


def test_step_budget_stops_runaway_recursion():
    env = OracleEnv(step_limit=200)
    oracle.evaluate(parse("(DEFINE LOOP (LAMBDA (P) ((LOOP P))))"), env)
    env.steps = 0
    with pytest.raises(OracleError, match="budget exhausted"):
        oracle.evaluate(parse("((LOOP (QUOTE A)))"), env)


def test_gensyms_are_fresh_and_prefixed():
    env = OracleEnv()
    a, b = env.gensym(), env.gensym()
    assert a != b and a.startswith("#o") and b.startswith("#o")
