"""Command line behavior: subcommands, configuration sources, exit codes."""

import inspect
import io
import random
import subprocess
import sys

import pytest

from veclisp import bench, cli, codec, oracle
from veclisp.reader import Atom, Pair


def call(argv, capsys, monkeypatch=None, stdin=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- repl ---------------------------------------------------------------------------


def test_repl_evaluates_lines_and_exits_cleanly(capsys, monkeypatch):
    code, out, err = call(
        ["repl", "--dim", "512", "--seed", "7"],
        capsys,
        monkeypatch,
        stdin="(CONS (QUOTE A) ())\n(QUOTE B)\n",
    )
    assert code == 0
    assert out == "(A)\nB\n"


def test_repl_buffers_until_parentheses_balance(capsys, monkeypatch):
    code, out, err = call(
        ["repl", "--dim", "512"],
        capsys,
        monkeypatch,
        stdin="(CONS (QUOTE A)\n())\n",
    )
    assert code == 0
    assert out == "(A)\n"


def test_repl_blank_line_flushes_a_stuck_buffer(capsys, monkeypatch):
    code, out, err = call(
        ["repl", "--dim", "512"],
        capsys,
        monkeypatch,
        stdin="(\n\n(QUOTE B)\n",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("error:")
    assert lines[1] == "B"


def test_repl_reports_an_unterminated_buffer_at_eof(capsys, monkeypatch):
    code, out, err = call(["repl", "--dim", "512"], capsys, monkeypatch, stdin="(CONS")
    assert code == 1
    assert out.startswith("error:")


def test_repl_recovers_after_an_evaluation_error(capsys, monkeypatch):
    code, out, err = call(
        ["repl", "--dim", "512"],
        capsys,
        monkeypatch,
        stdin="(COND ((EQ (QUOTE A) (QUOTE B)) . (QUOTE X)))\n(QUOTE B)\n",
    )
    assert code == 0
    assert out == "error: cond exhausted\nB\n"


def test_repl_oracle_check_marks_agreement(capsys, monkeypatch):
    code, out, err = call(
        ["repl", "--dim", "512", "--oracle-check"],
        capsys,
        monkeypatch,
        stdin="(CONS (QUOTE A) ())\n",
    )
    assert code == 0
    assert out == "(A)\noracle: (A) MATCH\n"


def test_repl_oracle_check_agreeing_errors_still_match(capsys, monkeypatch):
    code, out, err = call(
        ["repl", "--dim", "512", "--oracle-check"],
        capsys,
        monkeypatch,
        stdin="(COND ((EQ (QUOTE A) (QUOTE B)) . (QUOTE X)))\n",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "error: cond exhausted"
    assert lines[1].startswith("oracle: error:") and lines[1].endswith("MATCH")


# -- run ----------------------------------------------------------------------------


def test_run_executes_a_script_file(tmp_path, capsys):
    script = tmp_path / "prog.vl"
    script.write_text("(DEFINE WRAP (LAMBDA (P) (CONS P ())))\n((WRAP (QUOTE A)))\n")
    code, out, err = call(["run", str(script), "--dim", "512"], capsys)
    assert code == 0
    assert out == "#DONE\n(A)\n"


def test_run_reads_stdin_with_dash(capsys, monkeypatch):
    code, out, err = call(
        ["run", "-", "--dim", "512"], capsys, monkeypatch, stdin="(CAR (QUOTE (A B)))\n"
    )
    assert code == 0
    assert out == "A\n"


def test_run_with_oracle_check_appends_verdict_lines(tmp_path, capsys):
    script = tmp_path / "prog.vl"
    script.write_text("(CONS (QUOTE A) (QUOTE B))\n")
    code, out, err = call(["run", str(script), "--dim", "512", "--oracle-check"], capsys)
    assert code == 0
    assert out == "(A . B)\noracle: (A . B) MATCH\n"


def test_run_aborts_on_an_evaluation_error(tmp_path, capsys):
    script = tmp_path / "prog.vl"
    script.write_text("(COND ((EQ (QUOTE A) (QUOTE B)) . (QUOTE X)))\n(QUOTE B)\n")
    code, out, err = call(["run", str(script), "--dim", "512"], capsys)
    assert code == 1
    assert out == ""
    assert "cond exhausted" in err


def test_run_reports_a_depth_limit_as_an_error(tmp_path, capsys):
    script = tmp_path / "prog.vl"
    items = " ".join(f"X{i}" for i in range(40))
    script.write_text(
        "(DEFINE LAST (LAMBDA (P) (COND ((ATOM (CDR P)) . (CAR P)) ((QUOTE T) . ((LAST (CDR P)))))))\n"
        f"((LAST (QUOTE ({items}))))\n"
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 150)
    try:
        code, out, err = call(["run", "--dim", "512", str(script)], capsys)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 1
    assert err.startswith("error:")


def test_run_rejects_an_unparseable_script(tmp_path, capsys):
    script = tmp_path / "prog.vl"
    script.write_text("(((\n")
    code, out, err = call(["run", str(script), "--dim", "512"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_run_reports_a_missing_file(capsys):
    code, out, err = call(["run", "/no/such/file.vl", "--dim", "512"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_trace_flag_logs_dispatches_to_stderr(capsys, monkeypatch):
    code, out, err = call(
        ["run", "-", "--dim", "512", "--trace"], capsys, monkeypatch, stdin="(QUOTE A)\n"
    )
    assert code == 0
    assert out == "A\n"
    assert "head=QUOTE" in err


# -- bench --------------------------------------------------------------------------


def test_bench_report_goes_to_stdout_and_repeats_byte_for_byte(capsys):
    argv = ["bench", "kanerva", "--dim", "256", "--seed", "9"]
    code1, out1, _ = call(argv, capsys)
    code2, out2, _ = call(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("# veclisp bench report\n# bench=kanerva\n")


def test_bench_out_writes_the_same_report_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.tsv"
    argv = ["bench", "update_rules", "--dim", "128", "--seed", "9"]
    code, out, _ = call(argv, capsys)
    code2, out2, _ = call(argv + ["--out", str(target)], capsys)
    assert code == code2 == 0
    assert out2 == ""
    assert target.read_text() == out


# -- configuration sources and exit codes ---------------------------------------------


def test_environment_supplies_defaults_and_flags_win(capsys, monkeypatch):
    monkeypatch.setenv("VECLISP_DIM", "128")
    code, out, _ = call(["bench", "update_rules"], capsys)
    assert code == 0 and "# dim=128\n" in out
    code, out, _ = call(["bench", "update_rules", "--dim", "192"], capsys)
    assert code == 0 and "# dim=192\n" in out


def test_unreadable_environment_value_is_a_user_error(capsys, monkeypatch):
    # argparse checks ``choices`` against flags only, so the memory kind is checked as it is read.
    for name, raw in (("DIM", "potato"), ("MEMORY", "bogus")):
        monkeypatch.setenv(f"VECLISP_{name}", raw)
        code, out, err = call(["bench", "update_rules"], capsys)
        assert code == 1 and out == ""
        assert f"bad value '{raw}' for VECLISP_{name}" in err
        monkeypatch.delenv(f"VECLISP_{name}")


def test_boolean_environment_toggle_and_negating_flag(capsys, monkeypatch):
    monkeypatch.setenv("VECLISP_TRACE", "yes")
    code, out, err = call(["run", "-", "--dim", "512"], capsys, monkeypatch, stdin="(QUOTE A)\n")
    assert code == 0 and "head=QUOTE" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("(QUOTE A)\n"))
    code, out, err = call(["run", "-", "--dim", "512", "--no-trace"], capsys)
    assert code == 0 and "head=QUOTE" not in err


def test_bad_usage_exits_with_one(capsys, monkeypatch):
    assert call(["bench", "nonsense"], capsys)[0] == 1
    assert call([], capsys)[0] == 1
    for flag in ("--alpha", "--eta"):  # deleted session flags
        assert call(["run", "-", "--dim", "128", flag, "1"], capsys, monkeypatch, stdin="(QUOTE A)\n")[0] == 1


def test_internal_failures_exit_with_two(capsys, monkeypatch):
    def boom(kind, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "run_bench", boom)
    code, out, err = call(["bench", "kanerva", "--dim", "128"], capsys)
    assert code == 2
    assert err.startswith("internal error:")


def test_module_entry_point_runs_a_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "veclisp", "run", "-", "--dim", "256"],
        input="(CONS (QUOTE A) ())\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(A)\n"


# -- input nested past the recursion limit ---------------------------------------------


def nested_quote(depth):
    return "(QUOTE " + "(" * depth + "A" + ")" * depth + ")\n"


def call_within(frames, argv, capsys, monkeypatch, stdin):
    """``call`` with Python's recursion limit ``frames`` above the current stack."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + frames)
    try:
        return call(argv, capsys, monkeypatch, stdin)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("mode", [["run", "-"], ["repl"]])
def test_input_nested_past_the_parsers_reach_is_a_user_error(mode, capsys, monkeypatch):
    # The reader takes two frames per parenthesis.
    code, out, err = call_within(300, mode + ["--dim", "256"], capsys, monkeypatch, nested_quote(200))
    assert code == 1
    assert err.startswith("error:") and "internal" not in err


def test_oracle_check_of_a_deeply_nested_answer_matches(capsys, monkeypatch):
    # Comparing the twins' answers is a loop, so an answer that parses and
    # evaluates also compares, however deep it nests.
    for mode in (["run", "-"], ["repl"]):
        for check in ([], ["--oracle-check"]):
            argv = mode + ["--dim", "256"] + check
            code, out, err = call_within(1000, argv, capsys, monkeypatch, nested_quote(450))
            assert code == 0, err
            assert out.splitlines()[-1].endswith(" MATCH") == bool(check)


def canon(e, prefix, table):
    """Recursive reference: fresh atoms renamed to positional placeholders, left-first preorder."""
    if isinstance(e, Atom):
        if e.name.startswith(prefix):
            return Atom(table.setdefault(e.name, f"#{len(table)}"))
        return e
    return Pair(canon(e.left, prefix, table), canon(e.right, prefix, table))


def test_same_result_agrees_with_the_recursive_canonical_comparison():
    rng = random.Random(5)
    vec_names = [f"{codec.GENSYM_PREFIX}{i}" for i in range(4)]
    orc_names = [f"{oracle.GENSYM_PREFIX}{i}" for i in range(4)]
    leaves = ["A", "B", "#0", "#1"] + vec_names

    def tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return Atom(rng.choice(leaves))
        return Pair(tree(depth - 1), tree(depth - 1))

    def twin(e, mapping):
        """``e`` with its fresh atoms renamed, and now and then one leaf or subtree changed."""
        if rng.random() < 0.02:
            return tree(1)
        if isinstance(e, Pair):
            return Pair(twin(e.left, mapping), twin(e.right, mapping))
        return Atom(mapping.get(e.name, e.name))

    verdicts = set()
    for _ in range(3000):
        a = tree(5)
        mapping = dict(zip(vec_names, rng.sample(orc_names, 4)))
        if rng.random() < 0.2:
            mapping[rng.choice(vec_names)] = rng.choice(orc_names)  # may merge two fresh atoms
        b = twin(a, mapping)
        want = canon(a, codec.GENSYM_PREFIX, {}) == canon(b, oracle.GENSYM_PREFIX, {})
        assert cli._same_result(a, b) == want
        verdicts.add(want)
    assert verdicts == {True, False}
