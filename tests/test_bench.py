"""Benchmark reports: structure, determinism, and the effects they exist to show."""

from veclisp import bench
from veclisp.evaluator import SessionConfig

CFG = SessionConfig(dim=256, seed=13)


def rows(report):
    lines = [ln for ln in report.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


def test_every_report_starts_with_the_config_block():
    capacity = bench.run_capacity(CFG, counts=(8,), kinds=("lookup",), probes=4)
    for kind, report in (("kanerva", bench.run_bench("kanerva", CFG)), ("capacity", capacity)):
        lines = report.splitlines()
        assert lines[0] == "# veclisp bench report"
        assert lines[1] == f"# bench={kind}"
        assert "# dim=256" in lines and "# seed=13" in lines


def test_reports_repeat_byte_for_byte():
    assert bench.run_bench("kanerva", CFG) == bench.run_bench("kanerva", CFG)
    small = dict(counts=(8, 16), kinds=("lookup", "mhn"), probes=8)
    assert bench.run_capacity(CFG, **small) == bench.run_capacity(CFG, **small)


def test_small_stores_recall_their_own_rows_perfectly():
    report = bench.run_capacity(CFG, counts=(8, 16), kinds=("lookup", "mhn"), probes=8)
    for row in rows(report):
        assert row["accuracy"] == "1.000000"


def test_lookup_capacity_holds_at_ten_thousand_rows():
    report = bench.run_capacity(
        SessionConfig(dim=2048, seed=13), counts=(10000,), kinds=("lookup",), probes=64
    )
    (row,) = rows(report)
    assert float(row["accuracy"]) >= 0.99


def test_stored_sublists_always_win_their_own_retrieval():
    report = bench.run_kanerva(CFG)
    assert report.splitlines()[-1] == "# self_retrieval_rate=1.000000"
    for row in rows(report):
        assert row["self_nn"] == "1"
        # The head is buried under the permuted tail, not retrievable directly.
        assert float(row["sim_self"]) > float(row["sim_head"])
