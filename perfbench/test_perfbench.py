"""Tests of the benchmark itself, outside the tier-1 suite:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())


def run_checked(name: str, ops: list) -> tuple[int, int]:
    res = worker.run_rep({"ops": ops, "setup": []})
    checked = [workloads.check_op(name, REFERENCE, a, o) for a, o in zip(ops, res["outs"])]
    return sum(a for a, _ in checked), sum(f for _, f in checked)


def off_by_one_on_call(fn, which: int):
    calls = []

    def corrupted(q):
        calls.append(q)
        value = fn(q)
        return value + 1 if len(calls) == which else value

    return corrupted


def test_correct_program_has_no_failures():
    assert run_checked("mult-n4", workloads.make_ops("mult-n4", 1)[:3]) == (3, 0)


def test_one_wrong_mult_answer_is_one_failure(monkeypatch):
    # both routes give the same wrong answer for the second query, so mult
    # reports agreement and only the reference catches it
    from sobranch import cli

    monkeypatch.setattr(cli, "multiplicity_kostant_full",
                        off_by_one_on_call(cli.multiplicity_kostant_full, 2))
    monkeypatch.setattr(cli, "multiplicity_tsukamoto",
                        off_by_one_on_call(cli.multiplicity_tsukamoto, 2))
    assert run_checked("mult-n4", workloads.make_ops("mult-n4", 1)[:3]) == (3, 1)


def test_one_wrong_verify_answer_fails_the_sweep(monkeypatch):
    from sobranch import cli

    monkeypatch.setattr(cli, "multiplicity_tsukamoto",
                        off_by_one_on_call(cli.multiplicity_tsukamoto, 40))
    ops = workloads.make_ops("verify-kostant", 1)
    points = workloads.op_points(REFERENCE, ops[0])
    assert run_checked("verify-kostant", ops) == (points, points)


def test_na_and_zero_rows_differ():
    assert workloads.row_line("B", 3, (1, 0), (0,), 1, "ending", None) != workloads.row_line(
        "B", 3, (1, 0), (0,), 1, "ending", 0)


def test_a_method_turned_na_fails_the_sweep_only_through_the_rows(monkeypatch):
    # verify reports an n/a method as agreeing, so the report still matches
    # the reference; the row digest of the check pass does not
    from sobranch import cli
    from sobranch.errors import PreconditionError

    def not_applicable(*args, **kwargs):
        raise PreconditionError("injected")

    monkeypatch.setattr(cli, "ending_B", not_applicable)
    ops = workloads.make_ops("verify-kostant", 1)
    points = workloads.op_points(REFERENCE, ops[0])
    res = worker.run_rep({"ops": ops, "setup": [], "capture_rows": True})
    assert workloads.check_op("verify-kostant", REFERENCE, ops[0], res["outs"][0]) == (points, points)
    del res["outs"][0]["rows_digest"]
    assert workloads.check_op("verify-kostant", REFERENCE, ops[0], res["outs"][0]) == (points, 0)


def test_every_run_checks_the_rows_in_a_counted_check_pass(monkeypatch):
    monkeypatch.chdir(HERE.parent)
    seen = []
    check_op = workloads.check_op

    def recording(name, reference, argv, out):
        seen.append("rows_digest" in out)
        return check_op(name, reference, argv, out)

    monkeypatch.setattr(workloads, "check_op", recording)
    assert run.main(["--workload", "verify-kostant", "--seed", "1", "--seconds", "1"]) == 0
    assert seen[0] and not any(seen[1:]) and len(seen) >= 1 + run.MIN_PASSES


@pytest.mark.parametrize("name", ["mult-n4", "decompose-oracle"])
def test_seed_draws_the_call_order_and_the_reference_covers_every_call(name):
    first = workloads.make_ops(name, 1)
    assert first == workloads.make_ops(name, 1)
    second = workloads.make_ops(name, 2)
    assert first != second and sorted(first) == sorted(second)
    for argv in first:
        family, n, lam = (argv[argv.index(f) + 1] for f in ("--family", "--n", "--lam"))
        if name == "mult-n4":
            key = workloads.mult_key(lam, argv[argv.index("--mu") + 1], argv[argv.index("--k") + 1])
        else:
            key = workloads.table_key(family, n, lam)
        assert key in REFERENCE[name]


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("b.inner", lambda: None)
    outer = tracer.wrap("a.outer", lambda: (inner(), inner()))
    outer()
    summary = tracer.summary()
    assert summary["a.outer"] == {"calls": 1, "s": 5, "self_s": 3}
    assert summary["b.inner"] == {"calls": 2, "s": 2, "self_s": 2}


def test_chunks_split_a_sweep_into_its_grid_points():
    ops = workloads.make_ops("verify-kostant", 1)
    res = worker.run_rep({"ops": ops, "setup": [["B", 3]], "chunks": True})
    out = res["outs"][0]
    assert res["marked"] and len(res["cal_s"]) == 2 * worker.CAL_REPS
    assert sum(out["chunks"]) == pytest.approx(out["s"])
    points = workloads.op_points(REFERENCE, ops[0])
    assert len(out["method_starts"]) == 6 * points  # --methods all: six per point
    best = [None]
    run.fold_chunks(best, res)
    per_point = run.op_seconds(points, best[0])
    assert len(per_point) == points and sum(per_point) == pytest.approx(out["s"])
    assert workloads.check_op("verify-kostant", REFERENCE, ops[0], out) == (points, 0)


def test_fold_keeps_each_chunk_at_its_fastest():
    def passed(*chunks):
        return {"outs": [{"s": sum(chunks), "chunks": list(chunks), "method_starts": [1]}]}

    best = [None]
    run.fold_chunks(best, passed(3.0, 1.0))
    run.fold_chunks(best, passed(2.0, 4.0))
    assert best[0] == {"chunks": [2.0, 1.0], "starts": [1]}
    run.fold_chunks(best, passed(1.0, 1.0, 1.0))  # another chunk count: one chunk
    assert best[0] == {"chunks": [3.0], "starts": []}
    assert run.op_seconds(2, best[0]) == [1.5, 1.5]


def test_traced_run_matches_untraced_and_reference():
    ops = workloads.make_ops("verify-kostant", 1)
    plain = worker.run_rep({"ops": ops, "setup": [["B", 3]]})
    marked = worker.run_rep({"ops": ops, "setup": [["B", 3]], "chunks": True})
    best = [None]
    run.fold_chunks(best, marked)
    traced = worker.run_rep({"ops": ops, "setup": [["B", 3]], "trace": True})
    assert [o["out"] for o in traced["outs"]] == [o["out"] for o in plain["outs"]]
    assert workloads.check_op("verify-kostant", REFERENCE, ops[0], traced["outs"][0]) == (75, 0)
    assert traced["spans"]["kostant.full"]["calls"] == 75
    assert traced["counts"]["kostant.terms_visited"] == 75 * 384
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(run.per_layer([traced], [plain])) == {m["name"] for m in bench["per_layer"]}
    assert set(run.end_to_end(REFERENCE, ops, [marked, plain], best)) == {
        m["name"] for m in bench["end_to_end"]}
    from sobranch import cli, kostant

    assert cli.main.__module__ == "sobranch.cli" and not hasattr(cli.main, "__wrapped__")
    assert not hasattr(kostant.count_vector_partitions, "__wrapped__")
    assert kostant.count_vector_partitions.__module__ == "sobranch.partition"


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mult-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
