import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sobranch import cli, kostant, tsukamoto
from sobranch.cli import main
from sobranch.clebsch_gordan import closed_form_B, closed_form_D
from sobranch.errors import PreconditionError
from sobranch.oracle import branch_oracle
from sobranch.tsukamoto import multiplicity_tsukamoto
from sobranch.weights import (
    BranchingQuery,
    Weight,
    g_rank,
    interlace,
    iter_dominant_weights,
    k_family,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mult_all_methods_agree(capsys):
    code, out, _ = run(
        capsys,
        "mult", "--family", "B", "--n", "2", "--lam", "1,0,0", "--mu", "0,0",
        "--k", "1", "--methods", "all", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["family"] == "B" and report["n"] == 2 and report["lambda"] == [1, 0, 0]
    assert len(report["results"]) == 6
    assert all(row["multiplicity"] == 1 for row in report["results"])
    methods = [row["method"] for row in report["results"]]
    assert methods == sorted(methods)


def test_mult_json_round_trip(capsys):
    args = (
        "mult", "--family", "D", "--n", "1", "--lam", "2,1,-1", "--mu", "1",
        "--k", "1", "--methods", "kostant-full,oracle,tsukamoto", "--format", "json",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    first = json.loads(out)
    # the parsed report reproduces the query exactly
    assert first["family"] == "D" and first["n"] == 1 and first["lambda"] == [2, 1, -1]
    assert all(row["mu"] == [1] and row["k"] == 1 for row in first["results"])
    code2, out2, _ = run(capsys, *args)
    assert json.loads(out2) == first


def test_mult_inapplicable_method_reports_null(capsys):
    # simple interlacing fails, so the closed form is n/a rather than an error
    code, out, _ = run(
        capsys,
        "mult", "--family", "B", "--n", "2", "--lam", "2,2,0", "--mu", "1,0",
        "--k", "0", "--methods", "closed-form,kostant-full", "--format", "json",
    )
    assert code == 0
    by_method = {r["method"]: r["multiplicity"] for r in json.loads(out)["results"]}
    assert by_method["closed-form"] is None
    assert by_method["kostant-full"] == 0


def test_mult_csv_and_text(capsys):
    code, out, _ = run(
        capsys,
        "mult", "--family", "B", "--n", "2", "--lam", "1,0,0", "--mu", "0,0",
        "--k", "1", "--methods", "oracle", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["mu", "k", "method", "multiplicity"]
    assert rows[1] == ["0,0", "1", "oracle", "1"]
    assert out == 'mu,k,method,multiplicity\r\n"0,0",1,oracle,1\r\n'
    code, out, _ = run(
        capsys,
        "mult", "--family", "B", "--n", "2", "--lam", "1,0,0", "--mu", "0,0",
        "--k", "1", "--methods", "oracle",
    )
    assert code == 0 and out == "mu=0,0          k=1   oracle          1\n"


def test_decompose_oracle(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--family", "B", "--n", "2", "--lam", "1,0,0", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    entries = {(tuple(r["mu"]), r["k"]): r["multiplicity"] for r in report["results"]}
    assert entries == {((1, 0), 0): 1, ((0, 0), 1): 1}


def test_decompose_oracle_at_B_n6_reads_the_dominant_chamber(capsys):
    # whole-lattice stripping took about 17 s and 249 MiB on this lam
    lam = (3, 3, 2, 2, 1, 1, 0)
    code, out, _ = run(
        capsys,
        "decompose", "--family", "B", "--n", "6", "--lam", ",".join(map(str, lam)),
        "--methods", "oracle", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 124
    for row in rows:
        q = BranchingQuery("B", 6, Weight.of_ints(lam), Weight.of_ints(row["mu"]), row["k"])
        assert row["multiplicity"] == multiplicity_tsukamoto(q), row


def decompose_rows(capsys, family, n, lam, method):
    code, out, _ = run(capsys, "decompose", "--family", family, "--n", str(n),
                       "--lam", ",".join(map(str, lam.to_ints())), "--methods", method,
                       "--format", "json")
    assert code == 0
    return [((tuple(r["mu"]), r["k"]), r["multiplicity"]) for r in json.loads(out)["results"]]


#: the lams of the benchmark's decompose workload (perfbench/workloads.py)
DECOMPOSE_TABLES = [
    ("B", 2, (7, 2, 0)), ("B", 2, (7, 7, 6)), ("B", 2, (7, 5, 2)),
    ("B", 3, (4, 3, 0, 0)), ("B", 3, (4, 3, 1, 1)), ("B", 3, (4, 4, 4, 1)),
    ("B", 4, (2, 1, 0, 0, 0)), ("B", 4, (2, 2, 1, 0, 0)), ("B", 4, (2, 2, 2, 2, 0)),
    ("D", 2, (4, 3, 3, -3)), ("D", 2, (4, 4, 2, -2)), ("D", 2, (4, 4, 3, 0)),
    ("D", 3, (3, 1, 1, 1, -1)), ("D", 3, (3, 2, 2, 2, 1)), ("D", 3, (3, 3, 3, 2, -2)),
]


def test_decompose_closed_form_subset_of_oracle(capsys):
    # decompose walks the registry over k up to the coordinate sum of lam and
    # keeps the non-zero values: the oracle's whole table, and the closed
    # form's multiset on every simply interlacing mu, must come through.  The
    # full sum and the series give the whole table too, the reduced sum and
    # ending the table on the mu where they bind
    lams = [(family, n, lam)
            for family, n, bound in [("B", 2, 2), ("D", 1, 2), ("D", 2, 1), ("B", 3, 1)]
            for lam in iter_dominant_weights(family, g_rank(family, n), bound)]
    assert len(lams) == 35
    lams += [(family, n, Weight.of_ints(lam)) for family, n, lam in DECOMPOSE_TABLES]
    for family, n, lam in lams:
        closed_form = closed_form_B if family == "B" else closed_form_D
        mus = list(iter_dominant_weights(k_family(family), n, lam.to_ints()[0]))
        table = branch_oracle(family, n, lam)
        for method in ("oracle", "tsukamoto", "kostant-full"):
            assert decompose_rows(capsys, family, n, lam, method) == table.items(), (method, lam)
        for method in ("kostant-reduced", "ending"):
            bound = set()
            for mu in mus:
                try:
                    cli.METHODS[method](family, n, lam, mu, {})
                except PreconditionError:
                    continue
                bound.add(mu.to_ints())
            assert decompose_rows(capsys, family, n, lam, method) == [
                ((mu, k), m) for (mu, k), m in table.items() if mu in bound], (method, lam)
        closed_rows = decompose_rows(capsys, family, n, lam, "closed-form")
        assert closed_rows == sorted(
            ((mu.to_ints(), k), m)
            for mu in mus
            if interlace("simple", family, lam, mu)
            for k, m in closed_form(lam, mu).items()
        ), lam
        assert all(table.get(mu, k) == m for (mu, k), m in closed_rows), lam


def test_verify_agreement(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "B", "--n", "2", "--max", "2",
        "--methods", "kostant-full,tsukamoto,oracle", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["divergence"] is None
    assert report["points"] > 0
    code, out, _ = run(
        capsys,
        "verify", "--family", "D", "--n", "1", "--max", "1", "--methods", "kostant-full,tsukamoto",
    )
    assert code == 0
    assert out == "OK family=D n=1 max=1: 28 grid points agree across kostant-full, tsukamoto\n"


def test_verify_notes_points_without_a_cross_check(capsys):
    # only 11 of the 40 points have both an ending and a closed form; the
    # report is unchanged and a note on stderr says so
    code, out, err = run(capsys, "verify", "--family", "B", "--n", "2", "--max", "1",
                         "--methods", "ending,closed-form")
    assert code == 0
    assert out == "OK family=B n=2 max=1: 40 grid points agree across ending, closed-form\n"
    assert err == "note: 29 of 40 grid points had fewer than two applicable methods\n"
    code, out, err = run(capsys, "verify", "--family", "D", "--n", "1", "--max", "1",
                         "--methods", "kostant-full,tsukamoto")
    assert code == 0 and err == ""


def count_calls(monkeypatch, *targets) -> Counter:
    """Count the calls of each (module, name) from here on, by name, starting
    with no Tsukamoto rows kept."""
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in targets:
        counting(module, name)
    tsukamoto._pair_row.cache_clear()
    return calls


def test_verify_builds_each_whole_row_once_per_pair(capsys, monkeypatch):
    calls = count_calls(monkeypatch, (cli, "closed_form_B"), (cli, "ending_B"),
                        (cli, "reduced_pair"), (tsukamoto, "tsukamoto_generating_function"))
    code, out, _ = run(capsys, "verify", "--family", "B", "--n", "2", "--max", "2",
                       "--methods", "tsukamoto,closed-form,ending,kostant-reduced")
    assert code == 0
    assert out == ("OK family=B n=2 max=2: 360 grid points agree across "
                   "tsukamoto, closed-form, ending, kostant-reduced\n")
    pairs = len({(lam, mu) for lam, mu, _, _ in cli.sweep("B", 2, 2, ())})
    # one reduced-sum binding per pair, n/a pairs included
    assert calls == {"closed_form_B": pairs, "ending_B": pairs, "reduced_pair": pairs,
                     "tsukamoto_generating_function": pairs}


def test_verify_resolves_each_pair_once_per_method(capsys, monkeypatch):
    # a grid point of a pair-read method costs a lookup, and the walk's pairs
    # are valid by construction: cli builds no query for these methods
    built = []
    query = cli.BranchingQuery

    def counting(*fields):
        built.append(fields)
        return query(*fields)

    monkeypatch.setattr(cli, "BranchingQuery", counting)
    calls = count_calls(monkeypatch, (cli, "reduced_pair"))
    code, out, _ = run(capsys, "verify", "--family", "B", "--n", "2", "--max", "2",
                       "--methods", "closed-form,ending,kostant-reduced")
    assert code == 0
    assert out == ("OK family=B n=2 max=2: 360 grid points agree across "
                   "closed-form, ending, kostant-reduced\n")
    pairs = len({(lam, mu) for lam, mu, _, _ in cli.sweep("B", 2, 2, ())})
    assert pairs == 90 and built == []
    assert calls == {"reduced_pair": pairs}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--k", "-1"), "k must be non-negative"),
        (("--lam", "0,1,0"), "lam=(0, 1, 0) is not dominant (family B)"),
        (("--lam", "1,0"), "lam must have rank 3, got 2"),
        (("--mu", "0,1", "--methods", "closed-form,ending"), "mu=(0, 1) is not dominant (family B)"),
        # the oracle reads neither mu nor k: mult checks its query up front
        (("--mu", "0,1", "--methods", "oracle"), "mu=(0, 1) is not dominant (family B)"),
        (("--k", "-1", "--methods", "oracle"), "k must be non-negative"),
    ],
)
def test_mult_usage_errors_name_the_fault(capsys, argv, message):
    # later flags override the valid query's
    valid = ("mult", "--family", "B", "--n", "2", "--lam", "1,0,0", "--mu", "0,0", "--k", "1")
    assert run(capsys, *valid, *argv) == (2, "", f"error: {message}\n")


def test_verify_builds_each_full_sum_once_per_pair(capsys, monkeypatch):
    calls = count_calls(monkeypatch, (cli, "multiplicity_kostant_full"))
    kostant._pair_terms.cache_clear()
    code, out, _ = run(capsys, "verify", "--family", "B", "--n", "2", "--max", "2",
                       "--methods", "all")
    assert code == 0
    assert out.startswith("OK family=B n=2 max=2: 360 grid points agree across ")
    pairs = len({(lam, mu) for lam, mu, _, _ in cli.sweep("B", 2, 2, ())})
    # one call per point, and one binding of the pair's terms per pair
    assert calls == {"multiplicity_kostant_full": 360}
    assert kostant._pair_terms.cache_info().misses == pairs


def test_full_sum_probe_at_n9_builds_only_the_usable_orbit(capsys):
    # |W(B_10)| is about 3.7e9; the pair's binding keeps a handful of terms,
    # and places lam + rho slot by slot instead of trying 10! permutations
    n = 9
    code, out, _ = run(capsys, "mult", "--family", "B", "--n", str(n),
                       "--lam", ",".join(["1"] + ["0"] * n), "--mu", ",".join(["0"] * n),
                       "--k", "1", "--methods", "kostant-full")
    assert (code, out) == (0, f"mu={','.join(['0'] * n)} k=1   kostant-full    1\n")


def test_full_sum_probe_at_D_n7_places_lam_for_its_mu(capsys):
    # lam + rho is regular with 9! placements; mu's support test keeps only
    # those with a large enough coordinate on every head slot, 4 points of
    # the 725,760 that are >= 0 on the head
    code, out, _ = run(capsys, "mult", "--family", "D", "--n", "7", "--lam", ",".join(["9"] * 9),
                       "--mu", ",".join(["9"] * 7), "--k", "9", "--methods", "kostant-full,tsukamoto")
    mu = ",".join(["9"] * 7)
    assert (code, out) == (0, f"mu={mu} k=9   kostant-full    1\nmu={mu} k=9   tsukamoto       1\n")


@pytest.mark.parametrize("n, points", [(3, 1770), (7, 25020)], ids=["n3", "n7"])
def test_verify_builds_each_family_D_series_once(capsys, monkeypatch, n, points):
    # the D grid meets lam and tilde(lam) back to back; each twin's series is
    # built from its own a-tuples, once per pair
    calls = count_calls(monkeypatch, (cli, "closed_form_D"), (cli, "ending_D"),
                        (cli, "reduced_pair"), (tsukamoto, "tsukamoto_generating_function"))
    code, out, _ = run(capsys, "verify", "--family", "D", "--n", str(n), "--max", "2",
                       "--methods", "tsukamoto,closed-form,ending,kostant-reduced")
    assert code == 0
    assert out == (f"OK family=D n={n} max=2: {points} grid points agree across "
                   "tsukamoto, closed-form, ending, kostant-reduced\n")
    pairs = {(lam, mu) for lam, mu, _, _ in cli.sweep("D", n, 2, ())}
    assert any(lam.coords2[-1] < 0 for lam, _ in pairs)
    # every route binds once per pair as the sweep names it, n/a pairs included
    assert calls == {"closed_form_D": len(pairs), "ending_D": len(pairs),
                     "reduced_pair": len(pairs), "tsukamoto_generating_function": len(pairs)}


def test_verify_builds_one_query_per_pair_and_reads_one_per_point(capsys, monkeypatch):
    # tsukamoto and kostant-full check a pair once, building its query when
    # they bind it, and derive each k's query from it; they still answer
    # through one multiplicity_tsukamoto or multiplicity_kostant_full call
    # per grid point, looked up in cli at each read
    calls = count_calls(monkeypatch, (cli, "BranchingQuery"), (cli, "multiplicity_tsukamoto"),
                        (cli, "multiplicity_kostant_full"))
    argv = ("verify", "--family", "D", "--n", "1", "--max", "2",
            "--methods", "kostant-full,tsukamoto", "--format", "json")
    code, out, _ = run(capsys, *argv)
    points = json.loads(out)["points"]
    pairs = {(lam, mu) for lam, mu, _, _ in cli.sweep("D", 1, 2, ())}
    assert code == 0 and points > len(pairs) > 1
    assert calls == {"BranchingQuery": 2 * len(pairs), "multiplicity_tsukamoto": points,
                     "multiplicity_kostant_full": points}
    # a wrong answer on one call, inside a pair, fails the sweep at its point
    answer, seen = cli.multiplicity_tsukamoto, []

    def wrong_on_the_40th(q):
        seen.append(q)
        return answer(q) + (len(seen) == 40)

    monkeypatch.setattr(cli, "multiplicity_tsukamoto", wrong_on_the_40th)
    code, out, _ = run(capsys, *argv)
    divergence = json.loads(out)["divergence"]
    q = seen[39]
    assert code == 1 and len(seen) == 40 and q.k > 0
    assert (divergence["lambda"], divergence["mu"], divergence["k"]) == (
        list(q.lam.to_ints()), list(q.mu.to_ints()), q.k)


def test_verify_tables_hold_one_lam(capsys, monkeypatch):
    # a lam's tables are empty at its first point and serve every point of
    # it, and no two lams share tables: no entry outlives its lam
    method_value = cli._method_value
    held = []

    def inspecting(method, family, n, lam, mu, k, tables):
        held.append((lam, tables, len(tables)))
        return method_value(method, family, n, lam, mu, k, tables)

    monkeypatch.setattr(cli, "_method_value", inspecting)
    code, out, _ = run(capsys, "verify", "--family", "D", "--n", "1", "--max", "2",
                       "--methods", "all")
    assert code == 0 and out.startswith("OK family=D n=1 max=2: ")
    tables_of: dict = {}
    for lam, tables, size in held:
        first_point = lam not in tables_of
        assert tables is tables_of.setdefault(lam, tables)
        assert (size == 0) == first_point
    assert len({id(tables) for tables in tables_of.values()}) == len(tables_of) > 1


def test_every_method_decides_n_a_when_it_binds_a_pair():
    # _method_value catches PreconditionError only at the bind: an entry
    # either raises it there or returns a reader that answers every k
    pairs = 0
    for family, n, bound in (("B", 2, 2), ("D", 1, 2), ("D", 2, 1), ("B", 3, 1)):
        mus = list(iter_dominant_weights(k_family(family), n, bound))
        for lam in iter_dominant_weights(family, g_rank(family, n), bound):
            tables: dict = {}
            k_top = sum(abs(c) for c in lam.to_ints())
            for mu in mus:
                pairs += 1
                for method, entry in cli.METHODS.items():
                    try:
                        read = entry(family, n, lam, mu, tables)
                    except PreconditionError:
                        continue
                    for k in range(k_top + 1):
                        value = read(k)
                        assert type(value) is int and value >= 0, (method, lam, mu, k)
    assert pairs == 175


@pytest.mark.parametrize("argv, digest", [
    ("verify --family B --n 3 --max 1 --methods all", "02f803095f11fa65341d2689e6ec32c9"),
    ("verify --family B --n 3 --max 3 --methods kostant-reduced,tsukamoto,closed-form,ending",
     "d21db08a06e1199bc6a47a97cd05b97e"),
    ("verify --family D --n 3 --max 2 --methods kostant-reduced,tsukamoto,closed-form,ending",
     "fad3fb28425faf01cfa4c25e5b8bdd4a"),
    ("decompose --family D --n 3 --lam 3,2,2,2,-1 --methods closed-form",
     "9e94ac1f5a74f9b8f0abb923fefdcd0e"),
    ("decompose --family B --n 4 --lam 3,2,2,1,0 --methods oracle",
     "d705317968f9a03c69d6f33706cda6d8"),
    ("decompose --family D --n 2 --lam 2,2,1,-1", "f0998e72ad6e0e41845344d1e354185b"),
    ("decompose --family B --n 3 --lam 3,3,1,0 --methods closed-form",
     "9ec4612cd066354a6bdd5101aa37be6d"),
    ("mult --family D --n 1 --lam 1,1,-1 --mu 0 --k 1 --methods all",
     "1ed6b3dc430e55072b0e265ece777813"),
    ("mult --family B --n 3 --lam 3,1,1,0 --mu 2,2,0 --k 1 --methods all",
     "71b440fba6fdcda38907f2dd2a743d3a"),
    ("mult --family B --n 4 --lam 2,2,1,0,0 --mu 2,1,1,1 --k 4 --methods all",
     "ff4576a583ecbec5535c527fd1c488c7"),
    ("u3so3 --lam 4,2,0", "b09789f0443936dad4bd6ce2b22dd87d"),
], ids=["B-n3-max1-all", "B-n3-max3-fast", "D-n3-max2-fast", "decompose-D-n3-closed-form",
        "decompose-B-n4-oracle", "decompose-D-n2-default", "decompose-B-n3-closed-form",
        "mult-D-n1-all", "mult-B-n3-reduced-na", "mult-B-n4-all", "u3so3"])
def test_verify_output_is_byte_identical(capsys, argv, digest):
    # md5 of stdout, stderr and the exit code, recorded before the routes'
    # per-pair costs were cut (it equals that of `{ python -m sobranch.cli
    # ARGV --format json 2>&1; echo rc=$?; }`): a speed-up may not change a
    # byte; the decompose digests were recorded before decompose read its
    # rows from the method registry, the mult and u3so3 ones before the
    # reduced sum lost its pair cache
    code, out, err = run(capsys, *argv.split(), "--format", "json")
    assert hashlib.md5(f"{out}{err}rc={code}\n".encode()).hexdigest() == digest


def test_sweep_walks_the_verify_grid_in_order():
    methods = tuple(cli.METHODS)
    points = list(cli.sweep("B", 2, 1, methods))
    assert [point[:3] for point in points] == [
        (lam, mu, k)
        for lam in iter_dominant_weights("B", 3, 1)
        for mu in iter_dominant_weights("D", 2, 1)
        for k in range(sum(abs(c) for c in lam.to_ints()) + 1)
    ]
    for lam, mu, k, values in points:
        assert values == {
            method: cli._method_value(method, "B", 2, lam, mu, k, {}) for method in methods
        }
        assert tuple(values) == methods


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--family", "B", "--n", "2", "--max", "-1"), "--max must be non-negative, got -1"),
        (("--family", "B", "--n", "1", "--max", "1"), "family B requires n >= 2, got n=1"),
        (("--family", "B", "--n", "2", "--max", "1", "--methods", "tsukamoto"),
         "verify needs at least two distinct methods to cross-check"),
    ],
)
def test_verify_usage_errors_name_the_fault(capsys, argv, message):
    assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


def inject_off_by_one(monkeypatch, method):
    """Make one registry method's reader answer one more than it should."""
    entry = cli.METHODS[method]

    def corrupted(*pair):
        read = entry(*pair)
        return lambda k: read(k) + 1

    monkeypatch.setitem(cli.METHODS, method, corrupted)


def test_verify_corrupted_method_diverges(capsys, monkeypatch):
    inject_off_by_one(monkeypatch, "tsukamoto")
    argv = ("verify", "--family", "D", "--n", "1", "--max", "1",
            "--methods", "kostant-full,tsukamoto")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    report = json.loads(out)
    divergence = report["divergence"]
    assert divergence is not None
    assert "lambda" in divergence and "mu" in divergence and "k" in divergence
    assert divergence["values"]["tsukamoto"] != divergence["values"]["kostant-full"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == "DIVERGENCE family=D n=1 lambda=[1, 1, 1] mu=[1] k=0: kostant-full=0, tsukamoto=1\n"


def test_mult_divergence_exits_1(capsys, monkeypatch):
    inject_off_by_one(monkeypatch, "oracle")
    code, _, _ = run(
        capsys,
        "mult", "--family", "B", "--n", "2", "--lam", "1,0,0", "--mu", "0,0",
        "--k", "1", "--methods", "kostant-full,oracle",
    )
    assert code == 1


def test_u3so3_divergence_exits_1(capsys, monkeypatch):
    closed = cli.u3_to_so3_closed
    monkeypatch.setattr(cli, "u3_to_so3_closed", lambda lam_prime, k: closed(lam_prime, k) + 1)
    code, out, _ = run(capsys, "u3so3", "--lam", "2,0,0", "--k", "2", "--format", "json")
    assert code == 1
    values = {r["method"]: r["multiplicity"] for r in json.loads(out)["results"]}
    assert values == {"closed-form": 2, "oracle": 1}


def test_u3so3(capsys):
    code, out, _ = run(capsys, "u3so3", "--lam", "2,0,0", "--k", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    values = {r["method"]: r["multiplicity"] for r in report["results"]}
    assert values == {"closed-form": 1, "oracle": 1}
    code, out, _ = run(capsys, "u3so3", "--lam", "2,0,0", "--k", "2")
    assert code == 0 and out == "k=2   closed-form   1\nk=2   oracle        1\n"
    code, out, _ = run(capsys, "u3so3", "--lam", "2,1,0")
    assert code == 0
    assert "closed-form" in out and "oracle" in out


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "mult", "--family", "E", "--n", "2", "--lam", "1,0,0",
               "--mu", "0,0", "--k", "0")[0] == 2
    assert run(capsys, "mult", "--family", "B", "--n", "2", "--lam", "0,1,0",
               "--mu", "0,0", "--k", "0", "--methods", "oracle")[0] == 2
    assert run(capsys, "mult", "--family", "B", "--n", "2", "--lam", "1,0,0",
               "--mu", "0,0", "--k", "0", "--methods", "sorcery")[0] == 2
    assert run(capsys, "u3so3", "--lam", "1,0")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_cache_env_var(monkeypatch, capsys):
    from sobranch.partition import shared_cache

    old_limit = shared_cache().max_entries
    try:
        monkeypatch.setenv("SOBRANCH_CACHE_ENTRIES", "1000")
        code, _, _ = run(capsys, "mult", "--family", "B", "--n", "2", "--lam", "1,0,0",
                         "--mu", "0,0", "--k", "1", "--methods", "kostant-full")
        assert code == 0
        assert shared_cache().max_entries == 1000
        monkeypatch.setenv("SOBRANCH_CACHE_ENTRIES", "junk")
        assert run(capsys, "mult", "--family", "B", "--n", "2", "--lam", "1,0,0",
                   "--mu", "0,0", "--k", "1", "--methods", "kostant-full")[0] == 2
    finally:
        shared_cache().set_max_entries(old_limit)


MULT = ("mult", "--family", "B", "--n", "2", "--lam", "1,0,0", "--mu", "0,0", "--k", "1")
DECOMPOSE = ("decompose", "--family", "B", "--n", "2", "--lam", "1,0,0")
VERIFY = ("verify", "--family", "B", "--n", "2")


@pytest.mark.parametrize(
    "argv",
    [
        MULT[:-1],
        MULT + ("--methods", "oracle,sorcery"),
        MULT + ("--methods", ""),
        MULT + ("--methods", "oracle,oracle"),
        ("mult", "--family", "B", "--n", "2", "--lam", "1,x,0", "--mu", "0,0", "--k", "1"),
        ("mult", "--family", "B", "--n", "2", "--lam", "1,0", "--mu", "0,0", "--k", "1"),
        ("mult", "--family", "B", "--n", "2", "--lam", "1,0,0", "--mu", "0,0", "--k", "-1"),
        ("mult", "--family", "B", "--n", "1", "--lam", "1,0", "--mu", "0", "--k", "0"),
        DECOMPOSE + ("--methods", "all"),
        DECOMPOSE + ("--methods", "oracle,closed-form"),
        DECOMPOSE + ("--format", "yaml"),
        ("decompose", "--family", "D", "--n", "0", "--lam", "1,0"),
        ("decompose", "--family", "B", "--n", "2", "--lam", "0,1,0", "--methods", "closed-form"),
        ("decompose", "--family", "B", "--n", "2", "--lam=-1,-1,-1", "--methods", "closed-form"),
        ("decompose", "--family", "B", "--n", "2", "--lam=-1,-2", "--methods", "closed-form"),
        ("decompose", "--family", "D", "--n", "1", "--lam=-1,-1,-1", "--methods", "closed-form"),
        VERIFY + ("--max", "-1"),
        VERIFY + ("--max", "1", "--methods", "kostant-full,sorcery"),
        VERIFY + ("--max", "1", "--format", "csv"),
        VERIFY + ("--max", "1", "--methods", "tsukamoto"),
        VERIFY + ("--max", "1", "--methods", "tsukamoto,tsukamoto"),
        VERIFY + ("--max", "1", "--methods", "oracle,oracle,kostant-full"),
        ("verify", "--family", "B", "--n", "1", "--max", "1"),
        ("u3so3", "--lam", "1,0,0,0"),
        ("u3so3", "--lam", "0,1,0"),
        ("u3so3", "--lam", "1,0,0", "--k", "-1"),
        ("u3so3", "--lam", "1,0,0", "--corrupt", "closed-form"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_argv_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]


def parse_with_every_command(capsys, argv):
    """Exit code, stdout and stderr of parsing argv with every sub-command's
    arguments built (None: it parsed)."""
    try:
        cli.build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    ("--help", 0), ("mult --help", 0), ("decompose --help", 0), ("verify --help", 0),
    ("u3so3 --help", 0), ("bogus", 2), ("", 2), ("mult --family B", 2),
])
def test_main_builds_only_the_called_command(capsys, argv, code):
    # help, unknown commands and missing arguments read as from the parser
    # with every sub-command's arguments, which main no longer builds
    argv = argv.split()
    assert run(capsys, *argv) == parse_with_every_command(capsys, argv)
    assert run(capsys, *argv)[0] == code


def test_a_named_command_gets_no_other_commands_arguments(capsys):
    argv = ["verify", "--family", "B", "--n", "2", "--max", "1"]
    assert cli.build_parser("verify").parse_args(argv).max == 1
    with pytest.raises(SystemExit):
        cli.build_parser("mult").parse_args(argv)
    assert "unrecognized arguments: --family B --n 2 --max 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_bad_cache_env_var_is_a_usage_error(value):
    env = dict(os.environ, SOBRANCH_CACHE_ENTRIES=value)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sobranch.cli", *MULT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "SOBRANCH_CACHE_ENTRIES" in proc.stderr
