import csv
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
from sobranch.tsukamoto import multiplicity_tsukamoto
from sobranch.weights import BranchingQuery, Weight, tilde

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


def test_decompose_closed_form_subset_of_oracle(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--family", "D", "--n", "1", "--lam", "2,1,1",
        "--methods", "closed-form", "--format", "json",
    )
    assert code == 0
    closed = {(tuple(r["mu"]), r["k"]): r["multiplicity"] for r in json.loads(out)["results"]}
    code, out, _ = run(
        capsys,
        "decompose", "--family", "D", "--n", "1", "--lam", "2,1,1", "--format", "json",
    )
    oracle_entries = {
        (tuple(r["mu"]), r["k"]): r["multiplicity"] for r in json.loads(out)["results"]
    }
    for key, value in closed.items():
        assert oracle_entries.get(key, 0) == value


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
                        (tsukamoto, "tsukamoto_generating_function"))
    kostant._reduced_terms.cache_clear()
    code, out, _ = run(capsys, "verify", "--family", "B", "--n", "2", "--max", "2",
                       "--methods", "tsukamoto,closed-form,ending,kostant-reduced")
    assert code == 0
    assert out == ("OK family=B n=2 max=2: 360 grid points agree across "
                   "tsukamoto, closed-form, ending, kostant-reduced\n")
    pairs = len({(lam, mu) for lam, mu, _ in cli._grid("B", 2, 2)})
    assert calls == {"closed_form_B": pairs, "ending_B": pairs,
                     "tsukamoto_generating_function": pairs}
    # one reduced-sum binding per pair, n/a pairs included
    assert kostant._reduced_terms.cache_info().misses == pairs


def test_verify_resolves_each_pair_once_per_method(capsys, monkeypatch):
    # a grid point of a pair-read method costs a lookup: cli validates one
    # query per (pair, method), where it once built one per (point, method)
    built = []
    query = cli.BranchingQuery

    def counting(*fields):
        built.append(fields)
        return query(*fields)

    monkeypatch.setattr(cli, "BranchingQuery", counting)
    kostant._reduced_terms.cache_clear()
    code, out, _ = run(capsys, "verify", "--family", "B", "--n", "2", "--max", "2",
                       "--methods", "closed-form,ending,kostant-reduced")
    assert code == 0
    assert out == ("OK family=B n=2 max=2: 360 grid points agree across "
                   "closed-form, ending, kostant-reduced\n")
    pairs = len({(lam, mu) for lam, mu, _ in cli._grid("B", 2, 2)})
    assert pairs == 90 and 0 < len(built) <= 3 * pairs
    assert kostant._reduced_terms.cache_info().misses == pairs


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--k", "-1"), "k must be non-negative"),
        (("--lam", "0,1,0"), "lam=(0, 1, 0) is not dominant (family B)"),
        (("--lam", "1,0"), "lam must have rank 3, got 2"),
        (("--mu", "0,1", "--methods", "closed-form,ending"), "mu=(0, 1) is not dominant (family B)"),
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
    pairs = len({(lam, mu) for lam, mu, _ in cli._grid("B", 2, 2)})
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
    # the D grid meets lam and tilde(lam) back to back; the Tsukamoto route
    # reads the partner's rows, so the LRU must hold 2N - 1 rows for the N
    # mus of a lam: N = 36 at n=7 max=2
    calls = count_calls(monkeypatch, (cli, "closed_form_D"), (cli, "ending_D"),
                        (tsukamoto, "tsukamoto_generating_function"))
    kostant._reduced_terms.cache_clear()
    code, out, _ = run(capsys, "verify", "--family", "D", "--n", str(n), "--max", "2",
                       "--methods", "tsukamoto,closed-form,ending,kostant-reduced")
    assert code == 0
    assert out == (f"OK family=D n={n} max=2: {points} grid points agree across "
                   "tsukamoto, closed-form, ending, kostant-reduced\n")
    pairs = {(lam, mu) for lam, mu, _ in cli._grid("D", n, 2)}
    normalized = {(tilde("D", lam) if lam.coords2[-1] < 0 else lam, mu) for lam, mu in pairs}
    assert len(normalized) < len(pairs)
    assert calls == {"closed_form_D": len(pairs), "ending_D": len(pairs),
                     "tsukamoto_generating_function": len(normalized)}
    # the reduced sum is bound once per pair as the sweep names it, n/a pairs
    # included: its binding is keyed before it tilde-normalizes
    assert kostant._reduced_terms.cache_info().misses == len(pairs)


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


def test_sweep_walks_the_verify_grid_in_order():
    methods = tuple(cli.METHODS)
    points = list(cli.sweep("B", 2, 1, methods))
    assert [point[:3] for point in points] == list(cli._grid("B", 2, 1))
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
