"""The benchmark's workloads: their CLI calls, seeded inputs and the check
of every answer against ``reference.json``.

An operation is what ``ops_per_s`` counts: one grid point (lam, mu, k) of a
``verify`` sweep, one ``mult`` query, or one ``decompose`` table.  Each pass
of a run makes every CLI call of the workload in one fresh interpreter.

* ``verify-kostant``: ``verify --methods all`` on B n=3 max=1.  The full
  Weyl sum (|W(B_4)| = 384 terms per point) dominates, and every lam is
  shared by about fifteen (mu, k), so per-lam reuse and partition-memo hits
  show here.  B n=3 max=2 takes about 9 s per cold call on a 2-CPU machine,
  too long for enough passes in one run; ``baseline.py`` measures it.
* ``verify-rows``: ``verify`` with the fast methods on B n=3 max=3 (7350
  points) and D n=3 max=2 (1770 points): no ``kostant-full`` and no
  ``oracle``, so Tsukamoto's per-k rebuild of the generating function,
  query validation and CLI dispatch carry the time.
* ``mult-n4``: ``mult --methods kostant-full,tsukamoto`` queries at B n=4
  (|W(B_5)| = 3840), two of the six with non-zero answers; one (mu, k)
  per lam while the memo grows.
* ``decompose-oracle``: ``decompose --methods oracle`` tables, three lam
  of low, middle and high dimension from each of five (family, n) groups;
  only the oracle does real work.

The seed draws the order of the mult-n4 and decompose-oracle calls
(``make_ops``); the calls themselves are the constants below.  The verify
sweeps are the same for every seed.

``BENCHMARK.json`` names only the two verify workloads.  A mult-n4 or
decompose-oracle pass is 1-2 s of memory-heavy work in a few long calls, so
a run holds few passes, and over five 30 s runs their spreads stayed at
25-33% of the median on a shared 2-vCPU machine; they remain here to run
by hand.
"""

from __future__ import annotations

import hashlib
import json
import random

VERIFY_SWEEPS = {
    "verify-kostant": [
        ["verify", "--family", "B", "--n", "3", "--max", "1", "--methods", "all"],
    ],
    "verify-rows": [
        ["verify", "--family", family, "--n", "3", "--max", bound,
         "--methods", "kostant-reduced,tsukamoto,closed-form,ending"]
        for family, bound in (("B", "3"), ("D", "2"))
    ],
}

# (family, n) whose root data and Weyl groups are built during set-up
SETUP = {
    "verify-kostant": [("B", 3)],
    "verify-rows": [("B", 3), ("D", 3)],
    "mult-n4": [("B", 4)],
    "decompose-oracle": [("B", 2), ("B", 3), ("B", 4), ("D", 2), ("D", 3)],
}

# mult-n4: (lam, mu, k) at B n=4, lam and mu with first coordinate <= 2
MULT_QUERIES = [
    ("1,1,0,0,0", "1,1,0,0", 0),
    ("2,2,1,0,0", "2,1,1,1", 4),
    ("2,1,0,0,0", "1,1,1,-1", 0),
    ("2,2,2,1,1", "1,1,0,0", 0),
    ("1,1,1,1,1", "0,0,0,0", 0),
    ("2,2,2,2,1", "2,2,2,0", 7),
]

# decompose-oracle: (family, n, lam); each table takes roughly 0.05 to 0.35 s
DECOMPOSE_TABLES = [
    ("B", 2, "7,2,0"), ("B", 2, "7,7,6"), ("B", 2, "7,5,2"),
    ("B", 3, "4,3,0,0"), ("B", 3, "4,3,1,1"), ("B", 3, "4,4,4,1"),
    ("B", 4, "2,1,0,0,0"), ("B", 4, "2,2,1,0,0"), ("B", 4, "2,2,2,2,0"),
    ("D", 2, "4,3,3,-3"), ("D", 2, "4,4,2,-2"), ("D", 2, "4,4,3,0"),
    ("D", 3, "3,1,1,1,-1"), ("D", 3, "3,2,2,2,1"), ("D", 3, "3,3,3,2,-2"),
]

NAMES = ("verify-kostant", "verify-rows", "mult-n4", "decompose-oracle")


def ints(text: str) -> list[int]:
    return [int(c) for c in text.split(",")]


def joined(coords) -> str:
    return ",".join(str(c) for c in coords)


def row_line(*fields) -> str:
    """One reference row; None (method not applicable) prints as n/a, never 0."""
    return " ".join("n/a" if f is None else joined(f) if isinstance(f, (list, tuple)) else str(f)
                    for f in fields)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def table_digest(report: dict) -> str:
    """Digest of a decompose report's (mu, k, method) -> multiplicity rows."""
    return digest(
        row_line(r["mu"], r["k"], r["method"], r["multiplicity"]) for r in report["results"]
    )


def mult_argv(lam: str, mu: str, k: int) -> list[str]:
    return [
        "mult", "--family", "B", "--n", "4", "--lam", lam, "--mu", mu, "--k", str(k),
        "--methods", "kostant-full,tsukamoto",
    ]


def decompose_argv(family: str, n: int, lam: str) -> list[str]:
    return ["decompose", "--family", family, "--n", str(n), "--lam", lam, "--methods", "oracle"]


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def make_ops(name: str, seed: int) -> list[list[str]]:
    """The CLI calls of one run; every pass of the run repeats them.

    For mult-n4 and decompose-oracle the seed draws the order of the calls,
    which decides which of them meet cold caches and which find the work of
    earlier calls memoized.  The calls themselves are fixed: a single cold
    n=4 query takes from 66 ms to 4 s, and even the sign twin of one mu
    (same answers) doubled a query's time and moved peak memory by 15%, so
    inputs drawn per seed made runs on different seeds measure different
    work.  The total work of a pass does not depend on the order."""
    if name in VERIFY_SWEEPS:
        return [argv + ["--format", "json"] for argv in VERIFY_SWEEPS[name]]
    if name == "mult-n4":
        calls = [mult_argv(*q) for q in MULT_QUERIES]
    elif name == "decompose-oracle":
        calls = [decompose_argv(*t) for t in DECOMPOSE_TABLES]
    else:
        raise ValueError(f"unknown workload {name!r}")
    ops = [argv + ["--format", "json"] for argv in calls]
    random.Random(f"{name}:{seed}").shuffle(ops)
    return ops


def mult_key(lam: str, mu: str, k) -> str:
    return f"{lam} {mu} {k}"


def table_key(family: str, n, lam: str) -> str:
    return f"{family} {n} {lam}"


def op_points(reference: dict, argv: list[str]) -> int:
    """Operations in one CLI call: the grid points of a verify sweep, else 1."""
    return reference["verify"][" ".join(argv)]["points"] if argv[0] == "verify" else 1


def check_op(name: str, reference: dict, argv: list[str], out: dict) -> tuple[int, int]:
    """(operations attempted, operations failed) for one CLI call.  A failure
    is an exception, an exit code other than 0, a cross-method divergence or
    an answer that differs from the reference; a wrong sweep report fails
    every point of the sweep.  A verify call's values are compared with the
    reference's row digest when the pass recorded them (``rows_digest``)."""
    if name in VERIFY_SWEEPS:
        ref = reference["verify"][" ".join(argv)]
        ok = out["rc"] == 0 and _parse(out["out"]) == ref["report"]
        if "rows_digest" in out:
            ok = ok and out["rows_digest"] == ref["digest"]
        return ref["points"], 0 if ok else ref["points"]
    report = _parse(out["out"])
    if out["rc"] != 0 or report is None:
        return 1, 1
    if name == "mult-n4":
        want = reference["mult-n4"][
            mult_key(_flag(argv, "--lam"), _flag(argv, "--mu"), _flag(argv, "--k"))]
        methods = _flag(argv, "--methods").split(",")
        got = {r["method"]: r["multiplicity"] for r in report["results"]}
        ok = got == {m: want for m in methods} and len(report["results"]) == len(methods)
        return 1, 0 if ok else 1
    key = table_key(_flag(argv, "--family"), _flag(argv, "--n"), _flag(argv, "--lam"))
    return 1, 0 if table_digest(report) == reference["decompose-oracle"][key] else 1


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None
