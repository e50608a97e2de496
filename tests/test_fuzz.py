"""Randomized checks, derandomized so every run draws the same examples: the
routes agree through the CLI's own dispatch, and any small argv ends in exit
0, 1 or 2 without a traceback."""

import contextlib
import io
import json
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_reference import interlace_triple

from sobranch import cli
from sobranch.weights import FAMILY_MIN_N, g_rank, iter_dominant_weights, k_family, tilde

FIXED = settings(derandomize=True, database=None, max_examples=200)


@st.composite
def points(draw):
    """(family, n, lam, mu, k): dominant lam and mu with first coordinates
    at most 2, n <= 5 and k up to the coordinate sum of lam."""
    family = draw(st.sampled_from(("B", "D")))
    n = draw(st.integers(FAMILY_MIN_N[family], 5))
    lam = draw(st.sampled_from(list(iter_dominant_weights(family, g_rank(family, n), 2))))
    mu = draw(st.sampled_from(list(iter_dominant_weights(k_family(family), n, 2))))
    k = draw(st.integers(0, sum(abs(c) for c in lam.to_ints())))
    return family, n, lam, mu, k


def _values(family, n, lam, mu, k) -> dict:
    tables: dict = {}
    return {method: cli._method_value(method, family, n, lam, mu, k, tables)
            for method in cli.METHODS}


@FIXED
@given(points())
def test_every_applicable_route_agrees_and_respects_interlacing_and_tilde(point):
    family, n, lam, mu, k = point
    values = _values(family, n, lam, mu, k)
    found = set(values.values()) - {None}
    assert len(found) == 1, (point, values)
    if found != {0}:
        assert interlace_triple(family, lam, mu), (point, values)
    # tilde twists mu under family B and lam under family D
    if family == "B":
        twisted = _values(family, n, lam, tilde(family, mu), k)
    else:
        twisted = _values(family, n, tilde(family, lam), mu, k)
    assert set(twisted.values()) - {None} == found, (point, twisted)


def mostly(good, bad):
    """One of ``good``, or less often one of ``bad``."""
    return st.sampled_from(tuple(good) * 3 + tuple(bad))


@st.composite
def coordinates(draw, rank):
    """Comma-separated coordinates in [-3, 3]: mostly ``rank`` of them,
    weakly decreasing in absolute value with either sign on the last one,
    so that many argvs reach the routes; otherwise any list of up to six."""
    if draw(st.integers(0, 3)) == 0:
        size = draw(st.integers(0, 6))
        cs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    else:
        size = max(rank, 0)
        cs = sorted(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)), reverse=True)
        if cs and draw(st.booleans()):
            cs[-1] = -cs[-1]
    return ",".join(map(str, cs))


method_lists = st.one_of(
    st.just("all"),
    st.lists(mostly(cli.METHODS, ("nope",)), min_size=1, max_size=4).map(",".join),
)


#: a first coordinate whose grid holds over 10**6 mu at every n >= 1
HUGE = 10**6


@st.composite
def argvs(draw):
    """A small argv for one subcommand: n <= 4, coordinates in [-3, 3], and
    any format and method list, valid or not; an option may be left out.
    Now and then decompose's lam_1 or verify's --max is ``HUGE``, whose grid
    the guard refuses at every n drawn here (mult and u3so3 have no guard)."""
    sub = draw(st.sampled_from(("mult", "decompose", "verify", "u3so3")))
    family = draw(mostly("BD", "X"))
    n = draw(mostly(range(1, 5), (-1, 0)))
    options = {
        "--family": family,
        "--n": str(n),
        "--lam": draw(coordinates(n + (1 if family == "B" else 2))),
        "--format": draw(mostly(("json", "csv", "text"), ("xml",))),
    }
    if sub == "mult":
        options.update({"--mu": draw(coordinates(n)), "--k": str(draw(mostly(range(4), (-1,)))),
                        "--methods": draw(method_lists)})
    elif sub == "decompose":
        options["--methods"] = draw(st.sampled_from(("oracle", "closed-form", "all")))
        if draw(mostly((False,), (True,))):
            options["--lam"] = ",".join([str(HUGE)] + options["--lam"].split(",")[1:])
    elif sub == "verify":
        del options["--lam"]
        options.update({"--max": str(draw(mostly((0, 1), (-1, HUGE)))), "--methods": draw(method_lists)})
    else:
        options = {"--lam": draw(coordinates(3)), "--format": options["--format"]}
        if draw(st.booleans()):
            options["--k"] = str(draw(mostly(range(4), (-1,))))
    dropped = draw(mostly((None,), options))
    argv = [sub]
    for name, value in options.items():
        if name != dropped:
            argv += [name, value]
    return argv


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _reports_divergence(argv) -> bool:
    """Whether argv, rerun with JSON output, reports a divergence: two
    methods with different values at one point."""
    argv = list(argv)
    if "--format" in argv:
        argv[argv.index("--format") + 1] = "json"
    else:
        argv += ["--format", "json"]
    _, out = _run(argv)
    report = json.loads(out)
    if "results" not in report:
        return report["divergence"] is not None
    found = defaultdict(set)
    for row in report["results"]:
        if row["multiplicity"] is not None:
            found[tuple(row["mu"]), row["k"]].add(row["multiplicity"])
    return any(len(values) > 1 for values in found.values())


@FIXED
@given(argvs())
def test_any_small_argv_exits_cleanly(argv):
    code, _ = _run(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert _reports_divergence(argv), argv
