"""Command-line front end.

Subcommands: ``mult`` (per-method multiplicities for one query),
``decompose`` (the full branching table of one ambient highest weight),
``verify`` (method-agreement sweep over a bounded grid), and ``u3so3``
(U(3) to SO(3) branching, closed formula vs oracle).

``_walk`` is the one walk over grid points, answering through the method
registry ``METHODS``: ``verify`` and the cross-route test sweeps walk a
verify grid (``sweep``), ``decompose`` one lam.  Each method is resolved
once per (lam, mu) pair to a reader of k, kept in the method's slot for
the current pair; a grid point then costs one slot lookup and one read per
method.  A pair is validated once, where it enters: the walk's pairs are
valid by construction (``iter_dominant_weights`` makes the verify grid and
every mu of ``decompose``, whose lam ``check_lam`` tests first), ``mult``
builds its one ``BranchingQuery`` up front, and the routes that answer
queries derive each k's from their pair's (``BranchingQuery.with_k``).
Both walks count their grid's pairs first, through ``_check_grid``, and
refuse one too large before they build any weight of it.

Exit codes: 0 success/agreement, 1 divergence between methods, 2 usage
error.  Reports go to stdout, diagnostics to stderr.  The environment
variable SOBRANCH_CACHE_ENTRIES bounds the partition memo cache.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Iterable

from . import partition
from .clebsch_gordan import closed_form_B, closed_form_D
from .errors import DomainError, PreconditionError, SobranchError
# Not called here: multiplicity_kostant_reduced, which perfbench's tracer rebinds
from .kostant import multiplicity_kostant_full, multiplicity_kostant_reduced, reduced_pair  # noqa: F401
from .oracle import branch_oracle
from .tsukamoto import multiplicity_tsukamoto
from .u3_so3 import U3Weight, ending_B, ending_D, u3_to_so3_closed, u3_to_so3_oracle
from .weights import (
    FAMILY_B,
    BranchingQuery,
    Weight,
    check_family_n,
    check_lam,
    count_dominant_weights,
    g_rank,
    iter_dominant_weights,
    k_family,
)

USAGE_ERROR = 2


def _oracle(family: str, n: int, lam: Weight, mu: Weight, tables: dict):
    """Reader of the oracle's table of lam, built once per lam and kept under
    a key of its own, apart from the methods' slots."""
    table = tables.get("oracle table")
    if table is None:
        table = tables["oracle table"] = branch_oracle(family, n, lam)
    return table.reader(mu)


# Method name -> entry of a valid pair (family, n, lam, mu, per-lam tables) -> read, in
# alphabetical order: read(k) is the multiplicity.  n/a is decided once, when
# the pair is bound: a PreconditionError from the entry means n/a for every k,
# and no reader raises one.  Closed-form and ending read the pair's SO(3)
# multiset, the oracle its table of lam, kostant-reduced the pair's row;
# tsukamoto and kostant-full build one query per pair, bound as their reader's
# default argument ``at``, and derive one per k.  The entries look the library
# functions up in this module's globals at call time, so code that rebinds one
# of them here (a tracer, a fault injection) sees every call.
METHODS = {
    "closed-form": lambda family, n, lam, mu, tables: (
        closed_form_B(lam, mu) if family == FAMILY_B else closed_form_D(lam, mu)).mult,
    "ending": lambda family, n, lam, mu, tables: (
        ending_B(lam, mu) if family == FAMILY_B else ending_D(lam, mu)).mult,
    "kostant-full": lambda family, n, lam, mu, tables: (
        lambda k, at=BranchingQuery(family, n, lam, mu, 0).with_k: multiplicity_kostant_full(at(k))),
    "kostant-reduced": lambda family, n, lam, mu, tables: reduced_pair(family, n, lam, mu),
    "oracle": _oracle,
    "tsukamoto": lambda family, n, lam, mu, tables: (
        lambda k, at=BranchingQuery(family, n, lam, mu, 0).with_k: multiplicity_tsukamoto(at(k))),
}


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _methods(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return tuple(METHODS)
    names = tuple(name.strip() for name in text.split(","))
    for i, name in enumerate(names):
        if name not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r}; choose from {', '.join(METHODS)}"
            )
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"method {name!r} is named twice")
    return names


def _method_value(
    method: str, family: str, n: int, lam: Weight, mu: Weight, k: int, tables: dict
) -> int | None:
    """One method's answer, or None where it does not apply.  The per-lam tables
    hold one slot per method, (mu, its reader or None) of the pair it bound
    last, so every later point of the pair reads the slot; the pair arrives valid."""
    slot = tables.get(method)
    if slot is None or slot[0] != mu:
        try:
            read = METHODS[method](family, n, lam, mu, tables)
        except PreconditionError:
            read = None
        slot = tables[method] = (mu, read)
    read = slot[1]
    return None if read is None else read(k)


def _row(mu, k: int, method: str, multiplicity: int | None) -> dict:
    return {"mu": list(mu), "k": k, "method": method, "multiplicity": multiplicity}


def _sorted_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: (tuple(r["mu"]), r["k"], r["method"]))


def _emit(report: dict, rows: list[dict], fmt: str, out) -> None:
    """Write the rows, sorted by (mu, k, method), as JSON under ``report``,
    as CSV, or as text; an inapplicable method prints as n/a."""
    rows = _sorted_rows(rows)
    if fmt == "json":
        out.write(json.dumps({**report, "results": rows}) + "\n")
        return
    cells = [
        (",".join(str(c) for c in r["mu"]), r["k"], r["method"],
         "n/a" if r["multiplicity"] is None else r["multiplicity"])
        for r in rows
    ]
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["mu", "k", "method", "multiplicity"])
        writer.writerows(cells)
    else:
        out.writelines("mu=%-12s k=%-3d %-15s %s\n" % cell for cell in cells)


def _cmd_mult(args: argparse.Namespace, out) -> int:
    q = BranchingQuery(args.family, args.n, Weight.of_ints(args.lam), Weight.of_ints(args.mu), args.k)
    tables: dict = {}
    rows = [_row(args.mu, args.k, method, _method_value(method, *q, tables)) for method in args.methods]
    _emit({"family": args.family, "n": args.n, "lambda": list(args.lam)}, rows, args.format, out)
    values = {row["multiplicity"] for row in rows} - {None}
    return 0 if len(values) <= 1 else 1


def _cmd_decompose(args: argparse.Namespace, out) -> int:
    lam = Weight.of_ints(args.lam)
    check_lam(args.family, args.n, lam)
    # a non-zero entry has mu_1 <= lam_1 and k at most the coordinate sum of
    # lam, so the walk over these mu reaches every entry of the table
    top = args.lam[0]
    _check_grid(args.family, args.n, 1, top,
                f"decompose grid of family {args.family} n={args.n} lam={lam}")
    method = args.methods
    mus = list(iter_dominant_weights(k_family(args.family), args.n, top))
    rows = [
        _row(mu.to_ints(), k, method, values[method])
        for _, mu, k, values in _walk(args.family, args.n, [lam], mus, (method,))
        if values[method]
    ]
    _emit({"family": args.family, "n": args.n, "lambda": list(args.lam)}, rows, args.format, out)
    return 0


def _walk(family: str, n: int, lams: Iterable[Weight], mus: list[Weight], methods: tuple[str, ...]):
    """Yield (lam, mu, k, {method: value or None}) for every lam of ``lams``,
    mu of ``mus`` and k up to the coordinate sum of lam, lam-major, with one
    ``_method_value`` call per (point, method).  The tables are new for each
    lam: no slot or oracle table spans two lams, so this loses no reuse and
    holds one pair's readers and one lam's table."""
    for lam in lams:
        tables: dict = {}
        k_top = sum(abs(c) for c in lam.to_ints())
        for mu in mus:
            for k in range(k_top + 1):
                yield lam, mu, k, {
                    method: _method_value(method, family, n, lam, mu, k, tables) for method in methods
                }


#: most coordinates the (lam, mu) pairs of a verify or decompose grid may
#: hold together.  Every pair reads all of its own, so this bounds a walk's
#: least work, and it refuses a huge n, even at max 0, or a huge lam_1
#: before any weight of rank n is built.  D n=4 max=4 (20,580 pairs of 10
#: coordinates) and B n=9 max=2 (4,290 of 19) are well inside.
_GRID_COORDINATES = 1_000_000


def _check_grid(family: str, n: int, lams: int, bound: int, grid: str) -> None:
    """Raise DomainError, naming the ``grid``, if ``lams`` lams paired with
    every dominant mu of first coordinate at most ``bound`` hold more than
    ``_GRID_COORDINATES`` coordinates; the mu are counted, not built."""
    pairs = lams * count_dominant_weights(k_family(family), n, bound, _GRID_COORDINATES)
    if pairs * (g_rank(family, n) + n) > _GRID_COORDINATES:
        raise DomainError(f"the {grid} is too large: "
                          f"its (lam, mu) pairs hold more than {_GRID_COORDINATES} coordinates")


def sweep(family: str, n: int, bound: int, methods: tuple[str, ...]):
    """The verify grid: ``_walk`` over every dominant lam and mu with first
    coordinate at most ``bound``.  A grid whose pairs hold more than
    ``_GRID_COORDINATES`` coordinates raises DomainError before any weight
    is built."""
    lam_rank = g_rank(family, n)
    _check_grid(family, n, count_dominant_weights(family, lam_rank, bound, _GRID_COORDINATES), bound,
                f"verify grid of family {family} n={n} max={bound}")
    mus = list(iter_dominant_weights(k_family(family), n, bound))
    return _walk(family, n, iter_dominant_weights(family, lam_rank, bound), mus, methods)


def _cmd_verify(args: argparse.Namespace, out) -> int:
    check_family_n(args.family, args.n)
    if args.max < 0:
        raise DomainError(f"--max must be non-negative, got {args.max}")
    if len(args.methods) < 2:
        raise DomainError("verify needs at least two distinct methods to cross-check")
    report = {"family": args.family, "n": args.n, "max": args.max,
              "methods": list(args.methods), "points": 0, "divergence": None}
    unchecked = 0
    for lam, mu, k, values in sweep(args.family, args.n, args.max, args.methods):
        report["points"] += 1
        found = [value for value in values.values() if value is not None]
        unchecked += len(found) < 2
        if found and found.count(found[0]) < len(found):
            report["divergence"] = {"lambda": list(lam.to_ints()), "mu": list(mu.to_ints()),
                                    "k": k, "values": values}
            break
    d = report["divergence"]
    if args.format == "json":
        out.write(json.dumps(report) + "\n")
    elif d is None:
        out.write(f"OK family={args.family} n={args.n} max={args.max}: {report['points']} "
                  f"grid points agree across {', '.join(args.methods)}\n")
    else:
        values = ", ".join(f"{m}={v}" for m, v in sorted(d["values"].items()))
        out.write(f"DIVERGENCE family={args.family} n={args.n} lambda={d['lambda']} "
                  f"mu={d['mu']} k={d['k']}: {values}\n")
    if unchecked:
        print(f"note: {unchecked} of {report['points']} grid points had fewer than two "
              "applicable methods", file=sys.stderr)
    return 0 if d is None else 1


def _cmd_u3so3(args: argparse.Namespace, out) -> int:
    if len(args.lam) != 3:
        raise DomainError("u3so3 needs exactly three lambda coordinates")
    lam_prime = U3Weight(*args.lam)
    ks = [args.k] if args.k is not None else range(lam_prime.a1 - lam_prime.a3 + 1)
    rows = []
    diverged = False
    for k in ks:
        closed, oracle_v = u3_to_so3_closed(lam_prime, k), u3_to_so3_oracle(lam_prime, k)
        diverged = diverged or closed != oracle_v
        rows += [_row((), k, "closed-form", closed), _row((), k, "oracle", oracle_v)]
    if args.format == "text":
        for row in _sorted_rows(rows):
            out.write("k=%-3d %-13s %d\n" % (row["k"], row["method"], row["multiplicity"]))
    else:
        _emit({"lambda_prime": list(args.lam)}, rows, args.format, out)
    return 1 if diverged else 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser, with every sub-command registered and
    ``command``'s arguments (every sub-command's when it is None): ``main``
    names the one sub-command its arguments call, so it builds no other's."""
    parser = argparse.ArgumentParser(
        prog="sobranch",
        description="Exact branching multiplicities for SO(m+3) over SO(m) x SO(3).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, need_mu: bool, need_k: bool):
        p.add_argument("--family", choices=("B", "D"), required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--lam", type=_ints, required=True, help="comma-separated integers")
        if need_mu:
            p.add_argument("--mu", type=_ints, required=True, help="comma-separated integers")
        if need_k:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p_mult = sub.add_parser("mult", help="per-method multiplicities for one query")
    if command in (None, "mult"):
        add_common(p_mult, need_mu=True, need_k=True)
        p_mult.add_argument("--methods", type=_methods, default="all")
        p_mult.set_defaults(run=_cmd_mult)

    p_dec = sub.add_parser("decompose", help="full branching table of one lambda")
    if command in (None, "decompose"):
        add_common(p_dec, need_mu=False, need_k=False)
        p_dec.add_argument("--methods", choices=tuple(METHODS), default="oracle")
        p_dec.set_defaults(run=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="cross-method agreement sweep")
    if command in (None, "verify"):
        p_ver.add_argument("--family", choices=("B", "D"), required=True)
        p_ver.add_argument("--n", type=int, required=True)
        p_ver.add_argument("--max", type=int, required=True, help="bound on the first coordinate of lambda")
        p_ver.add_argument("--methods", type=_methods, default="kostant-full,tsukamoto,oracle",
                           help="two or more distinct methods, or all")
        p_ver.add_argument("--format", choices=("json", "text"), default="text")
        p_ver.set_defaults(run=_cmd_verify)

    p_u3 = sub.add_parser("u3so3", help="U(3) to SO(3) branching, closed vs oracle")
    if command in (None, "u3so3"):
        p_u3.add_argument("--lam", type=_ints, required=True, help="three comma-separated integers")
        p_u3.add_argument("--k", type=int, default=None)
        p_u3.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p_u3.set_defaults(run=_cmd_u3so3)

    return parser


def main(argv=None) -> int:
    env_limit = os.environ.get("SOBRANCH_CACHE_ENTRIES")
    if env_limit is not None:
        try:
            limit = int(env_limit)
        except ValueError:
            limit = 0
        if limit < 1:
            print("error: SOBRANCH_CACHE_ENTRIES must be a positive integer", file=sys.stderr)
            return USAGE_ERROR
        partition.shared_cache().set_max_entries(limit)
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.run(args, sys.stdout)
    except SobranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
