"""Command-line front end.

Subcommands: ``mult`` (per-method multiplicities for one query),
``decompose`` (the full branching table of one ambient highest weight),
``verify`` (method-agreement sweep over a bounded grid), and ``u3so3``
(U(3) to SO(3) branching, closed formula vs oracle).

``sweep`` is the one walk over a verify grid: ``verify`` reports on it and
the cross-route test sweeps check it.  Each method is resolved once per
(lam, mu) pair to a reader of k, kept for the current lam only; a grid
point then costs one lookup and one read per method.

Exit codes: 0 success/agreement, 1 divergence between methods, 2 usage
error.  Reports go to stdout, diagnostics to stderr.  The environment
variable SOBRANCH_CACHE_ENTRIES bounds the partition memo cache.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys

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
    check_pair,
    g_rank,
    interlace,
    iter_dominant_weights,
    k_family,
)

USAGE_ERROR = 2
_MISSING = object()


def _oracle(family: str, n: int, lam: Weight, mu: Weight, tables: dict):
    """Reader of the oracle's table of lam, built once per lam."""
    table = tables.get("oracle")
    if table is None:
        table = tables["oracle"] = branch_oracle(family, n, lam)
    return lambda k: table.get(mu, k)


# Method name -> pair entry (family, n, lam, mu, per-lam tables) -> read, in
# alphabetical order: read(k) is the multiplicity, and a PreconditionError
# from either step means n/a.  Closed-form and ending read the pair's SO(3)
# multiset, the oracle its table of lam, kostant-reduced the pair's binding;
# tsukamoto and kostant-full make one query per k.  The entries look the
# library functions up in this module's globals at call time, so code that
# rebinds one of them here (a tracer, a fault injection) sees every call.
METHODS = {
    "closed-form": lambda family, n, lam, mu, tables: (
        closed_form_B(lam, mu) if family == FAMILY_B else closed_form_D(lam, mu)).mult,
    "ending": lambda family, n, lam, mu, tables: (
        ending_B(lam, mu) if family == FAMILY_B else ending_D(lam, mu)).mult,
    "kostant-full": lambda family, n, lam, mu, tables: lambda k: multiplicity_kostant_full(
        BranchingQuery(family, n, lam, mu, k)),
    "kostant-reduced": lambda family, n, lam, mu, tables: reduced_pair(family, n, lam, mu),
    "oracle": _oracle,
    "tsukamoto": lambda family, n, lam, mu, tables: lambda k: multiplicity_tsukamoto(
        BranchingQuery(family, n, lam, mu, k)),
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
    """One method's answer, or None where it does not apply.  Its reader of (lam, mu),
    or None, is kept in the per-lam tables from the pair's first point, which validates."""
    read = tables.get((method, mu), _MISSING)
    if read is _MISSING:
        BranchingQuery(family, n, lam, mu, k)
        try:
            read = METHODS[method](family, n, lam, mu, tables)
        except PreconditionError:
            read = None
        tables[method, mu] = read
    try:
        return None if read is None else read(k)
    except PreconditionError:
        return None


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
    check_family_n(args.family, args.n)
    lam, mu = Weight.of_ints(args.lam), Weight.of_ints(args.mu)
    tables: dict = {}
    rows = [
        _row(args.mu, args.k, method,
             _method_value(method, args.family, args.n, lam, mu, args.k, tables))
        for method in args.methods
    ]
    _emit({"family": args.family, "n": args.n, "lambda": list(args.lam)}, rows, args.format, out)
    values = {row["multiplicity"] for row in rows} - {None}
    return 0 if len(values) <= 1 else 1


def _cmd_decompose(args: argparse.Namespace, out) -> int:
    lam = Weight.of_ints(args.lam)
    # mu = 0 is dominant for every subgroup, so this checks family, n and lam
    check_pair(args.family, args.n, lam, Weight((0,) * args.n))
    if args.methods == "oracle":
        table = branch_oracle(args.family, args.n, lam)
        rows = [_row(mu, k, "oracle", m) for (mu, k), m in table.items()]
    else:
        closed_form = closed_form_B if args.family == FAMILY_B else closed_form_D
        rows = [
            _row(mu.to_ints(), k, "closed-form", m)
            for mu in iter_dominant_weights(k_family(args.family), args.n, max(args.lam))
            if interlace("simple", args.family, lam, mu)
            for k, m in closed_form(lam, mu).items()
        ]
    _emit({"family": args.family, "n": args.n, "lambda": list(args.lam)}, rows, args.format, out)
    return 0


def _grid(family: str, n: int, bound: int):
    """Every (lam, mu, k) of a verify sweep: dominant lam and mu with first
    coordinate at most ``bound``, and k up to the coordinate sum of lam."""
    mus = list(iter_dominant_weights(k_family(family), n, bound))
    for lam in iter_dominant_weights(family, g_rank(family, n), bound):
        k_top = sum(abs(c) for c in lam.to_ints())
        for mu in mus:
            for k in range(k_top + 1):
                yield lam, mu, k


def sweep(family: str, n: int, bound: int, methods: tuple[str, ...]):
    """Yield (lam, mu, k, {method: value or None}) for every point of
    ``_grid``, in its order, with one ``_method_value`` call per (point,
    method).  The tables are new for each lam: the grid is lam-major and no
    table key spans two lams, so this loses no reuse and holds one lam's."""
    for lam, points in itertools.groupby(_grid(family, n, bound), key=lambda point: point[0]):
        tables: dict = {}
        for _, mu, k in points:
            yield lam, mu, k, {
                method: _method_value(method, family, n, lam, mu, k, tables) for method in methods
            }


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
        unchecked += sum(v is not None for v in values.values()) < 2
        if len(set(values.values()) - {None}) > 1:
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


def build_parser() -> argparse.ArgumentParser:
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
    add_common(p_mult, need_mu=True, need_k=True)
    p_mult.add_argument("--methods", type=_methods, default="all")
    p_mult.set_defaults(run=_cmd_mult)

    p_dec = sub.add_parser("decompose", help="full branching table of one lambda")
    add_common(p_dec, need_mu=False, need_k=False)
    p_dec.add_argument("--methods", choices=("oracle", "closed-form"), default="oracle")
    p_dec.set_defaults(run=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="cross-method agreement sweep")
    p_ver.add_argument("--family", choices=("B", "D"), required=True)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--max", type=int, required=True, help="bound on the first coordinate of lambda")
    p_ver.add_argument("--methods", type=_methods, default="kostant-full,tsukamoto,oracle",
                       help="two or more distinct methods, or all")
    p_ver.add_argument("--format", choices=("json", "text"), default="text")
    p_ver.set_defaults(run=_cmd_verify)

    p_u3 = sub.add_parser("u3so3", help="U(3) to SO(3) branching, closed vs oracle")
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
    parser = build_parser()
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
