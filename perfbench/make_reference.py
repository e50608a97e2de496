"""Regenerate ``reference.json``, the answers every benchmark run is checked
against.

    PYTHONPATH=src python3 perfbench/make_reference.py

* ``verify``: per verify sweep, the JSON report and the digest of every
  (family, n, lam, mu, k, method) -> multiplicity row the sweep computes,
  with n/a kept distinct from 0.
* ``mult-n4``: the multiplicity of each query of the workload, on which
  the full Kostant sum and Tsukamoto's generating function must agree.
* ``decompose-oracle``: the digest of each table's ``decompose --methods
  oracle`` rows, every row cross-checked against Tsukamoto.

Run it only on a commit whose answers are trusted: the benchmark treats
these answers as right.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent


def verify_reference() -> dict:
    out = {}
    for name in workloads.VERIFY_SWEEPS:
        ops = workloads.make_ops(name, 0)
        for argv, res in zip(ops, worker.run_rep({"ops": ops, "setup": [], "capture_rows": True})["outs"]):
            report = json.loads(res["out"])
            if res["rc"] != 0 or report["divergence"] is not None:
                sys.exit(f"{name}: methods diverge: {res['out']}")
            out[" ".join(argv)] = {"report": report, "points": report["points"],
                                   "rows": res["rows"], "digest": res["rows_digest"]}
            print(f"{' '.join(argv)}: {report['points']} points, {res['rows']} rows", flush=True)
    return out


def mult_reference() -> dict:
    from sobranch import BranchingQuery, Weight
    from sobranch import multiplicity_kostant_full, multiplicity_tsukamoto

    out = {}
    for lam, mu, k in workloads.MULT_QUERIES:
        q = BranchingQuery("B", 4, Weight.of_ints(workloads.ints(lam)),
                           Weight.of_ints(workloads.ints(mu)), k)
        m = multiplicity_kostant_full(q)
        if multiplicity_tsukamoto(q) != m:
            sys.exit(f"kostant-full and tsukamoto differ at {q}")
        out[workloads.mult_key(lam, mu, k)] = m
        print(f"mult-n4: lam={lam} mu={mu} k={k}: {m}", flush=True)
    return out


def decompose_reference() -> dict:
    from sobranch import BranchingQuery, Weight, multiplicity_tsukamoto

    ops = [workloads.decompose_argv(*t) + ["--format", "json"] for t in workloads.DECOMPOSE_TABLES]
    out = {}
    for (family, n, lam), res in zip(workloads.DECOMPOSE_TABLES,
                                     worker.run_rep({"ops": ops, "setup": []})["outs"]):
        report = json.loads(res["out"])
        for r in report["results"]:
            q = BranchingQuery(family, n, Weight.of_ints(workloads.ints(lam)),
                               Weight.of_ints(r["mu"]), r["k"])
            if res["rc"] != 0 or multiplicity_tsukamoto(q) != r["multiplicity"]:
                sys.exit(f"oracle and tsukamoto differ at {q}")
        out[workloads.table_key(family, n, lam)] = workloads.table_digest(report)
        print(f"decompose-oracle: {family} n={n} lam={lam}: {len(report['results'])} rows",
              flush=True)
    return out


def main() -> None:
    reference = {
        "verify": verify_reference(),
        "mult-n4": mult_reference(),
        "decompose-oracle": decompose_reference(),
    }
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
