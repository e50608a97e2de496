"""Re-measure the ROADMAP baseline table: cold ``verify`` sweeps, each run
several times in a fresh interpreter, reported as median and quartiles of
the sweep's wall time (not best-of).

    python3 perfbench/baseline.py [--reps 5]

Run from the root of a source checkout.  Writes ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from datetime import datetime, timezone
from pathlib import Path

import run

SWEEPS = {
    "B n=2 max=3 all": ["--family", "B", "--n", "2", "--max", "3", "--methods", "all"],
    "B n=3 max=2 all": ["--family", "B", "--n", "3", "--max", "2", "--methods", "all"],
    "D n=3 max=1 all": ["--family", "D", "--n", "3", "--max", "1", "--methods", "all"],
    "B n=3 max=2 without kostant-full": [
        "--family", "B", "--n", "3", "--max", "2",
        "--methods", "closed-form,ending,kostant-reduced,oracle,tsukamoto",
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    root = Path.cwd()
    rows = {}
    for label, flags in SWEEPS.items():
        argv_ = ["verify", *flags, "--format", "json"]
        walls, points = [], None
        for _ in range(args.reps):
            out = run.run_child(root, {"ops": [argv_], "setup": []})["outs"][0]
            report = json.loads(out["out"])
            if out["rc"] != 0 or report["divergence"] is not None:
                print(f"{label}: methods diverge: {out['out']}", file=sys.stderr)
                return 1
            walls.append(out["s"])
            points = report["points"]
        q1, median, q3 = statistics.quantiles(walls, n=4)
        rows[label] = {"argv": argv_, "points": points, "median_s": median, "q1_s": q1,
                       "q3_s": q3, "runs_s": walls}
        print(f"{label:34} {points:5d} points  median {median:6.2f} s  "
              f"quartiles {q1:6.2f} .. {q3:6.2f} s  ({args.reps} cold runs)", flush=True)
    record = {
        "commit": run.commit_of(root),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "sweeps": rows,
    }
    (run.HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
