"""sobranch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sobranch is imported from ``src``.
A workload is a list of CLI calls (``workloads.py``).  Each pass makes the
calls in one fresh interpreter (``worker.py``), like a CLI invocation: cold
memo caches, and ``SOBRANCH_CACHE_ENTRIES`` removed so the default memo
bound applies.  An untimed check pass comes first: it compiles the bytecode,
so no measured process pays for it, and it records every (lam, mu, k,
method) value of a verify sweep for comparison with the reference's row
digest.  Timed passes then repeat until ``--seconds``, counted from the
check pass, are used up (at least three).  Every answer of every pass, the
check pass included, is checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import sobranch, then build root data and Weyl groups for
  the workload's (family, n); median over the passes;
* ``wall_s``: the calls' time, each chunk (below) at its fastest over the
  passes;
* ``ops_per_s``: operations (``workloads.op_points``) per second of
  ``wall_s``;
* ``op_p50_ms``, ``op_p90_ms``: percentiles of the operations' times, each
  made of its chunks at their fastest.  A verify sweep's operation is a
  grid point, from its first method's call to the next point's; mult and
  decompose make one call per operation;
* ``peak_rss_mib``: peak resident memory of the pass's process, median over
  the passes that record no chunks.

How the times are made steady on a shared machine.  On a 2-vCPU VM whose
neighbours come and go, the same cold pass runs up to 2x slower in phases
of seconds to minutes, CPU time tracking wall time, so neither a pass's
median nor its fastest pass repeated within 25% between runs.  Two steps
bring ten-run spreads to a few percent, and to under 15% in the noisiest
hour seen:

* Chunks.  In two of every three timed passes the worker notes the clock
  at each call into a few hot functions (``worker.CHUNK_MARKS``), which
  splits every CLI call into pieces of microseconds to milliseconds; with
  the hash seed fixed the pieces are the same work in every pass.  Each
  piece is kept at its fastest over the passes, so a call's time is
  assembled from the quiet moments of the whole run.
* Host scale.  The marked passes also time a fixed calibration kernel
  that shares no code with sobranch (``worker.calibration_kernel``), 30
  runs a pass.  Every end-to-end time is multiplied by ``CAL_REF_S`` over
  the kernel's time, taken like a call's (``host_scale``), which takes out
  slow phases that last the whole run.
  A change to sobranch leaves the kernel alone, so it moves the reported
  times by as much as it moves the measured ones.  The human-readable
  lines print the scale.

``--trace 1`` alternates untraced and traced passes on the same calls,
requires identical outputs from both, and reports per-layer metrics,
averaged over the traced passes, from the spans of ``spans.py``: calls,
inclusive seconds ``*.s`` and self seconds ``*.self_s`` (inclusive minus
child spans), counters, and ``trace.overhead_frac`` (traced over untraced
``wall_s``, minus 1).  ``weights.*.s`` include set-up; every
other figure covers the calls only.

Human-readable lines come first; the last line of stdout is the JSON result.
The exit code is 0 when every answer is correct, 1 when one is not, and 2
when the benchmark cannot run here (for example without ``src/sobranch``).
The run's record, with Python version, CPU count, commit and seed, and the
first traced pass's spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
# The calibration kernel's time (``host_scale``) on the host the bounds were
# set on (2-vCPU Intel Xeon VM, Python 3.11); end-to-end times are rescaled
# to it.
CAL_REF_S = 0.00165
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SOBRANCH_CACHE_ENTRIES"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"  # the same chunks, in the same order, in every pass
    return env


def run_child(root: Path, spec: dict) -> dict:
    """One pass in a fresh interpreter; raises BenchError if the worker
    itself fails (a failing operation is reported, not raised)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True,
        cwd=root, env=child_env(root), timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def best_calls_s(passes: list[dict]) -> float:
    """The calls' time, each call at its fastest over the passes."""
    return sum(min(p["outs"][i]["s"] for p in passes) for i in range(len(passes[0]["outs"])))


def fold_chunks(best: list, result: dict) -> None:
    """Keep in ``best`` each call's chunks at their fastest so far, and take
    the chunks out of ``result``.  A call whose chunk count differs between
    passes is kept as one chunk, its whole time."""
    for i, out in enumerate(result["outs"]):
        chunks, starts = out.pop("chunks"), out.pop("method_starts")
        if best[i] is None:
            best[i] = {"chunks": chunks, "starts": starts}
        elif len(best[i]["chunks"]) == len(chunks):
            best[i]["chunks"] = [min(a, b) for a, b in zip(best[i]["chunks"], chunks)]
        else:
            best[i] = {"chunks": [min(sum(best[i]["chunks"]), out["s"])], "starts": []}


def op_seconds(points: int, best: dict) -> list[float]:
    """Fastest times of one call's operations.  A sweep's grid point runs
    from its first method's call to the next point's (the first point also
    holds the call's start, the last its end); without chunks to split
    them, a call's points share its time evenly."""
    chunks, starts = best["chunks"], best["starts"]
    per_point = len(starts) // points
    if points == 1 or per_point == 0 or per_point * points != len(starts):
        return [sum(chunks) / points] * points
    edges = [0, *starts[per_point::per_point], len(chunks)]
    return [sum(chunks[a:b]) for a, b in zip(edges, edges[1:])]


def host_scale(passes: list[dict]) -> float:
    """``CAL_REF_S`` over the calibration kernel's time in the run.  Like a
    call's chunks, each of a pass's kernel runs is kept at its fastest over
    the passes, so the kernel and the calls are sampled alike."""
    runs = [p["cal_s"] for p in passes if p["cal_s"]]
    return CAL_REF_S / statistics.fmean(min(times) for times in zip(*runs))


def end_to_end(reference: dict, ops: list, passes: list[dict], best: list) -> dict:
    scale = host_scale(passes)
    points = [workloads.op_points(reference, argv) for argv in ops]
    lat_ms = [1000.0 * scale * t for k, b in zip(points, best) for t in op_seconds(k, b)]
    wall = scale * sum(sum(b["chunks"]) for b in best)
    return {
        "setup_s": (scale * statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (sum(points) / wall, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (p90(lat_ms), "ms"),
        "peak_rss_mib": (
            statistics.median(p["peak_rss_kib"] for p in passes if not p["marked"]) / 1024, "MiB"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer figures of one pass, averaged over the traced passes."""
    n = len(traced)

    def span(key, field, setup=False):
        return sum(r["setup_spans" if setup else "spans"].get(key, {}).get(field, 0)
                   for r in traced) / n

    def count(key):
        return sum(r["counts"].get(key, 0) for r in traced) / n

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(layer):
        return sum(span(key, "self_s") for key in traced[0]["spans"] if key.startswith(layer + "."))

    full_calls = span("kostant.full", "calls")
    kostant_calls = full_calls + span("kostant.reduced", "calls")
    gf_calls = span("tsukamoto.gf", "calls")
    cf_calls = span("clebsch_gordan.closed_form", "calls")
    end_calls = span("u3_so3.ending", "calls")
    return {
        "cli.main.s": (span("cli.main", "s"), "s"),
        "cli.self_s": (span("cli.main", "self_s"), "s"),
        "kostant.full.calls": (full_calls, "count"),
        "kostant.full.s": (span("kostant.full", "s"), "s"),
        "kostant.full.self_s": (span("kostant.full", "self_s"), "s"),
        "kostant.terms_visited": (count("kostant.terms_visited"), "count"),
        "kostant.terms_nonzero": (count("kostant.terms_nonzero"), "count"),
        "kostant.nonzero_ratio": (
            ratio(count("kostant.terms_nonzero"), count("kostant.terms_visited")), "ratio"),
        "kostant.reduced.calls": (span("kostant.reduced", "calls"), "count"),
        "kostant.reduced.s": (span("kostant.reduced", "s"), "s"),
        "kostant.self_s": (layer_self("kostant"), "s"),
        "partition.count.calls": (span("partition.count", "calls"), "count"),
        "partition.count.s": (span("partition.count", "s"), "s"),
        "partition.count.per_kostant_call": (
            ratio(span("partition.count", "calls"), kostant_calls), "ratio"),
        "partition.cache_entries_end": (sum(r["cache_entries"] for r in traced) / n, "count"),
        "tsukamoto.gf.calls": (gf_calls, "count"),
        "tsukamoto.gf.s": (span("tsukamoto.gf", "s"), "s"),
        "tsukamoto.gf.reuse_ratio": (ratio(gf_calls, count("tsukamoto.gf.distinct")), "ratio"),
        "tsukamoto.atuples": (count("tsukamoto.atuples"), "count"),
        "tsukamoto.atuples.s": (span("tsukamoto.atuples", "s"), "s"),
        "tsukamoto.self_s": (layer_self("tsukamoto"), "s"),
        "clebsch_gordan.closed_form.calls": (cf_calls, "count"),
        "clebsch_gordan.closed_form.s": (span("clebsch_gordan.closed_form", "s"), "s"),
        "clebsch_gordan.na_frac": (ratio(count("clebsch_gordan.closed_form.na"), cf_calls), "ratio"),
        "u3_so3.ending.calls": (end_calls, "count"),
        "u3_so3.ending.s": (span("u3_so3.ending", "s"), "s"),
        "u3_so3.na_frac": (ratio(count("u3_so3.ending.na"), end_calls), "ratio"),
        "oracle.branch.calls": (span("oracle.branch", "calls"), "count"),
        "oracle.branch.s": (span("oracle.branch", "s"), "s"),
        "oracle.table_entries": (count("oracle.table_entries"), "count"),
        "weights.make_root_data.s": (span("weights.make_root_data", "s", setup=True), "s"),
        "weights.weyl_elements.s": (span("weights.weyl_elements", "s", setup=True), "s"),
        "weights.self_s": (layer_self("weights"), "s"),
        "trace.wall_s": (sum(r["wall_s"] for r in traced) / n, "s"),
        "trace.overhead_frac": (best_calls_s(traced) / best_calls_s(untraced) - 1, "ratio"),
    }


def run(args, root: Path) -> int:
    if not (root / "src" / "sobranch" / "__init__.py").is_file():
        raise BenchError(f"no sobranch sources under {root / 'src'}; run from a checkout root")
    reference = json.loads((HERE / "reference.json").read_text())
    name = args.workload
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    ops = workloads.make_ops(name, args.seed)
    spec = {"ops": ops, "setup": workloads.SETUP[name]}
    attempted = failed = mismatched = 0

    def check(result: dict) -> None:
        nonlocal attempted, failed
        for argv, out in zip(ops, result["outs"]):
            a, f = workloads.check_op(name, reference, argv, out)
            attempted += a
            failed += f

    started = time.perf_counter()
    check(run_child(root, dict(spec, capture_rows=name in workloads.VERIFY_SWEEPS)))
    untraced, traced = [], []
    best: list = [None] * len(ops)
    while True:
        plain = run_child(root, dict(spec, chunks=len(untraced) % 3 != 2))
        check(plain)
        if plain["marked"]:
            fold_chunks(best, plain)
        untraced.append(plain)
        if args.trace:
            spans_out = out_dir / f"spans-{name}-seed{args.seed}.json.gz"
            rec = run_child(root, dict(spec, trace=True,
                                       spans_out=None if traced else str(spans_out)))
            traced.append(rec)
            check(rec)
            mismatched += sum(a["out"] != b["out"] or a["rc"] != b["rc"]
                              for a, b in zip(plain["outs"], rec["outs"]))
        done = len(untraced)
        elapsed = time.perf_counter() - started
        if done >= MIN_PASSES and elapsed * (done + 1) / done > args.seconds:
            break

    correct = failed == 0 and mismatched == 0
    e2e = end_to_end(reference, ops, untraced, best)
    metrics = per_layer(traced, untraced) if args.trace else e2e
    info = {
        "workload": name, "seed": args.seed, "trace": args.trace, "ops": len(ops),
        "passes": len(untraced), "python": platform.python_version(), "cpus": os.cpu_count(),
        "commit": commit_of(root),
    }
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    print(f"  host scale {host_scale(untraced):.4f} (times below are measured times"
          f" times this; calibration kernel {CAL_REF_S / host_scale(untraced) * 1000:.4f} ms,"
          f" reference {CAL_REF_S * 1000} ms)")
    for key, (value, unit) in e2e.items():
        print(f"  {key:<16} {value:12.4f} {unit}")
    print(f"  {'failed_frac':<16} {failed / attempted:12.4f} ({failed} of {attempted} operations)")
    if args.trace:
        self_sum = sum(v["self_s"] for r in traced for v in r["spans"].values()) / len(traced)
        print(f"  traced outputs differing from untraced: {mismatched}")
        print(f"  layer self times sum to {self_sum:.4f} s of {metrics['trace.wall_s'][0]:.4f} s traced")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<34} {value:14.6f} {unit}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(info, result=result, end_to_end={k: v for k, (v, _) in e2e.items()},
                  pass_walls=[p["wall_s"] for p in untraced],
                  pass_setups=[p["setup_s"] for p in untraced],
                  host_scale=host_scale(untraced),
                  chunks_per_call=[len(b["chunks"]) for b in best],
                  op_seconds=[[o["s"] for o in p["outs"]] for p in untraced])
    (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args, Path.cwd())
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
