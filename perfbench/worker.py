"""One cold pass over a workload's CLI calls, in its own interpreter.

Reads a JSON spec on stdin::

    {"ops": [argv, ...], "setup": [[family, n], ...], "trace": bool,
     "chunks": bool, "capture_rows": bool, "spans_out": path or null}

imports sobranch, builds root data and Weyl groups for each (family, n) of
the set-up, runs every argv through ``sobranch.cli.main`` with its output
captured, and prints one JSON line: set-up and body seconds, each call's exit
code, output and seconds, the peak resident set and, when traced, the span
summary and counters.  ``capture_rows`` records every (lam, mu, k, method)
value that ``verify`` computes and returns their digest per call.

``chunks`` splits each call's time at every entry into the functions of
``CHUNK_MARKS`` and returns the pieces in order (``out["chunks"]``; they sum
to ``out["s"]``), with the indices of the pieces that begin at a
``_method_value`` call (``out["method_starts"]``).  The marks cost one clock
read per marked call.  With the hash seed fixed by the caller a pass is
deterministic, so piece ``i`` of a call is the same work in every pass of a
run.  A ``chunks`` pass also times ``CAL_REPS`` runs of a fixed calibration
kernel before and after its calls (``cal_s``).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from array import array

import workloads

# (module, attribute) whose calls split a call's time into chunks: one per
# (point, method) of a sweep, per Weyl term of the Kostant sum, and per
# restricted weight and product character of the oracle.  Each is rebound in
# the namespace its callers look it up in.
CHUNK_MARKS = (
    ("sobranch.cli", "_method_value"),
    ("sobranch.kostant", "count_vector_partitions"),
    ("sobranch.oracle", "restrict"),
    ("sobranch.oracle", "_char_items"),
)

CAL_REPS = 15


def calibration_kernel() -> int:
    """Fixed pure-Python work (tuples, dict updates, small integers) that
    shares no code with sobranch; its time tracks the host's speed."""
    table: dict = {}
    base = (3, 1, 4, 1, 5)
    for i in range(2000):
        key = tuple(a + i % 7 for a in base)
        table[key] = table.get(key, 0) + i * (i & 3)
    return len(table)


def time_calibration() -> list[float]:
    out = []
    for _ in range(CAL_REPS):
        start = time.perf_counter()
        calibration_kernel()
        out.append(time.perf_counter() - start)
    return out


class Marks:
    """Entry times of the ``CHUNK_MARKS`` functions and the index of each in
    ``CHUNK_MARKS``, in call order.  Recording them moves peak memory, so
    the caller takes peak memory from passes without marks."""

    def __init__(self):
        self.times = array("d")
        self.kinds = array("b")
        self.saved: list = []

    def install(self) -> None:
        """Rebind every ``CHUNK_MARKS`` function to record its entries."""
        clock, times, kinds = time.perf_counter, self.times, self.kinds

        def marking(fn, kind):
            def marked(*args, **kwargs):
                times.append(clock())
                kinds.append(kind)
                return fn(*args, **kwargs)

            return marked

        for kind, (module_name, attr) in enumerate(CHUNK_MARKS):
            module = importlib.import_module(module_name)
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, marking(getattr(module, attr), kind))

    def uninstall(self) -> None:
        while self.saved:
            module, attr, fn = self.saved.pop()
            setattr(module, attr, fn)

    def chunks(self, start: float, lo: int, hi: int, end: float) -> tuple[list, list]:
        """The pieces of a call that ran from ``start`` to ``end`` while marks
        ``lo`` to ``hi`` were made, and the indices of the pieces that begin
        at a ``_method_value`` call."""
        edges = [start, *self.times[lo:hi], end]
        starts = [i + 1 for i, kind in enumerate(self.kinds[lo:hi]) if kind == 0]
        return [b - a for a, b in zip(edges, edges[1:])], starts


def _capture_rows(cli, rows: list):
    """Record every value ``verify`` computes; returns the original dispatch."""
    method_value = cli._method_value

    def recording(method, family, n, lam, mu, k, oracles):
        value = method_value(method, family, n, lam, mu, k, oracles)
        rows.append(workloads.row_line(family, n, lam.to_ints(), mu.to_ints(), k, method, value))
        return value

    cli._method_value = recording
    return method_value


def run_rep(spec: dict) -> dict:
    cal_s = time_calibration() if spec.get("chunks") else []
    t0 = time.perf_counter()
    import sobranch  # noqa: F401  (part of the timed set-up)
    from sobranch import cli, partition, weights

    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    rows: list = []
    method_value = _capture_rows(cli, rows) if spec.get("capture_rows") else None
    for family, n in spec["setup"]:
        weights.make_root_data(family, n)
        weights.weyl_elements(family, weights.g_rank(family, n))
    setup_s = time.perf_counter() - t0
    marks = Marks()
    if spec.get("chunks"):
        marks.install()
    body_start = time.perf_counter()

    outs, op_rows, bounds = [], [], []
    for argv in spec["ops"]:
        out, err = io.StringIO(), io.StringIO()
        first_mark = len(marks.times)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an operation that crashes is a failed operation
            rc = None
            err.write(repr(exc))
        end = time.perf_counter()
        outs.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-400:],
                     "s": end - start})
        bounds.append((start, first_mark, len(marks.times), end))
        op_rows.append(rows[:])
        rows.clear()
    wall_s = time.perf_counter() - body_start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec.get("chunks"):
        marks.uninstall()
        cal_s += time_calibration()
        for out, bound in zip(outs, bounds):
            out["chunks"], out["method_starts"] = marks.chunks(*bound)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "outs": outs,
        "peak_rss_kib": peak_rss_kib,
        "cache_entries": len(partition.shared_cache()),
        "cal_s": cal_s,
        "marked": bool(spec.get("chunks")),
    }
    if method_value is not None:
        cli._method_value = method_value
        for out, lines in zip(outs, op_rows):
            out["rows"] = len(lines)
            out["rows_digest"] = workloads.digest(lines)
    if tracer is not None:
        result["spans"] = tracer.summary(since=body_start)
        result["setup_spans"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"])
        tracer.uninstall()
    return result


def main() -> None:
    result = run_rep(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
