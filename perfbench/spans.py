"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps sobranch's public functions from outside, by
rebinding each one in every module namespace where callers look it up (the
package binds names at import with ``from .x import f``, so rebinding
``sobranch.partition.count_vector_partitions`` alone would miss the calls made
by ``sobranch.kostant``).  Each call records one span: name, parent span,
start and end, kept in flat arrays until ``summary`` derives inclusive and
self times and ``write`` saves them.

A span name is ``<layer>.<function>``; the layer is the sobranch module.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter

# (span name, attribute, module namespaces the attribute is looked up in).
# The original function is read from the first namespace.
TARGETS = (
    ("cli.main", "main", ("sobranch.cli",)),
    ("kostant.full", "multiplicity_kostant_full", ("sobranch.cli",)),
    ("kostant.reduced", "multiplicity_kostant_reduced", ("sobranch.cli",)),
    ("partition.count", "count_vector_partitions", ("sobranch.kostant",)),
    ("tsukamoto.mult", "multiplicity_tsukamoto", ("sobranch.cli",)),
    ("tsukamoto.gf", "tsukamoto_generating_function", ("sobranch.tsukamoto",)),
    ("tsukamoto.atuples", "enumerate_atuples", ("sobranch.tsukamoto",)),
    ("clebsch_gordan.closed_form", "closed_form_B", ("sobranch.cli",)),
    ("clebsch_gordan.closed_form", "closed_form_D", ("sobranch.cli",)),
    ("u3_so3.ending", "ending_B", ("sobranch.cli",)),
    ("u3_so3.ending", "ending_D", ("sobranch.cli",)),
    ("oracle.branch", "branch_oracle", ("sobranch.cli",)),
    ("weights.make_root_data", "make_root_data", ("sobranch.weights", "sobranch.kostant")),
    (
        "weights.weyl_elements",
        "weyl_elements",
        ("sobranch.weights", "sobranch.kostant", "sobranch.oracle"),
    ),
)


class Tracer:
    """Records spans and counters for the functions in ``TARGETS``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._gf_keys: set = set()
        self._saved: list = []

    def wrap(self, name: str, fn, note=None, na_error=None):
        """``fn`` recording one span per call; ``note(args, result)`` runs
        after a return, and a raised ``na_error`` is counted as ``<name>.na``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock, counts = self._stack, self.clock, self.counts
        na_key = name + ".na"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if na_error is not None and isinstance(exc, na_error):
                    counts[na_key] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return traced

    def _note(self, name: str):
        counts = self.counts
        if name == "tsukamoto.gf":
            keys = self._gf_keys

            def note(args, result):
                family, lam, mu = args
                keys.add((family, lam.coords2, mu.coords2))
                counts["tsukamoto.gf.distinct"] = len(keys)

            return note
        if name == "tsukamoto.atuples":
            return lambda args, result: counts.update({"tsukamoto.atuples": len(result)})
        if name == "oracle.branch":
            return lambda args, result: counts.update({"oracle.table_entries": len(result)})
        return None

    def _count_terms(self, kostant_terms, weyl_elements, g_rank):
        """``kostant_terms`` counting Weyl terms visited and non-zero terms;
        it records no span, so the orbit loop stays in ``kostant.full``."""
        counts = self.counts

        @functools.wraps(kostant_terms)
        def counted(q):
            counts["kostant.terms_visited"] += len(weyl_elements(q.family, g_rank(q.family, q.n)))
            for item in kostant_terms(q):
                counts["kostant.terms_nonzero"] += 1
                yield item

        return counted

    def install(self) -> None:
        """Rebind every target (and ``kostant_terms``) to its recording wrapper."""
        from sobranch.errors import PreconditionError
        from sobranch.weights import g_rank, weyl_elements

        for name, attr, homes in TARGETS:
            modules = [importlib.import_module(m) for m in homes]
            original = getattr(modules[0], attr)
            na_error = PreconditionError if name.startswith(("clebsch_gordan", "u3_so3")) else None
            traced = self.wrap(name, original, self._note(name), na_error)
            for module in modules:
                self._rebind(module, attr, traced)
        kostant = importlib.import_module("sobranch.kostant")
        counted = self._count_terms(kostant.kostant_terms, weyl_elements, g_rank)
        self._rebind(kostant, "kostant_terms", counted)

    def _rebind(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def summary(self, since: float = float("-inf")) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (inclusive
        minus the direct children), over the spans that started at or after
        ``since``."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            if self.start[i] < since:
                continue
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """Save every span as gzip-compressed JSON: parallel arrays indexed by
        span, with ``name`` indexing ``names`` and ``parent`` -1 at the top."""
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)
