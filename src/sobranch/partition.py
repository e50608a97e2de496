"""Exact evaluation of Kostant vector partition functions.

A partition count of a target over a multiset of generator weights is the
number of ways to write the target as a sum of generators with non-negative
integer multiplicities (duplicate generators count as distinct).  It is
finite exactly when the generators span a pointed cone.

``partition_function`` binds a generator multiset once: it validates the
generators, sorts them, plans their rows (refusing a multiset whose rows
are not finite) and names the multiset's memo entries by a small integer.

Rows are the one evaluator.  ``PartitionFunction.row(head)`` counts every
target (head, last) at once and returns the counts by last coordinate.  It
is a memo DP over (generator index, head residual) whose entries are
histograms last -> count.  Two zero tests, read off the generators alone,
prune it: a head functional psi, positive on every non-zero head
projection, bounds the residual (psi . head drops by psi . g per generator
taken and may not go negative), and a residual negative on a coordinate
where every remaining generator is >= 0, or non-zero on one where every
remaining generator is 0, has an empty histogram.  A generator whose head
projection is zero does not enter the DP; it is applied afterwards as a 1-D
count over the last coordinate.  The one such generator in use, family D's
-e_last, has a negative last coordinate, so the count is a same-parity
suffix sum; the bind refuses a zero-head generator with a positive one.
Rows and their histograms live in the shared cache under the binding's
namespace, each weighing its number of cells against the cache's cap.

``count_vector_partitions`` counts one target: it validates the target,
appends a zero last coordinate to every generator, and reads the count at
last coordinate 0 off the row whose head is the whole target.

``count_sigma_prime`` counts over the paired generators e_i +- e_last,
1 <= i <= n: it reads the count off the row of the target's head, from
sigma' bound once per n in a small LRU.
"""

from __future__ import annotations

import itertools
import threading
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DomainError
from .weights import Weight

#: the CLI overrides it from the SOBRANCH_CACHE_ENTRIES environment variable
DEFAULT_CACHE_ENTRIES = 4_000_000

_PERCEPTRON_ROUNDS = 100_000

#: bound partition functions kept, one per generator multiset in use
_BOUND_FUNCTIONS = 16


class PartitionCache:
    """Bounded memo for partition rows.

    Entries are pure facts, a head -> its row or (index, residual) -> a
    histogram, so the cache never changes results.  The cap
    ``max_entries`` counts cells, one per last coordinate a row or
    histogram holds (at least one), so it bounds memory whatever the mix.
    An insert that would pass the cap evicts the whole cache first, and a
    value heavier than the cap on its own is not kept at all.  A lock guards
    lookups and inserts so the cache may be shared across threads.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        self.max_entries = max(1, int(max_entries))
        self._data: dict = {}
        self._cells = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            return self._data.get(key)

    def put(self, key, value, cells: int = 1) -> None:
        """Keep ``value`` under ``key``; ``cells`` is its weight against the cap."""
        with self._lock:
            if cells > self.max_entries:
                return
            if self._cells + cells > self.max_entries:
                self._data.clear()
                self._cells = 0
            self._data[key] = value
            self._cells += cells

    def set_max_entries(self, max_entries: int) -> None:
        with self._lock:
            self.max_entries = max(1, int(max_entries))
            if self._cells > self.max_entries:
                self._data.clear()
                self._cells = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_shared_cache = PartitionCache()


def shared_cache() -> PartitionCache:
    """The process-wide partition memo."""
    return _shared_cache


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _positive_functional(gens2: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """An integer functional strictly positive on every generator, found by
    a perceptron iteration; fails iff the cone is not pointed."""
    rank = len(gens2[0])
    w = [0] * rank
    for _ in range(_PERCEPTRON_ROUNDS):
        bad = None
        for g in gens2:
            if _dot(w, g) <= 0:
                bad = g
                break
        if bad is None:
            return tuple(w)
        w = [wi + gi for wi, gi in zip(w, bad)]
    raise DomainError(
        "generators do not span a pointed cone on the head coordinates; "
        "a row of partition counts is not finite"
    )


# Cache-key namespaces: one small integer per bound generator multiset, so a
# memo key hashes an int instead of the whole generator tuple.
_namespaces = itertools.count()


class PartitionFunction:
    """The partition function of one generator multiset, bound once.

    Holds the sorted doubled-integer generators and the plan every row DP of
    the multiset reads, made at the bind, so a row does none of that work
    again.  Build one with ``partition_function``.
    """

    __slots__ = ("gens2", "_ns", "_moving", "_psi", "_steps", "_stops", "_dead", "_zero_step")

    def __init__(self, gens2: tuple[tuple[int, ...], ...]):
        """Plan the rows of ``gens2``: the generators with a non-zero head
        projection as (head, last); psi, an integer functional positive on
        each of those heads; psi . head per generator; per index, the head
        coordinates where every generator from there on is >= 0 (a residual
        negative there has no partition) and those where every one is 0 (a
        residual non-zero there has none); and the last coordinate of the
        one generator with a zero head, negative, or 0.  Raises DomainError
        where the heads do not span a pointed cone, or where more than one
        generator, or one with a positive last coordinate, has a zero head
        projection.  A multiset that passes spans a pointed cone: a large
        multiple of psi, less the last coordinate, is positive on it."""
        split = [(g[:-1], g[-1]) for g in gens2]
        moving = tuple((h, last) for h, last in split if any(h))
        zero = [last for h, last in split if not any(h)]
        if len(zero) > 1 or any(last > 0 for last in zero):
            raise DomainError(
                "a row applies at most one generator with a zero head projection, "
                "and only one with a negative last coordinate"
            )
        heads = tuple(h for h, _ in moving)
        psi = _positive_functional(heads) if heads else (0,) * (len(gens2[0]) - 1)
        coords = range(len(psi))
        suffixes = [heads[i:] for i in range(len(heads))]
        self.gens2 = gens2
        self._ns = next(_namespaces)
        self._moving = moving
        self._psi = psi
        self._steps = tuple(_dot(psi, h) for h in heads)
        self._stops = tuple(
            tuple(c for c in coords if all(h[c] >= 0 for h in rest)) for rest in suffixes
        )
        self._dead = tuple(
            tuple(c for c in coords if not any(h[c] for h in rest)) for rest in suffixes
        )
        self._zero_step = zero[0] if zero else 0

    def row(self, head: tuple[int, ...]) -> "Row":
        """The partition counts of the doubled-integer targets (head, last)
        for every last, as a ``Row``: ``row(head)[last]`` is the count of
        ``head + (last,)``."""
        key = (self._ns, -1, head)
        row = _shared_cache.get(key)
        if row is None:
            level = _dot(self._psi, head)
            row = Row(self._hist(0, head, level) if level >= 0 else {}, self._zero_step)
            _shared_cache.put(key, row, max(1, len(row)))
        return row

    def _hist(self, index: int, head: tuple[int, ...], level: int) -> dict:
        # last -> count over the non-zero-head generators from index on;
        # level is psi . head >= 0 and drops by psi . g per generator taken
        moving = self._moving
        if index == len(moving):
            return _EMPTY if any(head) else _UNIT
        key = (self._ns, index, head)
        hit = _shared_cache.get(key)
        if hit is not None:
            return hit
        stop = self._stops[index]
        if any(head[c] < 0 for c in stop) or any(head[c] for c in self._dead[index]):
            return _EMPTY
        g, g_last = moving[index]
        step = self._steps[index]
        out: dict = {}
        shift = 0
        while True:
            for last, ways in self._hist(index + 1, head, level).items():
                out[last + shift] = out.get(last + shift, 0) + ways
            head = tuple(a - b for a, b in zip(head, g))
            level -= step
            shift += g_last
            if level < 0 or any(head[c] < 0 for c in stop):
                break
        _shared_cache.put(key, out, max(1, len(out)))
        return out


_EMPTY: dict = {}
_UNIT = {0: 1}


class Row(dict):
    """Partition counts of one head target by last coordinate: ``row[last]``
    is the count of (head, last) for any integer ``last``.  Holds the counts
    on the histogram's span; above it a count is 0, and below it a count
    repeats with period |step| where a zero-head step (negative) is applied,
    and is 0 where none is.  Built by ``PartitionFunction.row``; never
    mutated."""

    __slots__ = ("_step", "_lo")

    def __init__(self, hist: dict, step: int):
        super().__init__()
        self._step = step
        self._lo = None  # the low end of the span, where a step repeats it
        if not step or not hist:
            self.update(hist)
            return
        # a zero-head step adds to the count at last those at last - step,
        # last - 2 step, ...: a running sum down the span from its high end
        lo, hi = min(hist), max(hist)
        self._lo = lo
        for last in range(hi, lo - 1, -1):
            self[last] = hist.get(last, 0) + self.get(last - step, 0)

    def __missing__(self, last: int) -> int:
        lo = self._lo
        if lo is not None and last < lo:
            return self[lo + (last - lo) % -self._step]
        return 0


@lru_cache(maxsize=_BOUND_FUNCTIONS)
def _bind(gens2: tuple[tuple[int, ...], ...]) -> PartitionFunction:
    return PartitionFunction(gens2)


def partition_function(generators: Iterable[Weight]) -> PartitionFunction:
    """The bound partition function of a non-empty generator multiset of one
    rank; zero generators and multisets whose rows are not finite (see
    ``PartitionFunction``) raise DomainError.  Equal multisets share one
    binding while it stays in a small LRU."""
    gens = tuple(generators)
    if not gens:
        raise DomainError("an empty generator set has no partition function to bind")
    if any(g.rank != gens[0].rank for g in gens):
        raise DomainError("generators of different ranks")
    if any(not any(g.coords2) for g in gens):
        raise DomainError("zero generator admits infinitely many partitions")
    return _bind(tuple(sorted(g.coords2 for g in gens)))


def count_vector_partitions(generators: Iterable[Weight], target: Weight) -> int:
    """Number of ways to write ``target`` as a non-negative integer
    combination of ``generators`` (a multiset: duplicates are distinct).

    Targets with non-integral coordinates give 0.  Rank mismatches and
    generator multisets without a finite count (zero generators, cones that
    are not pointed) raise DomainError.
    """
    generators = tuple(generators)
    for g in generators:
        if g.rank != target.rank:
            raise DomainError(
                f"generator rank {g.rank} does not match target rank {target.rank}"
            )
    if not target.is_integral:
        return 0
    if not generators:
        return 1 if not any(target.coords2) else 0
    # a zero last coordinate appended: every generator keeps a non-zero head,
    # and the heads span a pointed cone exactly when the generators do
    bound = partition_function(Weight(g.coords2 + (0,)) for g in generators)
    return bound.row(target.coords2)[0]


#: sigma' bindings kept, one per n
_SIGMA_PRIMES = 8


@lru_cache(maxsize=_SIGMA_PRIMES)
def _sigma_prime(n: int) -> PartitionFunction:
    """The partition function of e_i +- e_last, 1 <= i <= n, for n >= 1."""
    e_last = Weight.basis(n + 1, n)
    return partition_function(
        Weight.basis(n + 1, i) + e_last.scaled(s) for i in range(n) for s in (1, -1)
    )


def count_sigma_prime(n: int, target: Weight) -> int:
    """Partition count for the paired generators e_i +- e_last, 1 <= i <= n,
    on a rank n+1 target, read off the row of the target's head."""
    if type(n) is not int or n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    if target.rank != n + 1:
        raise DomainError(f"target must have rank {n + 1}, got {target.rank}")
    if not target.is_integral:
        return 0
    t2 = target.coords2
    if not n:  # no generators
        return 1 if not any(t2) else 0
    return _sigma_prime(n).row(t2[:n])[t2[n]]
