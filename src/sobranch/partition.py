"""Exact evaluation of Kostant vector partition functions.

``count_vector_partitions`` counts, for a multiset of generator weights, the
ways to write a target as a sum of generators with non-negative integer
multiplicities (duplicate generators count as distinct).  It is a plain
recursion over the generator list memoized on (generator index, residual
target); termination is guaranteed by pruning against an integer linear
functional phi that is strictly positive on every generator, which exists
exactly when the generators span a pointed cone.

Two zero tests, both read off the generators alone, cut the recursion:

* Negative functional.  A residual with phi . t < 0 has no partition.
* Sign support.  A residual that is negative on a coordinate where every
  generator still to be taken is >= 0 has no partition.  ``support`` lists
  those coordinates for the whole multiset.  Per generator index the list
  grows as the remaining suffix of the sorted generators shrinks; a residual
  negative on one of them counts 0 without a memo entry, and the loop over
  one generator's multiplicity stops as soon as its residual turns negative
  on one of them, since taking more of that generator can only lower the
  coordinate further.

``partition_function`` binds a generator multiset once: it validates the
generators, sorts them, finds phi, the per-generator steps phi . g and the
sign-support coordinates, and names the multiset's memo entries by a small
integer.  The recursion carries phi . target down and subtracts phi . g per
generator taken instead of recomputing the dot product at every node.
``count_vector_partitions`` validates its target and counts with such a
binding, given or looked up.

``count_sigma_prime`` is an independent specialized routine for the paired
generator family e_i +- e_last: a balance-tracking dynamic program over the
first n coordinates.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
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
    """Bounded memo for partition counts.

    Entries are pure (index, residual) -> count facts, so the cache never
    changes results; overflow evicts the whole cache.  A lock guards lookups
    and inserts so the cache may be shared across threads.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        self.max_entries = max(1, int(max_entries))
        self._data: dict = {}
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            return self._data.get(key)

    def put(self, key, value) -> None:
        with self._lock:
            if len(self._data) >= self.max_entries:
                self._data.clear()
            self._data[key] = value

    def set_max_entries(self, max_entries: int) -> None:
        with self._lock:
            self.max_entries = max(1, int(max_entries))
            if len(self._data) > self.max_entries:
                self._data.clear()

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
        "generators do not span a pointed cone; the partition count is not finite"
    )


# Cache-key namespaces: one small integer per bound generator multiset, so a
# memo key hashes an int instead of the whole generator tuple.
_namespaces = itertools.count()


class PartitionFunction:
    """The partition function of one generator multiset, bound once.

    Holds the sorted doubled-integer generators, the positive functional
    ``phi``, the per-generator steps ``phi . g`` and the sign-support
    coordinates, so a count does none of that work again.  Build one with
    ``partition_function``.
    """

    __slots__ = ("gens2", "phi", "steps", "rank", "support", "_stops", "_ns")

    def __init__(self, gens2: tuple[tuple[int, ...], ...]):
        self.gens2 = gens2
        self.phi = _positive_functional(gens2)
        self.steps = tuple(_dot(self.phi, g) for g in gens2)
        self.rank = len(gens2[0])
        # _stops[i]: the coordinates on which every generator from index i on
        # is >= 0; a residual negative on one of them has no partition
        self._stops = tuple(
            tuple(c for c in range(self.rank) if all(g[c] >= 0 for g in gens2[i:]))
            for i in range(len(gens2))
        )
        #: the coordinates on which every generator is >= 0
        self.support = self._stops[0]
        self._ns = next(_namespaces)

    def level(self, t2: Sequence[int]) -> int:
        """The positive functional at a doubled-integer vector; a target
        below level 0 has no partition."""
        return _dot(self.phi, t2)

    def count(self, t2: tuple[int, ...]) -> int:
        """Partition count of the integral doubled-integer target ``t2``."""
        level = _dot(self.phi, t2)
        if level < 0:
            return 0
        return self._count(0, t2, level)

    def _count(self, index: int, t2: tuple[int, ...], level: int) -> int:
        # level is phi . t2 >= 0; it drops by steps[index] per generator taken
        gens2 = self.gens2
        if index == len(gens2):
            return 0 if any(t2) else 1
        key = (self._ns, index, t2)
        hit = _shared_cache.get(key)
        if hit is not None:
            return hit
        # after the memo lookup, so a hit pays for no sign test
        stops = self._stops[index]
        if any(t2[c] < 0 for c in stops):
            return 0
        g = gens2[index]
        step = self.steps[index]
        total = 0
        while True:
            total += self._count(index + 1, t2, level)
            t2 = tuple(a - b for a, b in zip(t2, g))
            level -= step
            if level < 0 or any(t2[c] < 0 for c in stops):
                break
        _shared_cache.put(key, total)
        return total


@lru_cache(maxsize=_BOUND_FUNCTIONS)
def _bind(gens2: tuple[tuple[int, ...], ...]) -> PartitionFunction:
    return PartitionFunction(gens2)


def partition_function(generators: Iterable[Weight]) -> PartitionFunction:
    """The bound partition function of a non-empty generator multiset of one
    rank; zero generators and cones that are not pointed raise DomainError.
    Equal multisets share one binding while it stays in a small LRU."""
    gens = tuple(generators)
    if not gens:
        raise DomainError("an empty generator set has no partition function to bind")
    if any(g.rank != gens[0].rank for g in gens):
        raise DomainError("generators of different ranks")
    if any(not any(g.coords2) for g in gens):
        raise DomainError("zero generator admits infinitely many partitions")
    return _bind(tuple(sorted(g.coords2 for g in gens)))


def count_vector_partitions(
    generators: Iterable[Weight] | PartitionFunction, target: Weight
) -> int:
    """Number of ways to write ``target`` as a non-negative integer
    combination of ``generators`` (a multiset: duplicates are distinct), or
    of the multiset a ``PartitionFunction`` is bound to.

    Targets with non-integral coordinates give 0.  Rank mismatches and
    generator multisets without a finite count (zero generators, cones that
    are not pointed) raise DomainError.
    """
    if isinstance(generators, PartitionFunction):
        ranks = [generators.rank]
    else:
        generators = tuple(generators)
        ranks = [g.rank for g in generators]
    for rank in ranks:
        if rank != target.rank:
            raise DomainError(
                f"generator rank {rank} does not match target rank {target.rank}"
            )
    if not target.is_integral:
        return 0
    if not generators:
        return 1 if not any(target.coords2) else 0
    if not isinstance(generators, PartitionFunction):
        generators = partition_function(generators)
    return generators.count(target.coords2)


def count_sigma_prime(n: int, target: Weight) -> int:
    """Partition count for the paired generators e_i +- e_last, 1 <= i <= n,
    on a rank n+1 target.

    Per coordinate i the split a_i + b_i = t_i is enumerated while the
    running balance sum(a_i - b_i) is tracked; the count is the number of
    balance paths landing on the last coordinate.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if target.rank != n + 1:
        raise DomainError(f"target must have rank {n + 1}, got {target.rank}")
    if not target.is_integral:
        return 0
    t = target.to_ints()
    head, last = t[:n], t[n]
    if any(v < 0 for v in head):
        return 0
    balances: dict[int, int] = {0: 1}
    for v in head:
        nxt: dict[int, int] = defaultdict(int)
        for s, ways in balances.items():
            for d in range(-v, v + 1, 2):
                nxt[s + d] += ways
        balances = dict(nxt)
    return balances.get(last, 0)
