"""Exact evaluation of Kostant vector partition functions.

``count_vector_partitions`` counts, for a multiset of generator weights, the
ways to write a target as a sum of generators with non-negative integer
multiplicities (duplicate generators count as distinct).  It is a plain
recursion over the generator list memoized on (generator index, residual
target); termination is guaranteed by pruning against an integer linear
functional that is strictly positive on every generator, which exists
exactly when the generators span a pointed cone.

``count_sigma_prime`` is an independent specialized routine for the paired
generator family e_i +- e_last: a balance-tracking dynamic program over the
first n coordinates.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DomainError
from .weights import Weight

#: the CLI overrides it from the SOBRANCH_CACHE_ENTRIES environment variable
DEFAULT_CACHE_ENTRIES = 4_000_000

_PERCEPTRON_ROUNDS = 100_000


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

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

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


@lru_cache(maxsize=None)
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


def _count(gens2, phi, cache, index: int, t2: tuple[int, ...]) -> int:
    if _dot(phi, t2) < 0:
        return 0
    if index == len(gens2):
        return 1 if not any(t2) else 0
    key = (gens2, index, t2)
    hit = cache.get(key)
    if hit is not None:
        return hit
    g = gens2[index]
    total = 0
    cur = t2
    while _dot(phi, cur) >= 0:
        total += _count(gens2, phi, cache, index + 1, cur)
        cur = tuple(a - b for a, b in zip(cur, g))
    cache.put(key, total)
    return total


def count_vector_partitions(
    generators: Iterable[Weight], target: Weight, *, cache: PartitionCache | None = None
) -> int:
    """Number of ways to write ``target`` as a non-negative integer
    combination of ``generators`` (a multiset: duplicates are distinct).

    Targets with non-integral coordinates give 0.  Rank mismatches and
    generator multisets without a finite count (zero generators, cones that
    are not pointed) raise DomainError.
    """
    gens = tuple(generators)
    for g in gens:
        if g.rank != target.rank:
            raise DomainError(
                f"generator rank {g.rank} does not match target rank {target.rank}"
            )
    if not target.is_integral:
        return 0
    if not gens:
        return 1 if not any(target.coords2) else 0
    if any(not any(g.coords2) for g in gens):
        raise DomainError("zero generator admits infinitely many partitions")
    gens2 = tuple(sorted(g.coords2 for g in gens))
    phi = _positive_functional(gens2)
    if cache is None:
        cache = _shared_cache
    return _count(gens2, phi, cache, 0, target.coords2)


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
