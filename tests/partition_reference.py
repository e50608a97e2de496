"""The scalar vector partition count, kept as the tests' reference.

``PartitionFunction.row`` is the package's one partition evaluator; the
tests check its rows, ``count_vector_partitions`` and the textbook Kostant
sum against this recursion.  It is a plain recursion over the sorted
generator list, memoised per generator multiset on (generator index,
residual target) in a dict of its own, not in the package's shared cache.
Two zero tests prune it, both read off the generators alone:

* Negative functional.  A residual with phi . t < 0 has no partition; phi
  is an integer functional strictly positive on every generator, which
  exists exactly when the generators span a pointed cone.
* Sign support.  A residual negative on a coordinate where every generator
  still to be taken is >= 0 has no partition.

Coordinates are doubled integers, as ``Weight.coords2`` holds them.
"""

from functools import lru_cache


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _positive_functional(gens2):
    """An integer functional strictly positive on every generator, found by
    a perceptron iteration; raises ValueError if there is none within its
    rounds."""
    w = [0] * len(gens2[0])
    for _ in range(100_000):
        bad = next((g for g in gens2 if _dot(w, g) <= 0), None)
        if bad is None:
            return tuple(w)
        w = [wi + gi for wi, gi in zip(w, bad)]
    raise ValueError("the generators do not span a pointed cone")


class ScalarPartitionFunction:
    """The scalar partition count of one multiset of doubled-integer
    generators."""

    def __init__(self, gens2):
        self.gens2 = tuple(sorted(gens2))
        self.phi = _positive_functional(self.gens2)
        self.steps = tuple(_dot(self.phi, g) for g in self.gens2)
        rank = len(self.gens2[0])
        # stops[i]: the coordinates on which every generator from index i on
        # is >= 0
        self.stops = tuple(
            tuple(c for c in range(rank) if all(g[c] >= 0 for g in self.gens2[i:]))
            for i in range(len(self.gens2))
        )
        #: the coordinates on which every generator is >= 0
        self.support = self.stops[0]
        self._memo = {}

    def count(self, t2):
        """Partition count of the integral doubled-integer target ``t2``."""
        level = _dot(self.phi, t2)
        return self._count(0, tuple(t2), level) if level >= 0 else 0

    def _count(self, index, t2, level):
        # level is phi . t2 >= 0; it drops by steps[index] per generator taken
        if index == len(self.gens2):
            return 0 if any(t2) else 1
        key = (index, t2)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        stops = self.stops[index]
        total = 0
        if not any(t2[c] < 0 for c in stops):
            g, step = self.gens2[index], self.steps[index]
            while True:
                total += self._count(index + 1, t2, level)
                t2 = tuple(a - b for a, b in zip(t2, g))
                level -= step
                if level < 0 or any(t2[c] < 0 for c in stops):
                    break
        self._memo[key] = total
        return total


@lru_cache(maxsize=8)
def scalar_partition_function(generators):
    """The reference count of a tuple of ``Weight`` generators, bound once
    per multiset while it stays in a small LRU."""
    return ScalarPartitionFunction(g.coords2 for g in generators)
