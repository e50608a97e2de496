"""The tests' algebra on the package's types, kept out of the package
because no route and no command reads it: characters as signed maps on the
weight lattice, with the Weyl group's action on them and their product, the
alternating orbit sum ``xi`` and whole weight systems; the group law of
signed permutations; and the ring operations of Laurent series with the
quantum bracket.

The Laurent operations return the package's own ``LaurentPoly``, since
container equality needs the same type and the tests compare these with the
routes' series.  Coordinates are doubled integers, as ``Weight.coords2``
holds them.
"""

from sobranch.errors import DomainError
from sobranch.oracle import _char_items, _check_algebra, _require_dominant_integral
from sobranch.tsukamoto import LaurentPoly
from sobranch.weights import IntMap, SignedPermutation, Weight, weyl_elements


class CharacterMap(IntMap):
    """Sparse integer-valued map on the weight lattice keyed by doubled
    coordinates (signed values are allowed, so alternating orbit sums fit
    too)."""

    __slots__ = ()

    def get(self, w):
        return self._data.get(w.coords2, 0)

    def items(self):
        return [(Weight(k), v) for k, v in sorted(self._data.items())]

    def transformed(self, omega):
        return CharacterMap({omega.apply2(k): v for k, v in self._data.items()})

    def __mul__(self, other):
        return CharacterMap([(tuple(a + b for a, b in zip(k1, k2)), v1 * v2)
                             for k1, v1 in self._data.items() for k2, v2 in other._data.items()])


def weight_multiplicities(algebra, lam):
    """Exact weight multiplicities of the irreducible with highest weight
    lam: the oracle's dominant multiplicities spread over the whole system."""
    family, rank = _require_dominant_integral(algebra, lam)
    return CharacterMap(_char_items(family, rank, lam.coords2))


def xi(algebra, eta):
    """The alternating Weyl-orbit sum of e^eta as a signed map."""
    family, rank = _check_algebra(algebra)
    if eta.rank != rank:
        raise DomainError(f"weight rank {eta.rank} does not match algebra rank {rank}")
    return CharacterMap((w.apply2(eta.coords2), w.sign) for w in weyl_elements(family, rank))


def identity(rank):
    return SignedPermutation(tuple(range(rank)), frozenset())


def reflection(rank, index):
    """Sign change of the single coordinate ``index`` (0-based)."""
    return SignedPermutation(tuple(range(rank)), frozenset((index,)))


def transposition(rank, i, j):
    p = list(range(rank))
    p[i], p[j] = p[j], p[i]
    return SignedPermutation(tuple(p), frozenset())


def apply(omega, w):
    if w.rank != omega.rank:
        raise DomainError(f"rank mismatch: element has rank {omega.rank}, weight {w.rank}")
    return Weight(omega.apply2(w.coords2))


def compose(a, b):
    """a after b: ``apply(compose(a, b), v) == apply(a, apply(b, v))``."""
    if a.rank != b.rank:
        raise DomainError("rank mismatch in composition")
    perm = tuple(a.perm[b.perm[i]] for i in range(a.rank))
    flips = a.flips.symmetric_difference(a.perm[j] for j in b.flips)
    return SignedPermutation(perm, frozenset(flips))


def poly_add(*ps):
    """The sum of Laurent series."""
    return LaurentPoly([item for p in ps for item in p.items()])


def poly_sub(p, q):
    return poly_add(p, LaurentPoly({e2: -c for e2, c in q.items()}))


def poly_mul(p, q):
    return LaurentPoly([(e2 + f2, c * d) for e2, c in p.items() for f2, d in q.items()])


def quantum_bracket(l):
    """[l] = (x^l - x^-l)/(x - x^-1) = x^(l-1) + x^(l-3) + ... + x^-(l-1),
    for integer l >= 1; l terms, all coefficients one."""
    if type(l) is not int or l < 1:
        raise DomainError(f"quantum_bracket needs an integer l >= 1, got {l!r}")
    return LaurentPoly({e2: 1 for e2 in range(-2 * (l - 1), 2 * (l - 1) + 1, 4)})
