"""The tests' algebra on the package's types, kept out of the package
because no route and no command reads it: characters as signed maps on the
weight lattice, with the Weyl group's action on them and their product, the
alternating orbit sum ``xi`` and whole weight systems; the triple
interlacing pattern that every route's zeros obey; the group law of
signed permutations; the ring operations of Laurent series with the
quantum bracket; the accessors only the tests read (the algebras of a
root system, dimensions of SO(3) multisets and U(3) weights, shifts); and
the paper's SU(2) tensor lemma of Wallach-Yacobi, a difference of two
partition counts over the paired generators e_i +- e_last (sigma'), which
criteria 4-6 reproduce.  sigma' is counted off the package's partition
rows, so those criteria check the Kostant routes' evaluator too.

The Laurent operations return the package's own ``LaurentPoly``, since
container equality needs the same type and the tests compare these with the
routes' series.  Coordinates are doubled integers, as ``Weight.coords2``
holds them.
"""

from functools import lru_cache

from sobranch.errors import DomainError, InternalInconsistencyError
from sobranch.oracle import _char_items, weyl_dim
from sobranch.partition import partition_function
from sobranch.tsukamoto import LaurentPoly
from sobranch.u3_so3 import U3Weight
from sobranch.weights import (
    FAMILY_B,
    IntMap,
    SignedPermutation,
    Weight,
    algebra_positive_roots,
    check_pair,
    check_rank,
    k_family,
    weyl_elements,
)


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
    lam: the oracle's dominant multiplicities spread over the whole system.
    ``weyl_dim`` checks the algebra and lam first."""
    weyl_dim(algebra, lam)
    return CharacterMap(_char_items(*algebra, lam.coords2))


def xi(algebra, eta):
    """The alternating Weyl-orbit sum of e^eta as a signed map."""
    family, rank = algebra
    algebra_positive_roots(family, rank)  # refuses an algebra with no root system here
    check_rank("eta", eta, rank)
    return CharacterMap((w.apply2(eta.coords2), w.sign) for w in weyl_elements(family, rank))


def interlace_triple(family, lam, mu):
    """The non-vanishing pattern, three steps wide, that the sweeps check
    every route's zeros against: family B requires lam_i >= mu_i >=
    lam_{i+3} for i <= n-1 (missing coordinates read as 0) together with
    lam_n >= |mu_n|; family D requires lam_i >= mu_i >= lam_{i+3} for
    i <= n-2, lam_{n-1} >= mu_{n-1} >= |lam_{n+2}| when n >= 2, and
    lam_n >= mu_n.

    n is the rank of mu, and a pair that fails ``check_pair`` raises
    DomainError.
    """
    n = mu.rank
    check_pair(family, n, lam, mu)
    l2 = lam.coords2
    m2 = mu.coords2
    if family == FAMILY_B:
        for a, m, b in zip(l2, m2[:-1], l2[3:] + (0, 0)):
            if not a >= m >= b:
                return False
        return l2[n - 1] >= abs(m2[n - 1])
    for a, m, b in zip(l2, m2[:-2], l2[3:]):
        if not a >= m >= b:
            return False
    middle = n < 2 or l2[n - 2] >= m2[n - 2] >= abs(l2[n + 1])
    return middle and l2[n - 1] >= m2[n - 1]


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


def shift_last(w, delta2):
    """w with ``delta2``/2 added to its last coordinate."""
    return Weight(w.coords2[:-1] + (w.coords2[-1] + delta2,))


def g_algebra(rd):
    """(type, rank) of the ambient G's algebra for the root data rd."""
    return (rd.family, rd.g_rank)


def k_algebra(rd):
    """(type, rank) of the subgroup K's algebra for the root data rd."""
    return (k_family(rd.family), rd.n)


def so3_dimension(ms):
    """The dimension of an SO(3) multiset: sum of m (2k + 1)."""
    return sum(m * (2 * k + 1) for k, m in ms.items())


def u3_shifted(lam_prime, s):
    """The U(3) weight with s added to each coordinate."""
    return U3Weight(lam_prime.a1 + s, lam_prime.a2 + s, lam_prime.a3 + s)


def u3_dimension(lam_prime):
    """Weyl's dimension of the U(3) irreducible of highest weight lam_prime."""
    p, q = lam_prime.a1 - lam_prime.a3, lam_prime.a2 - lam_prime.a3
    return (p - q + 1) * (q + 1) * (p + 2) // 2


@lru_cache(maxsize=8)
def _sigma_prime(n):
    """The partition function of e_i +- e_last, 1 <= i <= n, for n >= 1."""
    e_last = Weight.basis(n + 1, n)
    return partition_function(
        Weight.basis(n + 1, i) + e_last.scaled(s) for i in range(n) for s in (1, -1)
    )


def count_sigma_prime(n, target):
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


def su2_tensor_multiplicity(r, k):
    """Multiplicity of the (k+1)-dimensional SU(2) irreducible inside the
    tensor product of the (r_i+1)-dimensional ones, as a difference of two
    paired-generator partition counts."""
    labels = list(r)
    if not labels:
        raise DomainError("factor list must be non-empty")
    if any(type(x) is not int or x < 0 for x in [*labels, k]):
        raise DomainError("labels must be non-negative integers")
    n = len(labels) - 1
    low = Weight.of_ints(labels[:n] + [labels[n] - k])
    high = Weight.of_ints(labels[:n] + [labels[n] + k + 2])
    value = count_sigma_prime(n, low) - count_sigma_prime(n, high)
    if value < 0:
        raise InternalInconsistencyError(
            f"negative tensor multiplicity for r={labels}, k={k}"
        )
    return value
