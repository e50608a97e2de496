"""Root data and signed-permutation Weyl groups for the orthogonal pairs
SO(2n+3) > SO(2n) x SO(3) (family B) and SO(2n+4) > SO(2n+1) x SO(3)
(family D).

Everything lives in the standard epsilon-basis of the relevant Cartan dual.
Coordinates are stored as doubled integers so half-integral data (Weyl
vectors of odd orthogonal algebras, half-integer exponents) stays exact;
no floating point is used anywhere.

Rank conventions used throughout the package, for parameter n:

==========  ===============  ===============  ==================
family      ambient G        subgroup K       restricted torus
==========  ===============  ===============  ==================
B (n >= 2)  SO(2n+3), B_n+1  SO(2n),   D_n    rank n+1 (identity)
D (n >= 1)  SO(2n+4), D_n+2  SO(2n+1), B_n    rank n+1 (drops one slot)
==========  ===============  ===============  ==================

In restricted (rank n+1) coordinates the last slot always carries the
SO(3) torus coordinate.

``check_pair`` is the package's one definition of a valid branching pair
(family, n, lam, mu); every entry point that takes a pair calls it, either
directly, or through ``interlace`` (the closed forms, whose "simple" case is
their precondition), or through ``BranchingQuery``, the one query type every
route answers (its ``with_k`` checks only k).  No route reads the "triple"
case: it is the vanishing pattern the tests check the routes against.
``IntMap`` is the one map to non-zero integers that every route's container
(Laurent series, SO(3) multisets, branching tables) subclasses.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from operator import ge
from typing import Iterable, Iterator

from .errors import DomainError

FAMILY_B = "B"
FAMILY_D = "D"
_FAMILIES = (FAMILY_B, FAMILY_D)
#: the one type a doubled coordinate may have: not float, not bool
_PLAIN_INT = frozenset({int})
#: looked up once for ``BranchingQuery.with_k``, which runs at every verify grid point
_tuple_new = tuple.__new__

#: smallest parameter n admitted by each family
FAMILY_MIN_N = {FAMILY_B: 2, FAMILY_D: 1}


def check_family(family: str) -> None:
    if family not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}; expected 'B' or 'D'")


def check_family_n(family: str, n: int) -> None:
    check_family(family)
    if type(n) is not int:
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < FAMILY_MIN_N[family]:
        raise DomainError(
            f"family {family} requires n >= {FAMILY_MIN_N[family]}, got n={n}"
        )


class Weight(namedtuple("Weight", "coords2")):
    """A vector of exact half-integer coordinates in the epsilon-basis.

    ``coords2[i]`` holds twice the i-th coordinate.  Weights compare
    lexicographically, first coordinate most significant.  A validated
    named tuple like ``BranchingQuery``: it also equals ``(coords2,)`` and
    has length 1, so the rank is ``rank``, never ``len``.
    """

    __slots__ = ()

    def __new__(cls, coords2: Iterable[int]) -> "Weight":
        coords2 = tuple(coords2)
        if not _PLAIN_INT.issuperset(map(type, coords2)):
            raise DomainError("doubled coordinates must be plain integers")
        return tuple.__new__(cls, (coords2,))

    @classmethod
    def _make(cls, fields: Iterable) -> "Weight":
        return cls(*fields)

    @classmethod
    def of_ints(cls, coords: Iterable[int]) -> "Weight":
        """Weight with the given integer coordinates, each a plain int."""
        coords = tuple(coords)
        if not _PLAIN_INT.issuperset(map(type, coords)):
            raise DomainError("coordinates must be plain integers")
        return tuple.__new__(cls, (tuple([2 * c for c in coords]),))

    @classmethod
    def basis(cls, rank: int, index: int) -> "Weight":
        """The basis vector epsilon_{index+1} (0-based index)."""
        if not 0 <= index < rank:
            raise DomainError(f"basis index {index} out of range for rank {rank}")
        c = [0] * rank
        c[index] = 2
        return cls(tuple(c))

    @property
    def rank(self) -> int:
        return len(self.coords2)

    @property
    def is_integral(self) -> bool:
        return not [c for c in self.coords2 if c % 2]

    def to_ints(self) -> tuple[int, ...]:
        if not self.is_integral:
            raise DomainError(f"{self} has non-integral coordinates")
        return tuple([c // 2 for c in self.coords2])

    def _require_same_rank(self, other: "Weight") -> None:
        if self.rank != other.rank:
            raise DomainError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "Weight") -> "Weight":
        self._require_same_rank(other)
        return Weight(tuple(a + b for a, b in zip(self.coords2, other.coords2)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._require_same_rank(other)
        return Weight(tuple(a - b for a, b in zip(self.coords2, other.coords2)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords2))

    def scaled(self, m: int) -> "Weight":
        return Weight(tuple(m * a for a in self.coords2))

    def shift_last(self, delta2: int) -> "Weight":
        """Add ``delta2``/2 to the last coordinate."""
        return Weight(self.coords2[:-1] + (self.coords2[-1] + delta2,))

    def __repr__(self) -> str:
        parts = []
        for c in self.coords2:
            parts.append(str(c // 2) if c % 2 == 0 else f"{c}/2")
        return "(" + ", ".join(parts) + ")"


class IntMap:
    """Immutable finite map to non-zero plain integers, the one container
    behind every route's sums and tables.

    Built from a dict or from (key, value) pairs: every value must be a
    plain int and a subclass's ``_check(key, value)`` runs on every pair
    given, then values are summed per key and zero sums dropped.
    ``items()`` is sorted by key, the length counts the keys (so an empty
    map is falsy), and two maps are equal only if they have the same type
    and items.  The repr joins ``_item(key, value)`` of each item with
    ``_sep`` inside ``_brackets``, or is ``_empty``.  Copies and pickles are
    rebuilt through ``__init__``, so they pass the same checks.
    """

    __slots__ = ("_data",)
    _check = None
    _item = "{}: {}".format
    _sep, _brackets, _empty = ", ", "{{{}}}", "{}"

    def __init__(self, data=None) -> None:
        out: dict = {}
        check = self._check
        for key, value in data.items() if isinstance(data, dict) else (data or ()):
            if type(value) is not int:
                raise DomainError(f"{type(self).__name__} value {value!r} must be a plain integer")
            if check is not None:
                check(key, value)
            if value:
                total = out.get(key, 0) + value
                if total:
                    out[key] = total
                else:
                    del out[key]
        self._data = out

    def get(self, key) -> int:
        return self._data.get(key, 0)

    def items(self) -> list:
        return sorted(self._data.items())

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:
        if not self._data:
            return self._empty
        return self._brackets.format(self._sep.join([self._item(k, v) for k, v in self.items()]))

    def __reduce__(self):
        return type(self), (self._data,)


#: inversion parities kept: 8! = 40,320, every permutation of one rank-8
#: group (family D, n = 6), so a walk of it with a ``sign`` per element (the
#: tests' alternating orbit sums) keeps its own entries.
#: ``kostant._pair_terms`` reads one per full permutation it builds: 36 on
#: verify B n=3 max=1 ``all``, none without kostant-full
_PARITIES = 40_320


@lru_cache(maxsize=_PARITIES)
def _inversion_parity(perm: tuple[int, ...]) -> int:
    """(-1) ** (number of inversions of perm), memoised: a rank-r Weyl
    group repeats each of its r! permutations over all its sign patterns."""
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


class SignedPermutation(namedtuple("SignedPermutation", "perm flips")):
    """A Weyl group element: permute the coordinates, then negate the
    coordinates listed in ``flips``.

    ``perm[i]`` is the image slot of basis vector i, so the j-th coordinate
    of the image of w is +/- the perm^{-1}(j)-th coordinate of w.
    """

    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...], flips: frozenset[int]) -> "SignedPermutation":
        if sorted(perm) != list(range(len(perm))):
            raise DomainError(f"{perm} is not a permutation of 0..{len(perm)-1}")
        if not all(0 <= f < len(perm) for f in flips):
            raise DomainError("flip index out of range")
        return tuple.__new__(cls, (perm, flips))

    @classmethod
    def _make(cls, fields: Iterable) -> "SignedPermutation":
        return cls(*fields)

    @property
    def rank(self) -> int:
        return len(self.perm)

    @property
    def sign(self) -> int:
        """Determinant of the signed permutation matrix."""
        parity = _inversion_parity(self.perm)
        return -parity if len(self.flips) % 2 else parity

    def apply2(self, t2: tuple[int, ...]) -> tuple[int, ...]:
        """The action on a doubled-integer coordinate tuple of this rank."""
        out = [0] * len(t2)
        for i, c in enumerate(t2):
            j = self.perm[i]
            out[j] = -c if j in self.flips else c
        return tuple(out)


#: sign pattern lists kept, one per (family, rank); every Kostant pair
#: binding reads its rank's
_SIGN_PATTERNS = 16


@lru_cache(maxsize=_SIGN_PATTERNS)
def sign_patterns(family: str, rank: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """((-1) ** flips, flipped slots) for each sign pattern of the Weyl group
    once, the one definition of W = permutations x sign patterns: all subsets
    of the slots (family B) or the even-size ones (family D; rank 1 has the
    identity only), in ``itertools.product`` order over the slots
    ``restrict`` keeps, unflipped first and first slot most significant.
    Family D flips its dropped slot rank - 2 exactly when that makes the
    count even.  The result is memoised and shared by every caller, so it
    is a tuple, and each pattern's slots a sorted tuple."""
    check_family(family)
    if rank < 1:
        raise DomainError("rank must be positive")
    if family == FAMILY_D and rank == 1:
        return ((1, ()),)
    kept = [j for j in range(rank) if family == FAMILY_B or j != rank - 2]
    patterns = []
    for choice in itertools.product((False, True), repeat=len(kept)):
        flips = {j for j, flipped in zip(kept, choice) if flipped}
        if family == FAMILY_D and len(flips) % 2:
            flips.add(rank - 2)
        patterns.append((-1 if len(flips) % 2 else 1, tuple(sorted(flips))))
    return tuple(patterns)


#: whole Weyl groups kept; no route builds one, only the tests and the
#: benchmark's set-up (one group per (family, n), two at most)
_WEYL_GROUPS = 2


@lru_cache(maxsize=_WEYL_GROUPS)
def weyl_elements(family: str, rank: int) -> tuple[SignedPermutation, ...]:
    """Every element of the Weyl group once, as a cached tuple."""
    flip_sets = [frozenset(flips) for _, flips in sign_patterns(family, rank)]
    return tuple(SignedPermutation(p, f) for p in itertools.permutations(range(rank)) for f in flip_sets)


def is_dominant(family: str, w: Weight) -> bool:
    """Dominance for the algebra type: B_r needs a weakly decreasing
    non-negative chain, D_r allows a negative last coordinate bounded by the
    one before it."""
    check_family(family)
    c = w.coords2
    if not c:
        raise DomainError("rank must be positive")
    chain = c + (0,) if family == FAMILY_B else c[:-1] + (abs(c[-1]),)
    return all(map(ge, chain, chain[1:]))


def iter_dominant_weights(family: str, rank: int, max_first: int) -> Iterator[Weight]:
    """All dominant integral weights whose first coordinate is at most
    ``max_first``: those with a non-negative last coordinate in decreasing
    lexicographic order, under family D each positive one followed by its
    sign twin, so (1, -1) comes before (1, 0).  The verify grid walks this
    order."""
    check_family(family)
    if type(rank) is not int or type(max_first) is not int:
        raise DomainError(f"rank and max_first must be integers, got {rank!r}, {max_first!r}")
    if rank < 1:
        raise DomainError("rank must be positive")

    # non-increasing tuples of max_first..0, in decreasing lexicographic order
    for tup in itertools.combinations_with_replacement(range(max_first, -1, -1), rank):
        yield Weight.of_ints(tup)
        if family == FAMILY_D and tup[-1] > 0:
            yield Weight.of_ints(tup[:-1] + (-tup[-1],))


def g_rank(family: str, n: int) -> int:
    check_family_n(family, n)
    return n + 1 if family == FAMILY_B else n + 2


def k_family(family: str) -> str:
    """The type of the subgroup K's algebra: K is SO(2n) (type D) under
    family B and SO(2n+1) (type B) under family D."""
    return FAMILY_D if family == FAMILY_B else FAMILY_B


def check_rank(name: str, w: Weight, rank: int) -> None:
    """Raise DomainError unless the weight called ``name`` has this rank."""
    if w.rank != rank:
        raise DomainError(f"{name} must have rank {rank}, got {w.rank}")


#: valid pairs remembered by ``check_pair``; a verify sweep checks a pair
#: inside the routes and at each method's bind, never per k
_CHECKED_PAIRS = 64


@lru_cache(maxsize=_CHECKED_PAIRS, typed=True)
def check_pair(family: str, n: int, lam: Weight, mu: Weight) -> None:
    """The one test of a branching pair: family B or D with n at least the
    family's minimum, lam an integral dominant weight of the ambient G
    (rank ``g_rank``) and mu one of the subgroup K (rank n).  Raises
    DomainError naming the first condition that fails.

    Memoised on its arguments (types included) for the last
    ``_CHECKED_PAIRS`` valid pairs; an error is never memoised, so an
    invalid pair raises on every call."""
    lam_rank = g_rank(family, n)
    check_rank("mu", mu, n)
    check_rank("lam", lam, lam_rank)
    if not lam.is_integral or not mu.is_integral:
        raise DomainError("highest weights must have integral coordinates")
    if not is_dominant(family, lam):
        raise DomainError(f"lam={lam} is not dominant (family {family})")
    if not is_dominant(k_family(family), mu):
        raise DomainError(f"mu={mu} is not dominant (family {family})")


def interlace(kind: str, family: str, lam: Weight, mu: Weight) -> bool:
    """Interlacing predicates between ambient and subgroup highest weights.

    kind='simple': family B requires lam_i >= |mu_i| >= lam_{i+1}; family D
    requires lam_i >= mu_i >= lam_{i+1}, for 1 <= i <= n.

    kind='triple' is the non-vanishing pattern, three steps wide: family B
    requires lam_i >= mu_i >= lam_{i+3} for i <= n-1 (missing coordinates
    read as 0) together with lam_n >= |mu_n|; family D requires
    lam_i >= mu_i >= lam_{i+3} for i <= n-2, lam_{n-1} >= mu_{n-1} >=
    |lam_{n+2}| when n >= 2, and lam_n >= mu_n.

    n is the rank of mu, and a pair that fails ``check_pair`` raises
    DomainError.
    """
    if kind not in ("simple", "triple"):
        raise DomainError(f"unknown interlacing kind {kind!r}")
    n = mu.rank
    check_pair(family, n, lam, mu)
    l2 = lam.coords2
    m2 = mu.coords2
    if kind == "simple":
        for a, m, b in zip(l2, map(abs, m2) if family == FAMILY_B else m2, l2[1:]):
            if not a >= m >= b:
                return False
        return True
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


def tilde(family: str, w: Weight) -> Weight:
    """Negate the last coordinate.  Under family B this maps a subgroup
    highest weight to its outer twist; under family D it twists the ambient
    highest weight.  Branching multiplicities are invariant under it."""
    check_family(family)
    return Weight(w.coords2[:-1] + (-w.coords2[-1],))


def _check_k(k: int) -> None:
    """The test of k that every BranchingQuery runs."""
    if type(k) is not int:
        raise DomainError(f"k must be an integer, got {k!r}")
    if k < 0:
        raise DomainError("k must be non-negative")


class BranchingQuery(namedtuple("BranchingQuery", "family n lam mu k")):
    """One branching question: how often does the subgroup irreducible with
    highest weight ``mu`` tensored with the (2k+1)-dimensional SO(3)
    representation occur in the ambient irreducible with highest weight
    ``lam``.

    An immutable named tuple of those fields, validated in one step: every
    way to make one from its fields (the constructor, ``_make``,
    ``_replace``, copy and pickle) runs ``check_pair`` and the test of k;
    ``with_k`` makes the pair's query at another k and tests only k."""

    __slots__ = ()

    def __new__(cls, family: str, n: int, lam: Weight, mu: Weight, k: int) -> "BranchingQuery":
        check_pair(family, n, lam, mu)
        _check_k(k)
        return tuple.__new__(cls, (family, n, lam, mu, k))

    def with_k(self, k: int) -> "BranchingQuery":
        """This query's pair at k, equal to ``BranchingQuery(family, n, lam, mu, k)``."""
        _check_k(k)
        family, n, lam, mu, _ = self
        return _tuple_new(type(self), (family, n, lam, mu, k))

    @classmethod
    def _make(cls, fields: Iterable) -> "BranchingQuery":
        return cls(*fields)


def normalize_pair(family: str, lam: Weight, mu: Weight) -> tuple[Weight, Weight]:
    """Tilde-normalize a pair: the last coordinate of mu (family B) or of lam
    (family D) made non-negative.  Multiplicities are invariant under this;
    a pair already normal comes back as the same objects."""
    if family == FAMILY_B and mu.coords2[-1] < 0:
        return lam, tilde(FAMILY_B, mu)
    if family == FAMILY_D and lam.coords2[-1] < 0:
        return tilde(FAMILY_D, lam), mu
    return lam, mu


def restrict(family: str, w: Weight) -> Weight:
    """Restrict from the ambient torus to the subgroup-times-SO(3) torus:
    the identity under family B, removal of the next-to-last coordinate
    under family D."""
    check_family(family)
    if family == FAMILY_B:
        return w
    if w.rank < 2:
        raise DomainError("family D restriction needs rank >= 2")
    return Weight(w.coords2[:-2] + w.coords2[-1:])


#: root systems kept for ``algebra_positive_roots`` and ``algebra_rho``, one
#: per (family, rank); the oracle reads them once per algebra for its root
#: data, and ``make_root_data`` reads rho
_ALGEBRAS = 16


@lru_cache(maxsize=_ALGEBRAS)
def algebra_positive_roots(family: str, rank: int) -> tuple[Weight, ...]:
    """Positive roots of B_rank (e_i +- e_j, i<j, and all e_i) or of D_rank
    (e_i +- e_j only), in the lexicographic positive system."""
    check_family(family)
    if rank < 1 or (family == FAMILY_D and rank < 2):
        raise DomainError(f"no {family}_{rank} root system here")
    roots = []
    for i in range(rank):
        for j in range(i + 1, rank):
            roots.append(Weight.basis(rank, i) - Weight.basis(rank, j))
            roots.append(Weight.basis(rank, i) + Weight.basis(rank, j))
    if family == FAMILY_B:
        for i in range(rank):
            roots.append(Weight.basis(rank, i))
    return tuple(roots)


@lru_cache(maxsize=_ALGEBRAS)
def algebra_rho(family: str, rank: int) -> Weight:
    """Half the sum of the positive roots: coordinates rank-i+1/2 (type B)
    or rank-i (type D) at position i."""
    check_family(family)
    if family == FAMILY_B:
        return Weight(tuple(2 * (rank - i) + 1 for i in range(1, rank + 1)))
    return Weight(tuple(2 * (rank - i) for i in range(1, rank + 1)))


class RootData(namedtuple("RootData", "family n rho_g sigma")):
    """All root-theoretic data needed by the branching algorithms for one
    family and one parameter n.

    The multiset ``sigma`` (restricted ambient positive roots minus the
    subgroup's) lives in the restricted rank n+1 coordinates whose last slot
    is the SO(3) direction.
    """

    __slots__ = ()

    @property
    def g_rank(self) -> int:
        return self.rho_g.rank

    @property
    def g_algebra(self) -> tuple[str, int]:
        return (self.family, self.g_rank)

    @property
    def k_algebra(self) -> tuple[str, int]:
        return (k_family(self.family), self.n)


#: root data kept, one per (family, n)
_ROOT_DATA = 16


@lru_cache(maxsize=_ROOT_DATA)
def make_root_data(family: str, n: int) -> RootData:
    """Build the root data for one family and parameter n (family B needs
    n >= 2, family D needs n >= 1)."""
    check_family_n(family, n)
    e = lambda i: Weight.basis(n + 1, i)  # e(n) is the SO(3) slot
    sigma = tuple(e(i) + e(n).scaled(s) for i in range(n) for s in (1, -1))
    sigma += tuple(e(i) for i in range(n))
    if family == FAMILY_D:
        sigma += (-e(n),)
    return RootData(family=family, n=n, rho_g=algebra_rho(family, g_rank(family, n)), sigma=sigma)
