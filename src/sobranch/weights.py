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
(family, n, lam, mu); every entry point that takes a pair calls it, directly
or through ``interlace`` or ``BranchingQuery``, the one query type every
route answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DomainError

FAMILY_B = "B"
FAMILY_D = "D"
_FAMILIES = (FAMILY_B, FAMILY_D)

#: smallest parameter n admitted by each family
FAMILY_MIN_N = {FAMILY_B: 2, FAMILY_D: 1}


def check_family(family: str) -> None:
    if family not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}; expected 'B' or 'D'")


def check_family_n(family: str, n: int) -> None:
    check_family(family)
    if n < FAMILY_MIN_N[family]:
        raise DomainError(
            f"family {family} requires n >= {FAMILY_MIN_N[family]}, got n={n}"
        )


@dataclass(frozen=True, slots=True, order=True)
class Weight:
    """A vector of exact half-integer coordinates in the epsilon-basis.

    ``coords2[i]`` holds twice the i-th coordinate.  Weights compare
    lexicographically, first coordinate most significant.  The hash is
    taken once, at construction: a sweep looks the same weights up in its
    memos at every grid point.
    """

    coords2: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.coords2, tuple):
            object.__setattr__(self, "coords2", tuple(self.coords2))
        for c in self.coords2:
            if not isinstance(c, int):
                raise DomainError("doubled coordinates must be plain integers")
        object.__setattr__(self, "_hash", hash(self.coords2))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of_ints(cls, coords: Iterable[int]) -> "Weight":
        """Weight with the given integer coordinates."""
        return cls(tuple(2 * int(c) for c in coords))

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
        return all(c % 2 == 0 for c in self.coords2)

    def to_ints(self) -> tuple[int, ...]:
        if not self.is_integral:
            raise DomainError(f"{self} has non-integral coordinates")
        return tuple(c // 2 for c in self.coords2)

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

    def with_last_negated(self) -> "Weight":
        return Weight(self.coords2[:-1] + (-self.coords2[-1],))

    def drop_index(self, index: int) -> "Weight":
        return Weight(self.coords2[:index] + self.coords2[index + 1 :])

    def __repr__(self) -> str:
        parts = []
        for c in self.coords2:
            parts.append(str(c // 2) if c % 2 == 0 else f"{c}/2")
        return "(" + ", ".join(parts) + ")"


#: inversion parities kept: 8! = 40,320, every permutation of one rank-8
#: group (family D, n = 6), so that an orbit build of that rank does not
#: evict its own entries
_PARITIES = 40_320


@lru_cache(maxsize=_PARITIES)
def _inversion_parity(perm: tuple[int, ...]) -> int:
    """(-1) ** (number of inversions of perm), memoised: a rank-r Weyl
    group repeats each of its r! permutations over all its sign patterns."""
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


@dataclass(frozen=True, slots=True)
class SignedPermutation:
    """A Weyl group element: permute the coordinates, then negate the
    coordinates listed in ``flips``.

    ``perm[i]`` is the image slot of basis vector i, so the j-th coordinate
    of the image of w is +/- the perm^{-1}(j)-th coordinate of w.
    """

    perm: tuple[int, ...]
    flips: frozenset[int]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise DomainError(f"{self.perm} is not a permutation of 0..{len(self.perm)-1}")
        if not all(0 <= f < len(self.perm) for f in self.flips):
            raise DomainError("flip index out of range")

    @classmethod
    def identity(cls, rank: int) -> "SignedPermutation":
        return cls(tuple(range(rank)), frozenset())

    @classmethod
    def reflection(cls, rank: int, index: int) -> "SignedPermutation":
        """Sign change of the single coordinate ``index`` (0-based)."""
        return cls(tuple(range(rank)), frozenset((index,)))

    @classmethod
    def transposition(cls, rank: int, i: int, j: int) -> "SignedPermutation":
        p = list(range(rank))
        p[i], p[j] = p[j], p[i]
        return cls(tuple(p), frozenset())

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

    def apply(self, w: Weight) -> Weight:
        if w.rank != self.rank:
            raise DomainError(f"rank mismatch: element has rank {self.rank}, weight {w.rank}")
        return Weight(self.apply2(w.coords2))

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other, i.e. (self.compose(other)).apply == self.apply(other.apply(.))."""
        if other.rank != self.rank:
            raise DomainError("rank mismatch in composition")
        perm = tuple(self.perm[other.perm[i]] for i in range(self.rank))
        flips = self.flips.symmetric_difference(self.perm[j] for j in other.flips)
        return SignedPermutation(perm, frozenset(flips))


def sign_patterns(family: str, rank: int) -> list[tuple[int, tuple[int, ...]]]:
    """((-1) ** flips, flipped slots) for each sign pattern of the Weyl group
    once, the one definition of W = permutations x sign patterns: all subsets
    of the slots (family B) or the even-size ones (family D; rank 1 has the
    identity only), in ``itertools.product`` order over the slots
    ``restrict`` keeps, unflipped first and first slot most significant.
    Family D flips its dropped slot rank - 2 exactly when that makes the
    count even.  Slots are a sorted tuple, not a frozenset: the cycle
    collector skips tuples of ints, which halves a Kostant orbit's build."""
    check_family(family)
    if rank < 1:
        raise DomainError("rank must be positive")
    if family == FAMILY_D and rank == 1:
        return [(1, ())]
    kept = [j for j in range(rank) if family == FAMILY_B or j != rank - 2]
    patterns = []
    for choice in itertools.product((False, True), repeat=len(kept)):
        flips = {j for j, flipped in zip(kept, choice) if flipped}
        if family == FAMILY_D and len(flips) % 2:
            flips.add(rank - 2)
        patterns.append((-1 if len(flips) % 2 else 1, tuple(sorted(flips))))
    return patterns


#: whole Weyl groups kept; only ``oracle.xi`` and the tests walk them
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
    if family == FAMILY_B:
        return all(c[i] >= c[i + 1] for i in range(len(c) - 1)) and c[-1] >= 0
    if len(c) == 1:
        return True
    head = all(c[i] >= c[i + 1] for i in range(len(c) - 2))
    return head and c[-2] >= abs(c[-1])


def iter_dominant_weights(family: str, rank: int, max_first: int) -> Iterator[Weight]:
    """All dominant integral weights whose first coordinate is at most
    ``max_first``, in decreasing lexicographic order."""
    check_family(family)
    if rank < 1:
        raise DomainError("rank must be positive")

    def rec(length: int, bound: int) -> Iterator[tuple[int, ...]]:
        if length == 0:
            yield ()
            return
        for v in range(bound, -1, -1):
            for rest in rec(length - 1, v):
                yield (v,) + rest

    for tup in rec(rank, max_first):
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


#: valid pairs remembered by ``check_pair``; a verify sweep checks each grid
#: point's pair several times (once per method, and again inside the routes)
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
    if mu.rank != n:
        raise DomainError(f"mu must have rank {n}, got {mu.rank}")
    if lam.rank != lam_rank:
        raise DomainError(f"lam must have rank {lam_rank}, got {lam.rank}")
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
        if family == FAMILY_B:
            return all(l2[i] >= abs(m2[i]) >= l2[i + 1] for i in range(n))
        return all(l2[i] >= m2[i] >= l2[i + 1] for i in range(n))
    if family == FAMILY_B:
        ext = l2 + (0, 0)
        head = all(l2[i] >= m2[i] >= ext[i + 3] for i in range(n - 1))
        return head and l2[n - 1] >= abs(m2[n - 1])
    head = all(l2[i] >= m2[i] >= l2[i + 3] for i in range(n - 2))
    middle = n < 2 or l2[n - 2] >= m2[n - 2] >= abs(l2[n + 1])
    return head and middle and l2[n - 1] >= m2[n - 1]


def tilde(family: str, w: Weight) -> Weight:
    """Negate the last coordinate.  Under family B this maps a subgroup
    highest weight to its outer twist; under family D it twists the ambient
    highest weight.  Branching multiplicities are invariant under it."""
    check_family(family)
    return w.with_last_negated()


@dataclass(frozen=True)
class BranchingQuery:
    """One branching question: how often does the subgroup irreducible with
    highest weight ``mu`` tensored with the (2k+1)-dimensional SO(3)
    representation occur in the ambient irreducible with highest weight
    ``lam``."""

    family: str
    n: int
    lam: Weight
    mu: Weight
    k: int

    def __post_init__(self) -> None:
        check_pair(self.family, self.n, self.lam, self.mu)
        if self.k < 0:
            raise DomainError("k must be non-negative")

    def normalized(self) -> "BranchingQuery":
        """Tilde-normalize: last coordinate of mu (family B) or lam (family D)
        made non-negative.  Multiplicities are invariant under this."""
        if self.family == FAMILY_B and self.mu.coords2[-1] < 0:
            return BranchingQuery(self.family, self.n, self.lam, tilde(FAMILY_B, self.mu), self.k)
        if self.family == FAMILY_D and self.lam.coords2[-1] < 0:
            return BranchingQuery(self.family, self.n, tilde(FAMILY_D, self.lam), self.mu, self.k)
        return self


def restrict(family: str, w: Weight) -> Weight:
    """Restrict from the ambient torus to the subgroup-times-SO(3) torus:
    the identity under family B, removal of the next-to-last coordinate
    under family D."""
    check_family(family)
    if family == FAMILY_B:
        return w
    if w.rank < 2:
        raise DomainError("family D restriction needs rank >= 2")
    return w.drop_index(w.rank - 2)


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


def algebra_rho(family: str, rank: int) -> Weight:
    """Half the sum of the positive roots: coordinates rank-i+1/2 (type B)
    or rank-i (type D) at position i."""
    check_family(family)
    if family == FAMILY_B:
        return Weight(tuple(2 * (rank - i) + 1 for i in range(1, rank + 1)))
    return Weight(tuple(2 * (rank - i) for i in range(1, rank + 1)))


@dataclass(frozen=True)
class RootData:
    """All root-theoretic data needed by the branching algorithms for one
    family and one parameter n.

    The multiset ``sigma`` (restricted ambient positive roots minus the
    subgroup's) lives in the restricted rank n+1 coordinates whose last slot
    is the SO(3) direction.
    """

    family: str
    n: int
    rho_g: Weight
    sigma: tuple[Weight, ...]

    @property
    def g_rank(self) -> int:
        return self.rho_g.rank

    @property
    def g_algebra(self) -> tuple[str, int]:
        return (self.family, self.g_rank)

    @property
    def k_algebra(self) -> tuple[str, int]:
        return (k_family(self.family), self.n)


@lru_cache(maxsize=None)
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
