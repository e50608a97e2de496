"""Brute-force branching oracle, independent of every closed formula in the
package: Freudenthal weight multiplicities, alternating Weyl-orbit sums,
character restriction, and greedy highest-weight stripping over the product
subgroup.

A character is fixed by its dominant multiplicities, so branching restricts
and strips on the dominant chamber of K x SO(3) alone and expands no orbit.
A full weight system spreads them over each dominant weight's coordinate
arrangements under every ``weights.sign_patterns``.  Only ``xi`` walks W.

Algebras are designated by (family, rank) pairs with family 'B' or 'D'; all
arithmetic is exact on doubled-integer tuples.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import DomainError, InternalInconsistencyError
from .weights import (
    FAMILY_B,
    FAMILY_D,
    SignedPermutation,
    Weight,
    algebra_positive_roots,
    algebra_rho,
    check_family,
    g_rank,
    is_dominant,
    iter_dominant_weights,
    k_family,
    sign_patterns,
    weyl_elements,
)

# Not called here: perfbench's chunk marks look this name up in this module,
# so it stays bound until the benchmark reads library counters instead.
from .weights import restrict  # noqa: F401

Algebra = tuple[str, int]

#: dominant multiplicities kept, one per (family, rank, lam): a verify sweep
#: needs each lam's and each found subgroup weight's, at most 71 (B n=6 max=2)
_DOMINANT_SYSTEMS = 128


def _check_algebra(algebra: Algebra) -> Algebra:
    family, rank = algebra
    check_family(family)
    if rank < 1 or (family == FAMILY_D and rank < 2):
        raise DomainError(f"unsupported algebra {family}_{rank}")
    return family, rank


class CharacterMap:
    """Sparse integer-valued map on the weight lattice (signed values are
    allowed, so alternating orbit sums fit too).  Immutable."""

    __slots__ = ("_data",)

    def __init__(self, data=None):
        mapping: dict[tuple[int, ...], int] = {}
        items = data.items() if isinstance(data, dict) else (data or ())
        for key, value in items:
            key = key.coords2 if isinstance(key, Weight) else tuple(key)
            if value:
                mapping[key] = mapping.get(key, 0) + value
                if not mapping[key]:
                    del mapping[key]
        self._data = mapping

    def get(self, w: Weight) -> int:
        return self._data.get(w.coords2, 0)

    def items(self) -> list[tuple[Weight, int]]:
        return [(Weight(k), v) for k, v in sorted(self._data.items())]

    def total(self) -> int:
        return sum(self._data.values())

    def transformed(self, omega: SignedPermutation) -> "CharacterMap":
        return CharacterMap({omega.apply2(k): v for k, v in self._data.items()})

    def __mul__(self, other: "CharacterMap") -> "CharacterMap":
        out: dict[tuple[int, ...], int] = {}
        for k1, v1 in self._data.items():
            for k2, v2 in other._data.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0) + v1 * v2
        return CharacterMap(out)

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharacterMap):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:
        inner = ", ".join(f"{Weight(k)}: {v}" for k, v in sorted(self._data.items()))
        return "{" + inner + "}"


class MultiplicityTable:
    """Finite map (subgroup highest weight, SO(3) label) -> multiplicity,
    the complete answer of one branching problem."""

    __slots__ = ("_entries",)

    def __init__(self, entries: dict[tuple[tuple[int, ...], int], int]):
        for (mu, k), m in entries.items():
            if k < 0 or m <= 0:
                raise DomainError(f"bad table entry ({mu}, {k}) -> {m}")
        self._entries = dict(entries)

    def get(self, mu, k: int) -> int:
        mu_key = tuple(mu.to_ints()) if isinstance(mu, Weight) else tuple(mu)
        return self._entries.get((mu_key, k), 0)

    def items(self) -> list[tuple[tuple[tuple[int, ...], int], int]]:
        return sorted(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiplicityTable):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        inner = ", ".join(f"({mu}, {k}): {m}" for (mu, k), m in self.items())
        return "{" + inner + "}"


def _ip2(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Four times the inner product in which the epsilon-basis is
    orthonormal (both arguments doubled)."""
    return sum(a * b for a, b in zip(u, v))


def _dominant_rep2(family: str, t2: tuple[int, ...]) -> tuple[int, ...]:
    s = sorted((abs(c) for c in t2), reverse=True)
    if family == FAMILY_D:
        negatives = sum(1 for c in t2 if c < 0)
        if negatives % 2 and s[-1]:
            s[-1] = -s[-1]
    return tuple(s)


def _in_positive_root_span(family: str, d: tuple[int, ...]) -> bool:
    """Whether an integer vector is a non-negative integer combination of the
    simple roots of B_r / D_r."""
    r = len(d)
    prefix = []
    s = 0
    for v in d:
        s += v
        prefix.append(s)
    if family == FAMILY_B:
        return all(x >= 0 for x in prefix)
    if r < 2:
        return d[0] == 0
    if any(prefix[j] < 0 for j in range(r - 2)):
        return False
    s_r = prefix[-1]
    s_rm2 = prefix[r - 3] if r >= 3 else 0
    if s_r % 2 or s_r < 0:
        return False
    return s_rm2 + d[r - 2] - d[r - 1] >= 0


@lru_cache(maxsize=_DOMINANT_SYSTEMS)
def _dominant_mults(family: str, rank: int, lam2: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Freudenthal's recursion on the dominant weights of the irreducible
    with highest weight lam (integral, dominant)."""
    roots2 = tuple(a.coords2 for a in algebra_positive_roots(family, rank))
    rho2 = algebra_rho(family, rank).coords2
    lam_ints = tuple(c // 2 for c in lam2)
    top2 = tuple(a + b for a, b in zip(lam2, rho2))
    top_norm = _ip2(top2, top2)

    candidates = []
    for eta in iter_dominant_weights(family, rank, lam_ints[0]):
        d = tuple(a - b for a, b in zip(lam_ints, eta.to_ints()))
        if _in_positive_root_span(family, d):
            candidates.append(eta.coords2)
    candidates.sort(
        key=lambda e2: _ip2(
            tuple(a + b for a, b in zip(e2, rho2)), tuple(a + b for a, b in zip(e2, rho2))
        ),
        reverse=True,
    )
    if not candidates or candidates[0] != lam2:
        raise InternalInconsistencyError("highest weight missing from its own weight system")

    mults: dict[tuple[int, ...], int] = {lam2: 1}
    for eta2 in candidates[1:]:
        num = 0
        for a2 in roots2:
            j = 1
            while True:
                xi2 = tuple(e + j * a for e, a in zip(eta2, a2))
                m = mults.get(_dominant_rep2(family, xi2))
                if not m:
                    break
                num += m * _ip2(xi2, a2)
                j += 1
        eta_rho2 = tuple(a + b for a, b in zip(eta2, rho2))
        denom = top_norm - _ip2(eta_rho2, eta_rho2)
        if denom <= 0:
            raise InternalInconsistencyError("non-positive Freudenthal denominator")
        quot, rem = divmod(2 * num, denom)
        if rem or quot <= 0:
            raise InternalInconsistencyError(
                f"Freudenthal failed at {eta2}: 2*{num}/{denom}"
            )
        mults[eta2] = quot
    return tuple(sorted(mults.items()))


def _char_items(family: str, rank: int, lam2: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The full weight system: each dominant weight's multiplicity on its
    orbit, every sign pattern of every arrangement of its coordinates
    (distinct dominant weights have disjoint orbits)."""
    out: dict[tuple[int, ...], int] = {}
    flip_sets = [flips for _, flips in sign_patterns(family, rank)]
    for eta2, m in _dominant_mults(family, rank, lam2):
        for arrangement in set(itertools.permutations(eta2)):
            for flips in flip_sets:
                img = list(arrangement)
                for j in flips:
                    img[j] = -img[j]
                out[tuple(img)] = m
    return tuple(sorted(out.items()))


def _require_dominant_integral(algebra: Algebra, lam: Weight) -> Algebra:
    family, rank = _check_algebra(algebra)
    if lam.rank != rank:
        raise DomainError(f"weight rank {lam.rank} does not match algebra rank {rank}")
    if not lam.is_integral:
        raise DomainError(f"{lam} is not integral")
    if not is_dominant(family, lam):
        raise DomainError(f"{lam} is not dominant for {family}_{rank}")
    return family, rank


def weight_multiplicities(algebra: Algebra, lam: Weight) -> CharacterMap:
    """Exact weight multiplicities of the irreducible with highest weight
    lam, by Freudenthal's recursion."""
    family, rank = _require_dominant_integral(algebra, lam)
    return CharacterMap(dict(_char_items(family, rank, lam.coords2)))


def weyl_dim(algebra: Algebra, lam: Weight) -> int:
    """Dimension by the Weyl product formula."""
    family, rank = _require_dominant_integral(algebra, lam)
    rho2 = algebra_rho(family, rank).coords2
    top2 = tuple(a + b for a, b in zip(lam.coords2, rho2))
    num = 1
    den = 1
    for a in algebra_positive_roots(family, rank):
        num *= _ip2(top2, a.coords2)
        den *= _ip2(rho2, a.coords2)
    quot, rem = divmod(num, den)
    if rem:
        raise InternalInconsistencyError("Weyl dimension is not an integer")
    return quot


def xi(algebra: Algebra, eta: Weight) -> CharacterMap:
    """The alternating Weyl-orbit sum of e^eta as a signed map."""
    family, rank = _check_algebra(algebra)
    if eta.rank != rank:
        raise DomainError(f"weight rank {eta.rank} does not match algebra rank {rank}")
    out: dict[tuple[int, ...], int] = {}
    for w in weyl_elements(family, rank):
        key = w.apply2(eta.coords2)
        out[key] = out.get(key, 0) + w.sign
    return CharacterMap(out)


def branch_oracle(family: str, n: int, lam: Weight) -> MultiplicityTable:
    """Complete branching table of the ambient irreducible over the product
    subgroup: walk the dominant weights (mu, k) of K x SO(3) with mu_1 <=
    lam_1 from the lexicographically highest down, and take as the entry
    (mu, k) the restricted character there less what the characters found
    so far have there.  Positive roots are lexicographically positive, so
    each character reaching (mu, k) was found before it.

    Purely character-theoretic; shares nothing with the partition-function
    or generating-function routes.
    """
    gfam, grank = _require_dominant_integral((family, g_rank(family, n)), lam)
    kfam = k_family(family)
    mults = dict(_dominant_mults(gfam, grank, lam.coords2))
    top = lam.to_ints()[0]
    # restriction drops no slot under family B and slot n under family D, so
    # the restricted multiplicity sums over the dropped coordinate's values
    dropped = [()] if family == FAMILY_B else [(d2,) for d2 in range(-2 * top, 2 * top + 1, 2)]

    taken: dict[tuple[int, ...], int] = {}
    entries: dict[tuple[tuple[int, ...], int], int] = {}
    for mu2 in sorted((mu.coords2 for mu in iter_dominant_weights(kfam, n, top)), reverse=True):
        for k2 in range(2 * top, -1, -2):
            m = sum(mults.get(_dominant_rep2(gfam, mu2 + d + (k2,)), 0) for d in dropped)
            m -= taken.get(mu2 + (k2,), 0)
            if m < 0:
                raise InternalInconsistencyError(
                    f"negative residual {m} at ({Weight(mu2)}, {k2 // 2})"
                )
            if m:
                entries[(Weight(mu2).to_ints(), k2 // 2)] = m
                for kappa2, km in _dominant_mults(kfam, n, mu2):
                    for j2 in range(0, k2 + 1, 2):
                        key = kappa2 + (j2,)
                        taken[key] = taken.get(key, 0) + m * km

    total = sum(
        m * weyl_dim((kfam, n), Weight.of_ints(mu)) * (2 * k + 1)
        for (mu, k), m in entries.items()
    )
    if total != weyl_dim((gfam, grank), lam):
        raise InternalInconsistencyError(
            f"dimension check failed: {total} != dim of {lam}"
        )
    return MultiplicityTable(entries)
