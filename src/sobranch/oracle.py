"""Brute-force branching oracle, independent of every closed formula in the
package: Freudenthal weight multiplicities, character restriction, and
greedy highest-weight stripping over the product subgroup.

Freudenthal's recursion walks one root string per orbit of the weight's
stabilizer on the roots, weighted by the orbit's positive roots
(Moody-Patera, "Fast recursion formula for weight multiplicities", Bull.
AMS 7, 1982).  A character is fixed by its dominant multiplicities, so
branching restricts and strips on the dominant chamber of K x SO(3) alone
and expands no orbit, and nothing here walks W.  ``_char_items`` spreads
them into a full weight system, over each dominant weight's coordinate
arrangements under every ``weights.sign_patterns``, for the tests.

Algebras are designated by (family, rank) pairs with family 'B' or 'D'; all
arithmetic is exact on doubled-integer tuples.  Inputs are checked by the
definitions in ``weights`` alone: ``branch_oracle``'s lam by ``check_lam``,
with ``check_pair``'s messages, and ``weyl_dim``'s algebra by its root
system and its weight by ``check_rank`` and the weight-fault memo.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import add, ge, mul, sub

from .errors import DomainError, InternalInconsistencyError
from .weights import (
    FAMILY_B,
    FAMILY_D,
    IntMap,
    Weight,
    _weight_fault,
    algebra_positive_roots,
    algebra_rho,
    check_lam,
    check_rank,
    g_rank,
    iter_dominant_weights,
    k_family,
    sign_patterns,
)

# Not called here: perfbench's chunk marks and tracer look these names up in
# this module, so they stay bound until the benchmark reads library counters
# instead.
from .weights import restrict, weyl_elements  # noqa: F401

Algebra = tuple[str, int]

#: dominant multiplicities kept, one per (family, rank, lam): a verify sweep
#: needs each lam's and each found subgroup weight's, at most 71 (B n=6 max=2)
_DOMINANT_SYSTEMS = 128
#: root data kept, one per (family, rank): every Freudenthal recursion and
#: dimension check reads its algebra's
_ALGEBRA_DATA = 16
#: stabilizer orbit tables kept, one per (family, rank, simple roots fixed):
#: the B n=6 tail reads at most 2 ** 7 + 2 ** 6, one per set of simple roots
_ORBIT_TABLES = 256
#: dominant chambers kept, one per (family, rank, first coordinate bound):
#: the B n=6 tail reads 8
_CHAMBERS = 32


class MultiplicityTable(IntMap):
    """Finite map (subgroup highest weight, SO(3) label) -> multiplicity,
    the complete answer of one branching problem."""

    __slots__ = ()

    @staticmethod
    def _check(key, m) -> None:
        mu, k = key
        if type(k) is not int or k < 0 or m <= 0:
            raise DomainError(f"bad table entry ({mu}, {k}) -> {m}")

    def get(self, mu, k: int) -> int:
        return self.reader(mu)(k)

    def reader(self, mu):
        """k -> the multiplicity of (mu, k), with mu's key made once."""
        mu_key = mu.to_ints() if isinstance(mu, Weight) else tuple(mu)
        entries = self._data
        return lambda k: entries.get((mu_key, k), 0)


def _ip2(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Four times the inner product in which the epsilon-basis is
    orthonormal (both arguments doubled)."""
    return sum(map(mul, u, v))


def _dominant_rep2(family: str, t2: tuple[int, ...]) -> tuple[int, ...]:
    s = sorted(map(abs, t2), reverse=True)
    if family == FAMILY_D and s[-1] and prod(t2) < 0:
        s[-1] = -s[-1]
    return tuple(s)


@lru_cache(maxsize=_ALGEBRA_DATA)
def _algebra_data(family: str, rank: int):
    """(positive roots as (coords2, norm), simple roots, rho, Weyl
    denominator: the product of <rho, alpha> over the positive roots), all
    doubled.  A positive root is simple when it is no sum of two."""
    roots2 = tuple((a.coords2, _ip2(a.coords2, a.coords2)) for a in algebra_positive_roots(family, rank))
    positive = {a2 for a2, _ in roots2}
    simple2 = tuple(a2 for a2, _ in roots2 if not any(tuple(map(sub, a2, b2)) in positive for b2 in positive))
    rho2 = algebra_rho(family, rank).coords2
    den = 1
    for a2, _ in roots2:
        den *= _ip2(rho2, a2)
    return roots2, simple2, rho2, den


def _simple_root_coords(family: str, t: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of an integer vector on the simple roots of B_r or
    D_r, the last two doubled under D (e_{r-1} - e_r and e_{r-1} + e_r).  A
    difference of weights is a non-negative integer combination of simple
    roots exactly when its coefficients are >= 0 and, under D, even."""
    c = list(itertools.accumulate(t))
    if family == FAMILY_D:
        c[-2] -= t[-1]
    return tuple(c)


@lru_cache(maxsize=_CHAMBERS)
def _chamber(family: str, rank: int, top: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(coords2, simple-root coefficients) of every dominant integral weight
    with first coordinate at most top, in decreasing |eta + rho|^2, the
    order in which Freudenthal's recursion reaches them."""
    rho2 = _algebra_data(family, rank)[2]

    def norm(eta: Weight) -> int:
        shifted = tuple(map(add, eta.coords2, rho2))
        return _ip2(shifted, shifted)

    return tuple(
        (eta.coords2, _simple_root_coords(family, eta.to_ints()))
        for eta in sorted(iter_dominant_weights(family, rank, top), key=norm, reverse=True)
    )


@lru_cache(maxsize=_ORBIT_TABLES)
def _orbit_table(family: str, rank: int, fixed: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(root, norm, positive roots in its orbit) for one positive root of
    each orbit that the group generated by the simple reflections ``fixed``
    (indices into the simple roots) makes on the roots."""
    roots2, simple2, _, _ = _algebra_data(family, rank)
    reflections = [(simple2[i], _ip2(simple2[i], simple2[i])) for i in fixed]
    left = {a2 for a2, _ in roots2}  # positive roots in no orbit yet
    table = []
    for a2, norm in roots2:
        if a2 not in left:
            continue
        orbit = {a2}
        frontier = [a2]
        while frontier:
            v2 = frontier.pop()
            for s2, s_norm in reflections:
                c = 2 * _ip2(v2, s2) // s_norm
                image = tuple(x - c * y for x, y in zip(v2, s2))
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        table.append((a2, norm, len(orbit & left)))
        left -= orbit
    return tuple(table)


@lru_cache(maxsize=_DOMINANT_SYSTEMS)
def _dominant_mults(family: str, rank: int, lam2: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Freudenthal's recursion on the dominant weights of the irreducible
    with highest weight lam (integral, dominant), one root string per orbit
    of eta's stabilizer W_eta on the roots (Moody-Patera): m is W-invariant
    and W_eta fixes eta, so a string adds the same for every root of its
    orbit, and an orbit meeting the positive roots has a positive one."""
    _, simple2, rho2, _ = _algebra_data(family, rank)
    lam_ints = tuple(c // 2 for c in lam2)
    top2 = tuple(map(add, lam2, rho2))
    top_norm = _ip2(top2, top2)

    # the dominant eta with lam - eta a non-negative integer combination of
    # simple roots, in the chamber's order
    lam_coords = _simple_root_coords(family, lam_ints)
    parity = 2 if family == FAMILY_D else 1
    candidates = [
        eta2 for eta2, coords in _chamber(family, rank, lam_ints[0])
        if all(map(ge, lam_coords, coords)) and not (lam_coords[-1] - coords[-1]) % parity
    ]
    if not candidates or candidates[0] != lam2:
        raise InternalInconsistencyError("highest weight missing from its own weight system")

    mults: dict[tuple[int, ...], int] = {lam2: 1}
    # every weight walked -> its multiplicity, each dominant representative
    # sorted once; a walked weight of the system lies above eta, so its
    # representative's multiplicity is known when it is first met
    walked: dict[tuple[int, ...], int] = {}
    for eta2 in candidates[1:]:
        fixed = tuple(i for i, s2 in enumerate(simple2) if not _ip2(eta2, s2))
        num = 0
        for a2, norm, count in _orbit_table(family, rank, fixed):
            # the string eta + j alpha, j = 1, 2, ..., with <xi, alpha> stepped by |alpha|^2
            xi2 = eta2
            ip = _ip2(eta2, a2)
            string = 0
            while True:
                xi2 = tuple(map(add, xi2, a2))
                ip += norm
                m = walked.get(xi2)
                if m is None:
                    m = walked[xi2] = mults.get(_dominant_rep2(family, xi2), 0)
                if not m:
                    break
                string += m * ip
            num += count * string
        eta_rho2 = tuple(map(add, eta2, rho2))
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


def weyl_dim(algebra: Algebra, lam: Weight) -> int:
    """Dimension by the Weyl product formula.  An algebra with no root system
    here, or a lam of another rank, not integral or not dominant, raises
    DomainError."""
    family, rank = algebra
    roots2, _, rho2, den = _algebra_data(family, rank)
    check_rank("lam", lam, rank)
    fault = _weight_fault(family, lam)
    if fault:
        raise DomainError(f"lam={lam} is not {fault} for {family}_{rank}")
    top2 = tuple(map(add, lam.coords2, rho2))
    num = 1
    for a2, _ in roots2:
        num *= _ip2(top2, a2)
    quot, rem = divmod(num, den)
    if rem:
        raise InternalInconsistencyError("Weyl dimension is not an integer")
    return quot


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
    check_lam(family, n, lam)
    grank = g_rank(family, n)
    kfam = k_family(family)
    mults = dict(_dominant_mults(family, grank, lam.coords2))
    top = lam.to_ints()[0]
    # restriction drops no slot under family B and slot n under family D, so
    # the restricted multiplicity sums over the dropped coordinate's values
    dropped = [()] if family == FAMILY_B else [(d2,) for d2 in range(-2 * top, 2 * top + 1, 2)]

    taken: dict[tuple[int, ...], int] = {}
    entries: dict[tuple[tuple[int, ...], int], int] = {}
    for mu2 in sorted((mu.coords2 for mu in iter_dominant_weights(kfam, n, top)), reverse=True):
        for k2 in range(2 * top, -1, -2):
            m = sum(mults.get(_dominant_rep2(family, mu2 + d + (k2,)), 0) for d in dropped)
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
    if total != weyl_dim((family, grank), lam):
        raise InternalInconsistencyError(
            f"dimension check failed: {total} != dim of {lam}"
        )
    return MultiplicityTable(entries)
