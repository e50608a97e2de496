"""Branching multiplicities via Kostant's branching formula.

Two independent code paths: the full alternating sum over the whole ambient
Weyl group, and the reduced forms (two terms under family B, four terms
under family D) that the interlacing hypotheses justify.  They share only
the partition-function evaluator; agreement between them, the generating
function route and the character oracle is the package's main invariant.

The full sum does the same exact arithmetic as the textbook loop with less
repeated work:

* Direct orbit.  lam + rho is regular, so its Weyl orbit is its signed
  coordinate permutations, one per element.  ``_orbit`` builds the
  restricted, rho-shifted images p as doubled integers from the permutations
  and ``weights.sign_patterns`` (each point takes its pattern by its index in
  the order that function guarantees), each sign from the inversion parity
  and flip count, once per (family, n, lam) into a small LRU.  A term's
  ``SignedPermutation`` is built on yield.
* Head floor.  Every query's mu is dominant for the subgroup, so it is >= 0
  on the head slots ``_floor_slots`` names, which lie in sigma's sign
  support (below).  A point p negative on one of them fails the support
  test of every query, so ``_orbit`` never builds it: a permutation that
  leaves a floor slot negative under both signs is skipped, and each slot's
  two signs are filtered before the product over slots.  The orbit keeps
  only the points some query can use, a small part of |W| at n >= 4 (4 of
  322,560 for lam = (1, 0, ..., 0) at family D, n = 5).
* Functional cut-off.  The orbit is sorted by phi . p, where phi is the
  positive functional of sigma's partition function.  The term of p has
  target p - (mu, 2k), and a target with negative phi has no partition, so
  the walk stops at the first p below phi . (mu, 2k).  That is the
  evaluator's first zero test, made once per query instead of once per term.
* Sign-support skip.  A target negative on a coordinate where every
  generator of sigma is >= 0 (sigma's support: the n head coordinates) has
  no partition.  That is the evaluator's second zero test; the walk makes
  it before counting and skips such p.
* Bound evaluator.  Both paths count with sigma's ``PartitionFunction``:
  its generators are validated and sorted, and phi and the support found,
  once per root system and looked up once per query, not once per
  partition count.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from .errors import InterlacingError, InternalInconsistencyError
from .partition import PartitionFunction, count_vector_partitions, partition_function
from .weights import (
    FAMILY_B,
    BranchingQuery,
    SignedPermutation,
    Weight,
    _inversion_parity,
    interlace,
    make_root_data,
    restrict,
    sign_patterns,
)

# Not called here: perfbench's tracer rebinds this name in this module, so it
# stays bound until the benchmark reads library counters instead.
from .weights import weyl_elements  # noqa: F401


#: Weyl orbits kept, one per (family, n, lam); a verify sweep walks one lam
#: at a time through all its (mu, k)
_ORBITS = 8


def _floor_slots(family: str, n: int, support: tuple[int, ...]) -> tuple[int, ...]:
    """The restricted slots on which an orbit point must be >= 0 for any
    query to use it, given sigma's sign ``support`` (the n head slots).

    Every query's mu is dominant for the subgroup K, because
    ``BranchingQuery`` runs ``check_pair``: under family B (K = D_n) mu is
    >= 0 on head slots 0..n-2 and only its last slot may be negative; under
    family D (K = B_n) it is >= 0 on all n head slots.  ``kostant_terms``
    skips a point p with p[c] < mu[c] on a support slot c, so a p negative
    on a support slot where mu is >= 0 is skipped by every query."""
    heads = n - 1 if family == FAMILY_B else n
    return tuple(c for c in support if c < heads)


@lru_cache(maxsize=_ORBITS)
def _orbit(
    family: str, n: int, lam: Weight
) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, tuple[int, ...]]], ...]:
    """(phi . p, p, perm, (sign, flips)) for every Weyl group element
    omega = SignedPermutation(perm, frozenset(flips)) of sign ``sign`` whose
    p is >= 0 on the floor slots (``_floor_slots``), where p is the
    doubled-integer restriction of omega(lam + rho) - rho and phi the
    positive functional of sigma's partition function; sorted by phi . p,
    highest first."""
    rd = make_root_data(family, n)
    sigma = partition_function(rd.sigma)
    floor = _floor_slots(family, n, sigma.support)
    rank = rd.g_rank
    lam_rho = (lam + rd.rho_g).coords2
    rho_bar = restrict(family, rd.rho_g).coords2
    patterns = sign_patterns(family, rank)
    signed = {1: patterns, -1: [(-sign, flips) for sign, flips in patterns]}
    # a slot's flip adds this to the index of its sign pattern: product order
    # over the restricted slots, first slot most significant
    bits = [1 << j for j in reversed(range(len(rho_bar)))]
    # restrict keeps coordinates, so restricting the slot numbers names the
    # ambient slot behind each restricted one
    kept = restrict(family, Weight(tuple(range(rank)))).coords2
    points: list = []
    for perm in itertools.permutations(range(rank)):
        # omega puts coordinate i of lam + rho in slot perm[i], then negates
        # the flipped slots; restrict is linear, so p is the restricted
        # signed image minus the restriction of rho
        image = [0] * rank
        for i, j in enumerate(perm):
            image[j] = lam_rho[i]
        image = [image[j] for j in kept]
        # a floor slot with |c| < r is negative under both signs
        if any(abs(image[j]) < rho_bar[j] for j in floor):
            continue
        # each slot's (flip bit, coordinate of p) choices, unflipped first; a
        # floor slot keeps only the non-negative ones
        choices = [
            [(flip, a) for flip, a in ((0, c - r), (bit, -c - r)) if a >= 0 or j not in floor]
            for j, (c, r, bit) in enumerate(zip(image, rho_bar, bits))
        ]
        coords = [[a for _, a in slot] for slot in choices]
        # phi . p and the pattern index summed from the same choices, slot by slot
        levels = map(sum, itertools.product(
            *[[f * a for a in slot] for f, slot in zip(sigma.phi, coords)]))
        indices = map(sum, itertools.product(*[[flip for flip, _ in slot] for slot in choices]))
        points.extend(zip(levels, itertools.product(*coords), itertools.repeat(perm),
                          map(signed[_inversion_parity(perm)].__getitem__, indices)))
    points.sort(key=itemgetter(0), reverse=True)
    return tuple(points)


def kostant_terms(q: BranchingQuery) -> Iterator[tuple[SignedPermutation, int, int]]:
    """Yield (omega, sign, partition count) for every Weyl group element
    whose term in the alternating sum is non-zero.

    A term's target p - (mu, 2k) lies at level phi . p - phi . (mu, 2k), and
    a target below level 0 has no partition, so the walk down the sorted
    orbit stops at the first point below phi . (mu, 2k): every term after it
    is 0.  A target negative on a coordinate of sigma's sign support has no
    partition either, so the walk skips it without counting.
    """
    sigma = partition_function(make_root_data(q.family, q.n).sigma)
    mu_ext = q.mu.coords2 + (2 * q.k,)
    cutoff = sigma.level(mu_ext)
    support = sigma.support
    for level, p, perm, (sign, flips) in _orbit(q.family, q.n, q.lam):
        if level < cutoff:
            break
        if any(p[c] < mu_ext[c] for c in support):
            continue
        target = Weight(tuple(a - b for a, b in zip(p, mu_ext)))
        value = count_vector_partitions(sigma, target)
        if value:
            yield SignedPermutation(perm, frozenset(flips)), sign, value


def multiplicity_kostant_full(q: BranchingQuery) -> int:
    """Kostant's full alternating Weyl sum, evaluated exactly, with no
    pruning beyond the partition function's own two zero tests: a term whose
    target has negative positive functional is 0, so the walk down lam's
    orbit, sorted by that functional, stops at the first such term; and a
    term whose target is negative on a coordinate where every generator is
    >= 0 is 0, so the walk skips it."""
    total = sum(sign * value for _, sign, value in kostant_terms(q))
    if total < 0:
        raise InternalInconsistencyError(
            f"negative alternating sum {total} for {q}"
        )
    return total


class ReducedSum:
    """The reduced sum of one simply interlacing (lam, mu) pair, bound once:
    ``mult(k)`` counts its signed terms at k.  Each term is a sign, its
    target at k = 0 and the step of the target's last doubled coordinate per
    unit of k.  Build one with ``reduced_sum``."""

    __slots__ = ("query", "_sigma", "_terms")

    def __init__(
        self, query: BranchingQuery, sigma: PartitionFunction, terms: tuple[tuple[int, Weight, int], ...]
    ):
        self.query = query
        self._sigma = sigma
        self._terms = terms

    def mult(self, k: int) -> int:
        """Multiplicity of the (2k+1)-dimensional SO(3) irreducible."""
        total = sum(
            sign * count_vector_partitions(self._sigma, target.shift_last(step * k))
            for sign, target, step in self._terms
        )
        if total < 0:
            q = self.query
            raise InternalInconsistencyError(
                f"negative reduced sum {total} for family {q.family}, n={q.n}, "
                f"lam={q.lam}, mu={q.mu}, k={k}"
            )
        return total


def reduced_sum(q: BranchingQuery) -> ReducedSum:
    """The reduced expressions valid under simple interlacing, after
    tilde-normalization, bound for q's (lam, mu) whatever q.k: a two-term
    difference for family B, a four-term signed sum for family D.  Raises
    InterlacingError where mu does not simply interlace lam."""
    q = q.normalized()
    if not interlace("simple", q.family, q.lam, q.mu):
        raise InterlacingError(
            f"mu={q.mu} does not simply interlace lam={q.lam} (family {q.family})"
        )
    sigma = partition_function(make_root_data(q.family, q.n).sigma)
    base = restrict(q.family, q.lam) - Weight(q.mu.coords2 + (0,))
    if q.family == FAMILY_B:
        terms = ((1, base, -2), (-1, base.shift_last(2), 2))
    else:
        l = q.lam.to_ints()
        second_last, last = l[q.n], l[q.n + 1]
        terms = (
            (1, base, -2),
            (1, base.shift_last(-4 * last), -2),
            (-1, base.shift_last(2 * (second_last - last + 1)), -2),
            (-1, base.shift_last(-2 * (second_last + last + 1)), -2),
        )
    return ReducedSum(q, sigma, terms)


def multiplicity_kostant_reduced(q: BranchingQuery) -> int:
    """The reduced sum of q's pair at q.k."""
    return reduced_sum(q).mult(q.k)
