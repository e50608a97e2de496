"""Branching multiplicities via Kostant's branching formula.

Two independent code paths: the full alternating sum over the whole ambient
Weyl group, and the reduced forms (two terms under family B, four terms
under family D) that the interlacing hypotheses justify.  They share only
the partition-function evaluator; agreement between them, the generating
function route and the character oracle is the package's main invariant.

The full sum does the same exact arithmetic as the textbook loop with less
repeated work:

* Direct orbit.  lam + rho is regular, so its Weyl orbit is every signed
  permutation of its coordinates (family D: with an even number of sign
  changes).  ``_orbit`` builds the restricted, rho-shifted images p as
  doubled integers straight from those permutations and sign patterns, with
  each element's sign from the permutation's inversion parity and the flip
  count, once per (family, n, lam), and keeps them in a small LRU.  A term's
  ``SignedPermutation`` is built only when the term is yielded.
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
from .partition import count_vector_partitions, partition_function
from .weights import (
    FAMILY_B,
    BranchingQuery,
    SignedPermutation,
    Weight,
    _inversion_parity,
    interlace,
    make_root_data,
    restrict,
)

# Not called here: perfbench's tracer rebinds this name in this module, so it
# stays bound until the benchmark reads library counters instead.
from .weights import weyl_elements  # noqa: F401


#: Weyl orbits kept, one per (family, n, lam); a verify sweep walks one lam
#: at a time through all its (mu, k)
_ORBITS = 8


def _sign_patterns(family: str, rank: int) -> list[tuple[int, tuple[int, ...]]]:
    """((-1) ** flips, flipped image slots) for every sign pattern of the
    Weyl group, in ``itertools.product`` order over the restricted slots
    (unflipped before flipped, first slot most significant).  Family D
    restricts away slot rank - 2 and flips it exactly when that makes the
    flip count even, so each pattern of the other slots stands for one
    element.

    The slots are a sorted tuple, not a frozenset: a tuple of ints is
    untracked by the cycle collector, and so is an orbit point holding only
    such tuples; one set in every point would keep the whole orbit tracked
    and more than double its build time."""
    if family == FAMILY_B:
        kept = tuple(range(rank))
    else:
        kept = tuple(j for j in range(rank) if j != rank - 2)
    patterns = []
    for choice in itertools.product((False, True), repeat=len(kept)):
        flips = {j for j, flipped in zip(kept, choice) if flipped}
        if family != FAMILY_B and len(flips) % 2:
            flips.add(rank - 2)
        patterns.append((-1 if len(flips) % 2 else 1, tuple(sorted(flips))))
    return patterns


@lru_cache(maxsize=_ORBITS)
def _orbit(
    family: str, n: int, lam: Weight
) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, tuple[int, ...]]], ...]:
    """(phi . p, p, perm, (sign, flips)) for every Weyl group element
    omega = SignedPermutation(perm, frozenset(flips)) of sign ``sign``,
    where p is the doubled-integer restriction of omega(lam + rho) - rho and
    phi the positive functional of sigma's partition function; sorted by
    phi . p, highest first."""
    rd = make_root_data(family, n)
    phi = partition_function(rd.sigma).phi
    rank = rd.g_rank
    lam_rho = (lam + rd.rho_g).coords2
    rho_bar = restrict(family, rd.rho_g).coords2
    patterns = _sign_patterns(family, rank)
    signed = {1: patterns, -1: [(-sign, flips) for sign, flips in patterns]}
    points: list = []
    for perm in itertools.permutations(range(rank)):
        # omega puts coordinate i of lam + rho in slot perm[i], then negates
        # the flipped slots; restrict is linear, so p is the restricted
        # signed image minus the restriction of rho
        image = [0] * rank
        for i, j in enumerate(perm):
            image[j] = lam_rho[i]
        image = restrict(family, Weight(tuple(image))).coords2
        choices = [(c - r, -c - r) for c, r in zip(image, rho_bar)]
        # phi . p summed from the same choices, slot by slot
        levels = map(sum, itertools.product(*[(f * a, f * b) for f, (a, b) in zip(phi, choices)]))
        points.extend(zip(levels, itertools.product(*choices), itertools.repeat(perm),
                          signed[_inversion_parity(perm)]))
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
    floor = sigma.level(mu_ext)
    support = sigma.support
    for level, p, perm, (sign, flips) in _orbit(q.family, q.n, q.lam):
        if level < floor:
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


def multiplicity_kostant_reduced(q: BranchingQuery) -> int:
    """The reduced expressions valid under simple interlacing, after
    tilde-normalization: a two-term difference for family B, a four-term
    signed sum for family D."""
    q = q.normalized()
    if not interlace("simple", q.family, q.lam, q.mu):
        raise InterlacingError(
            f"mu={q.mu} does not simply interlace lam={q.lam} (family {q.family})"
        )
    sigma = partition_function(make_root_data(q.family, q.n).sigma)
    lam_bar = restrict(q.family, q.lam)
    mu_ext = Weight(q.mu.coords2 + (0,))
    base = lam_bar - mu_ext

    def p(target: Weight) -> int:
        return count_vector_partitions(sigma, target)

    if q.family == FAMILY_B:
        total = p(base.shift_last(-2 * q.k)) - p(base.shift_last(2 * (q.k + 1)))
    else:
        l = q.lam.to_ints()
        second_last, last = l[q.n], l[q.n + 1]
        total = (
            p(base.shift_last(-2 * q.k))
            + p(base.shift_last(-2 * (2 * last + q.k)))
            - p(base.shift_last(2 * (second_last - last + 1 - q.k)))
            - p(base.shift_last(-2 * (second_last + last + 1 + q.k)))
        )
    if total < 0:
        raise InternalInconsistencyError(f"negative reduced sum {total} for {q}")
    return total
