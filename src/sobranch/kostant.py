"""Branching multiplicities via Kostant's branching formula.

Two independent code paths: the full alternating sum over the whole ambient
Weyl group, and the reduced forms (two terms under family B, four terms
under family D) that the interlacing hypotheses justify.  They share only
the partition-function evaluator; agreement between them, the generating
function route and the character oracle is the package's main invariant.

The full sum does the same exact arithmetic as the textbook loop with less
repeated work:

* Orbit cache.  The restricted, rho-shifted image p of lam + rho under each
  Weyl group element depends on lam alone, so it is built once per
  (family, n, lam), as doubled integers with the element's sign, and kept
  in a small LRU (``_orbit``).
* Functional cut-off.  The orbit is sorted by phi . p, where phi is the
  positive functional of sigma's partition function.  The term of p has
  target p - (mu, 2k), and a target with negative phi has no partition, so
  the walk stops at the first p below phi . (mu, 2k).  That is the
  evaluator's own first test, made once per query instead of once per term.
* Bound evaluator.  Both paths count with sigma's ``PartitionFunction``:
  its generators are validated and sorted, and phi found, once per root
  system and looked up once per query, not once per partition count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .errors import InterlacingError, InternalInconsistencyError
from .partition import count_vector_partitions, partition_function
from .weights import (
    FAMILY_B,
    BranchingQuery,
    SignedPermutation,
    Weight,
    interlace,
    make_root_data,
    restrict,
    weyl_elements,
)


#: Weyl orbits kept, one per (family, n, lam); a verify sweep walks one lam
#: at a time through all its (mu, k)
_ORBITS = 8


@lru_cache(maxsize=_ORBITS)
def _orbit(
    family: str, n: int, lam: Weight
) -> tuple[tuple[int, SignedPermutation, int, tuple[int, ...]], ...]:
    """(phi . p, omega, omega.sign, p) for every Weyl group element omega,
    where p is the doubled-integer restriction of omega(lam + rho) - rho and
    phi the positive functional of sigma's partition function; sorted by
    phi . p, highest first, and Weyl order among equal levels."""
    rd = make_root_data(family, n)
    level = partition_function(rd.sigma).level
    lam_rho = lam + rd.rho_g
    rho_bar = restrict(family, rd.rho_g).coords2
    points = []
    for omega in weyl_elements(family, rd.g_rank):
        # restrict is linear: restrict(omega(lam + rho)) - restrict(rho)
        image = restrict(family, omega.apply(lam_rho)).coords2
        p = tuple(a - b for a, b in zip(image, rho_bar))
        points.append((level(p), omega, omega.sign, p))
    points.sort(key=lambda point: point[0], reverse=True)
    return tuple(points)


def kostant_terms(q: BranchingQuery) -> Iterator[tuple[SignedPermutation, int, int]]:
    """Yield (omega, sign, partition count) for every Weyl group element
    whose term in the alternating sum is non-zero.

    A term's target p - (mu, 2k) lies at level phi . p - phi . (mu, 2k), and
    a target below level 0 has no partition, so the walk down the sorted
    orbit stops at the first point below phi . (mu, 2k): every term after it
    is 0.
    """
    sigma = partition_function(make_root_data(q.family, q.n).sigma)
    mu_ext = q.mu.coords2 + (2 * q.k,)
    floor = sigma.level(mu_ext)
    for level, omega, sign, p in _orbit(q.family, q.n, q.lam):
        if level < floor:
            break
        target = Weight(tuple(a - b for a, b in zip(p, mu_ext)))
        value = count_vector_partitions(sigma, target)
        if value:
            yield omega, sign, value


def multiplicity_kostant_full(q: BranchingQuery) -> int:
    """Kostant's full alternating Weyl sum, evaluated exactly, with no
    pruning beyond the partition function's own zero test: a term whose
    target has negative positive functional is 0, so the walk down lam's
    orbit, sorted by that functional, stops at the first such term."""
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
