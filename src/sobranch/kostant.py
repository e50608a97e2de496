"""Branching multiplicities via Kostant's branching formula.

Two independent code paths: the full alternating sum over the whole ambient
Weyl group, and the reduced forms (two terms under family B, four terms
under family D) that the interlacing hypotheses justify.  They share only
the partition-function evaluator; agreement between them, the generating
function route and the character oracle is the package's main invariant.

The full sum does the same exact arithmetic as the textbook loop with less
repeated work:

* Per-pair placement.  lam + rho is regular, so its Weyl orbit is its
  signed coordinate permutations, one per element, and a term's target is
  p - (mu, 2k) with p the restricted, rho-shifted image as doubled integers.
  A target negative on a coordinate where every generator of sigma is >= 0
  (sigma's support: the n head slots) has no partition, whatever k, so a
  pair needs only the p with p >= mu on the head.  There p[j] = +-c - rho[j]
  for the coordinate c of lam + rho in slot j, so ``_pair_terms`` fills the
  head one slot at a time in a single pass: slot j takes each unplaced
  coordinate with each sign whose p[j] - mu[j] is >= 0, and a partial
  placement ends as soon as a slot has none.  A full head binds its row
  once, and the coordinates left over fill the other slots in every order.
  Each sign pattern is read off ``weights.sign_patterns`` by its index in
  the order that function guarantees, and the sign from the inversion
  parity and flip count.  The build grows with the kept terms, not with |W|
  or the (n+1)! permutations: 4 terms for lam = (9, ..., 9) and
  mu = (9, ..., 9) at family D, n = 7, where 725,760 points are >= 0 on the
  head.
* Bound evaluator.  Both paths count with sigma's ``PartitionFunction``:
  its generators are validated and sorted once per root system
  (``_sigma``), and the row plan (head functional psi and the per-index
  zero tests) is made at that bind, not once per pair or row.
* Whole row.  ``_pair_terms`` binds the terms of one (lam, mu) pair for
  every k into a small LRU: its placement, and per kept head sigma's
  ``PartitionFunction.row`` of the head target p_head - mu, the counts by
  last coordinate, shared by the last slot's two signs.  ``kostant_terms``
  then reads each term at k as one row lookup at p_last - 2k; a row is 0
  past its span, so the walk needs no cut-off by a functional.  A verify
  sweep asks for every k of a pair back to back, so each pair is bound
  once.

The reduced sum keeps no pairs of its own: all its terms share one head
target, so ``reduced_pair`` binds one row per call and returns the reader
of k, and a caller that asks for every k of a pair (the verify walk's
slot for the method) keeps that reader.  A pair that does not simply interlace
raises InterlacingError at the bind.  Both paths count partitions only
through rows.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .errors import InterlacingError, InternalInconsistencyError
from .partition import PartitionFunction, Row, partition_function
from .weights import (
    FAMILY_B,
    BranchingQuery,
    SignedPermutation,
    Weight,
    _inversion_parity,
    check_pair,
    interlace,
    make_root_data,
    normalize_pair,
    restrict,
    sign_patterns,
)

# Not called here: perfbench's tracer and chunk marks rebind these names in
# this module, so they stay bound until the benchmark reads library counters
# instead.
from .partition import count_vector_partitions  # noqa: F401
from .weights import weyl_elements  # noqa: F401


#: root systems whose sigma is kept bound, one per (family, n)
_ROOT_SYSTEMS = 8


@lru_cache(maxsize=_ROOT_SYSTEMS)
def _sigma(family: str, n: int) -> PartitionFunction:
    """sigma's partition function for the root system of (family, n)."""
    return partition_function(make_root_data(family, n).sigma)


#: bound pairs kept by the full sum, one per (family, n, lam, mu); a verify
#: sweep asks for every k of one pair back to back.  A kept pair holds its
#: rows even after the partition cache evicts them.
_PAIRS = 64


@lru_cache(maxsize=_PAIRS)
def _pair_terms(
    family: str, n: int, lam: Weight, mu: Weight
) -> tuple[tuple[SignedPermutation, int, int, Row], ...]:
    """(omega, sign, p_last, row) for every Weyl group element omega whose
    point p, the doubled-integer restriction of omega(lam + rho) - rho, is
    >= mu on sigma's support (the n head slots): p_last is p's last
    coordinate and row sigma's ``PartitionFunction.row`` of the head target
    p_head - mu, so the term of omega at k is row[p_last - 2k].  Any other
    point has a zero term at every k."""
    rd = make_root_data(family, n)
    sigma = _sigma(family, n)
    rank = rd.g_rank
    lam_rho = (lam + rd.rho_g).coords2
    *rho_head, r_last = restrict(family, rd.rho_g).coords2
    mu2 = mu.coords2
    patterns = sign_patterns(family, rank)
    # restrict keeps coordinates, so restricting the slot numbers names the
    # ambient slot behind each restricted one; the other slots are the last
    # one, after family D's dropped slot
    *heads, _ = restrict(family, Weight(tuple(range(rank)))).coords2
    others = [s for s in range(rank) if s not in heads]
    perm = [None] * rank
    terms = []

    # omega puts coordinate i of lam + rho in slot perm[i], then negates the
    # flipped slots; restrict is linear, so p[j] = +-c - rho_head[j] on a head
    # slot j holding c.  Slot j takes each unplaced c with each sign whose
    # p[j] - mu[j] is >= 0, and a flip adds the slot's bit to the index of
    # the sign pattern (product order over the restricted slots, first slot
    # most significant)
    def place(j: int, index: int, target: tuple[int, ...]) -> None:
        if j == n:
            row = sigma.row(target)
            rest = [i for i in range(rank) if perm[i] is None]
            for order in itertools.permutations(rest):
                for i, s in zip(order, others):
                    perm[i] = s
                full = tuple(perm)
                parity = _inversion_parity(full)
                c_last = lam_rho[order[-1]]
                # the last slot is the least significant bit, and its two signs share the head
                for flip, p_last in ((0, c_last - r_last), (1, -c_last - r_last)):
                    sign, flips = patterns[index + flip]
                    terms.append((SignedPermutation(full, frozenset(flips)), parity * sign, p_last, row))
            for i in rest:
                perm[i] = None
            return
        bit = 1 << (n - j)
        for i, c in enumerate(lam_rho):
            if perm[i] is None:
                perm[i] = heads[j]
                for flip, p in ((0, c), (bit, -c)):
                    a = p - rho_head[j] - mu2[j]
                    if a >= 0:
                        place(j + 1, index + flip, target + (a,))
                perm[i] = None

    place(0, 0, ())
    return tuple(terms)


def kostant_terms(q: BranchingQuery) -> Iterator[tuple[SignedPermutation, int, int]]:
    """Yield (omega, sign, partition count) for every Weyl group element
    whose term in the alternating sum is non-zero, read off the bound terms
    of q's (lam, mu) at the last coordinate p_last - 2k."""
    k2 = 2 * q.k
    for omega, sign, p_last, row in _pair_terms(q.family, q.n, q.lam, q.mu):
        value = row[p_last - k2]
        if value:
            yield omega, sign, value


def multiplicity_kostant_full(q: BranchingQuery) -> int:
    """Kostant's full alternating Weyl sum, evaluated exactly, with no
    pruning beyond the partition function's own zero tests: a point whose
    head target is negative on a coordinate where every generator is >= 0
    has a zero term at every k, so the pair's binding drops it."""
    total = sum(sign * value for _, sign, value in kostant_terms(q))
    if total < 0:
        raise InternalInconsistencyError(
            f"negative alternating sum {total} for {q}"
        )
    return total


def reduced_pair(family: str, n: int, lam: Weight, mu: Weight):
    """k -> the reduced sum of (lam, mu) after tilde-normalization: a two-term
    difference for family B, a four-term signed sum for family D.  Every term
    has the same head target, so the pair binds sigma's
    ``PartitionFunction.row`` of that head once, and per term (sign, last
    coordinate at k = 0, step per unit of k), the term at k being
    row[last + step * k].  Raises InterlacingError where mu does not simply
    interlace lam."""
    check_pair(family, n, lam, mu)
    top, sub = normalize_pair(family, lam, mu)
    if not interlace("simple", family, top, sub):
        raise InterlacingError(top, sub, family)
    *head, last = (restrict(family, top) - Weight(sub.coords2 + (0,))).coords2
    if family == FAMILY_B:
        terms = ((1, last, -2), (-1, last + 2, 2))
    else:
        l = top.to_ints()
        lam_second_last, lam_last = l[n], l[n + 1]
        terms = (
            (1, last, -2),
            (1, last - 4 * lam_last, -2),
            (-1, last + 2 * (lam_second_last - lam_last + 1), -2),
            (-1, last - 2 * (lam_second_last + lam_last + 1), -2),
        )
    row = _sigma(family, n).row(tuple(head))

    def read(k: int) -> int:
        total = 0
        for sign, last, step in terms:
            total += sign * row[last + step * k]
        if total < 0:
            raise InternalInconsistencyError(
                f"negative reduced sum {total} for {BranchingQuery(family, n, lam, mu, k)}"
            )
        return total

    return read


def multiplicity_kostant_reduced(q: BranchingQuery) -> int:
    """The reduced sum of q's pair at q.k (``reduced_pair``)."""
    return reduced_pair(q.family, q.n, q.lam, q.mu)(q.k)
