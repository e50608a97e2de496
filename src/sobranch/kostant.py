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
  for the coordinate c of lam + rho in slot j, so that asks |c| >= rho[j] +
  mu[j]: ``_placements`` puts lam + rho's coordinates into the head slots
  one slot at a time and drops a partial placement as soon as a slot's need
  is not met, and each slot's two signs are filtered by p[j] >= mu[j]
  before the product over slots.  Each sign pattern is read off
  ``weights.sign_patterns`` by its index in the order that function
  guarantees, and the sign from the inversion parity and flip count.  The
  build grows with the kept terms, not with |W| or the (n+1)!
  permutations: 4 terms for lam = (9, ..., 9) and mu = (9, ..., 9) at
  family D, n = 7, where 725,760 points are >= 0 on the head.
* Bound evaluator.  Both paths count with sigma's ``PartitionFunction``:
  its generators are validated and sorted, and phi and the support found,
  once per root system (``_sigma``), not once per pair or partition count.
* Whole row.  ``_pair_terms`` binds the terms of one (lam, mu) pair for
  every k into a small LRU: its placement, and per kept head sigma's
  ``PartitionFunction.row`` of the head target p_head - mu, the counts by
  last coordinate, shared by the last slot's two signs.  ``kostant_terms``
  then reads each term at k as one row lookup at p_last - 2k; a row is 0
  past its span, so the walk needs no cut-off by phi.  A verify sweep asks
  for every k of a pair back to back, so each pair is bound once.

The reduced sum is bound the same way, per pair in an LRU of the same size
(``_reduced_terms``): all its terms share one head target, so it holds one
row, and ``reduced_pair`` reads each term at k off it.  A pair that does
not simply interlace is bound too, to its error message, so an n/a pair
costs one lookup.  Both paths count partitions only through rows.
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
    interlace,
    make_root_data,
    restrict,
    sign_patterns,
)

# Not called here: perfbench's tracer and chunk marks rebind these names in
# this module, so they stay bound until the benchmark reads library counters
# instead.
from .partition import count_vector_partitions  # noqa: F401
from .weights import weyl_elements  # noqa: F401


def _placements(values: tuple[int, ...], needs: dict[int, int]) -> Iterator[tuple[int, ...]]:
    """Every permutation perm (coordinate i goes to slot perm[i]) that puts
    into each slot s of ``needs`` a coordinate with |values[i]| >= needs[s].
    The slots of ``needs`` are filled first, one at a time in their order,
    and a partial placement ends as soon as the next one has no candidate;
    the other coordinates then fill the other slots in every order."""
    rank = len(values)
    needy = list(needs)
    free = [s for s in range(rank) if s not in needs]

    def fill(chosen: list[int]) -> Iterator[tuple[int, ...]]:
        if len(chosen) == len(needy):
            rest = [i for i in range(rank) if i not in chosen]
            for order in itertools.permutations(rest):
                perm = [0] * rank
                for i, s in zip(chosen, needy):
                    perm[i] = s
                for i, s in zip(order, free):
                    perm[i] = s
                yield tuple(perm)
            return
        need = needs[needy[len(chosen)]]
        for i in range(rank):
            if i not in chosen and abs(values[i]) >= need:
                yield from fill(chosen + [i])

    return fill([])


#: root systems whose sigma is kept bound, one per (family, n)
_ROOT_SYSTEMS = 8


@lru_cache(maxsize=_ROOT_SYSTEMS)
def _sigma(family: str, n: int) -> PartitionFunction:
    """sigma's partition function for the root system of (family, n)."""
    return partition_function(make_root_data(family, n).sigma)


#: bound pairs kept by each of the full and the reduced sum, one per
#: (family, n, lam, mu); a verify sweep asks for every k of one pair back to
#: back.  A kept pair holds its rows even after the partition cache evicts
#: them.
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
    rho_bar = restrict(family, rd.rho_g).coords2
    mu2 = mu.coords2
    patterns = sign_patterns(family, rank)
    # a slot's flip adds this to the index of its sign pattern: product order
    # over the restricted slots, first slot most significant
    bits = [1 << j for j in reversed(range(len(rho_bar)))]
    # restrict keeps coordinates, so restricting the slot numbers names the
    # ambient slot behind each restricted one
    kept = restrict(family, Weight(tuple(range(rank)))).coords2
    # p[j] = +-c - rho_bar[j] on a head slot holding c, and some sign reaches
    # mu[j] only if |c| >= rho_bar[j] + mu[j]; mu has no last slot, so the
    # zips here and below are over the head
    needs = {kept[j]: r + m for j, (r, m) in enumerate(zip(rho_bar, mu2)) if r + m > 0}
    r_last = rho_bar[-1]
    terms = []
    for perm in _placements(lam_rho, needs):
        parity = _inversion_parity(perm)
        # omega puts coordinate i of lam + rho in slot perm[i], then negates
        # the flipped slots; restrict is linear, so p is the restricted
        # signed image minus the restriction of rho
        image = [0] * rank
        for i, j in enumerate(perm):
            image[j] = lam_rho[i]
        *head, c_last = [image[j] for j in kept]
        # each head slot's (flip bit, p[j] - mu[j]) choices, unflipped first,
        # kept where p[j] >= mu[j]
        choices = [
            [(flip, a - m) for flip, a in ((0, c - r), (bit, -c - r)) if a >= m]
            for c, r, m, bit in zip(head, rho_bar, mu2, bits)
        ]
        for combo in itertools.product(*choices):
            row = sigma.row(tuple(t for _, t in combo))
            index = sum(flip for flip, _ in combo)
            # the last slot is the least significant bit, and its two signs share the head
            for flip, p_last in ((0, c_last - r_last), (1, -c_last - r_last)):
                sign, flips = patterns[index + flip]
                terms.append((SignedPermutation(perm, frozenset(flips)), parity * sign, p_last, row))
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


@lru_cache(maxsize=_PAIRS)
def _reduced_terms(
    family: str, n: int, lam: Weight, mu: Weight
) -> tuple[Row, tuple[tuple[int, int, int], ...]] | str:
    """The reduced sum of one (lam, mu) pair for every k, after
    tilde-normalization: a two-term difference for family B, a four-term
    signed sum for family D.  Every term has the same head target, so the
    binding is sigma's ``PartitionFunction.row`` of that head and per term
    (sign, last coordinate at k = 0, step per unit of k), the term at k
    being row[last + step * k].  Where mu does not simply interlace lam it
    is the InterlacingError message instead, formatted once."""
    q = BranchingQuery(family, n, lam, mu, 0).normalized()
    if not interlace("simple", q.family, q.lam, q.mu):
        return f"mu={q.mu} does not simply interlace lam={q.lam} (family {q.family})"
    *head, last = (restrict(q.family, q.lam) - Weight(q.mu.coords2 + (0,))).coords2
    if q.family == FAMILY_B:
        terms = ((1, last, -2), (-1, last + 2, 2))
    else:
        l = q.lam.to_ints()
        lam_second_last, lam_last = l[q.n], l[q.n + 1]
        terms = (
            (1, last, -2),
            (1, last - 4 * lam_last, -2),
            (-1, last + 2 * (lam_second_last - lam_last + 1), -2),
            (-1, last - 2 * (lam_second_last + lam_last + 1), -2),
        )
    return _sigma(q.family, q.n).row(tuple(head)), terms


def reduced_pair(family: str, n: int, lam: Weight, mu: Weight):
    """k -> the reduced sum of (lam, mu), read off the pair's binding.  Raises
    InterlacingError where mu does not simply interlace lam (after tilde-normalization)."""
    bound = _reduced_terms(family, n, lam, mu)
    if isinstance(bound, str):
        raise InterlacingError(bound)
    row, terms = bound

    def read(k: int) -> int:
        total = sum(sign * row[last + step * k] for sign, last, step in terms)
        if total < 0:
            q = BranchingQuery(family, n, lam, mu, k)
            raise InternalInconsistencyError(f"negative reduced sum {total} for {q}")
        return total

    return read


def multiplicity_kostant_reduced(q: BranchingQuery) -> int:
    """The reduced sum of q's pair at q.k (``reduced_pair``)."""
    return reduced_pair(q.family, q.n, q.lam, q.mu)(q.k)
