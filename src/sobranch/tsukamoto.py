"""Tsukamoto's implicit branching law via exact Laurent-polynomial
generating functions.

For each admissible tuple a_0 >= a_1 >= ... >= a_n of summation parameters
the generating function contributes a product of quantum brackets [l] =
x^{l-1} + x^{l-3} + ... + x^{-(l-1)} times one antisymmetric two-term factor
with half-integral exponent; the branching multiplicity of the SO(3) label k
is the coefficient of x^{k+1/2} of the total.  Bracket j reads only a_{j-1}
and a_j, and the two-term factor only a_n, so the sum is a transfer over the
a-tuple boxes: each value of a_j keeps the bracket products of the partial
tuples ending there, summed into a dense coefficient list, and a step
multiplies it by [l] (width-l window sums off prefix sums) into every value
of the next box.  That is sum_j |box_j| |box_j+1| steps, where enumerating
takes one per tuple, the product of the box sizes; ``enumerate_atuples``
lists the tuples from the same boxes and brackets.

The series of a pair (lam, mu) carries every label k at once, so
``multiplicity_tsukamoto`` reads k off a whole row k -> m_k that
``_pair_row`` binds once per pair into a bounded LRU, like both Kostant
sums; every pair, a family D lam with a negative last coordinate included,
is built from its own boxes, and an empty box alone makes a series zero.  A
pair whose series is zero keeps an empty row, and a pair that raises is not
kept (it raises again on the next call).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from operator import add, sub

from .errors import DomainError, InternalInconsistencyError, MalformedSeriesError
from .weights import FAMILY_B, BranchingQuery, IntMap, Weight, check_pair


class LaurentPoly(IntMap):
    """Integer-coefficient Laurent polynomial in one variable, allowing
    half-integer exponents (stored doubled): a map exponent -> coefficient."""

    __slots__ = ()
    _sep, _brackets, _empty = " + ", "{}", "0"

    @staticmethod
    def _check(e2, c) -> None:
        if type(e2) is not int:
            raise DomainError(f"exponent {e2!r} must be an integer")

    @staticmethod
    def _item(e2: int, c: int) -> str:
        return f"{c}*x^{e2 // 2}" if e2 % 2 == 0 else f"{c}*x^{e2}/2"


class ATuple(namedtuple("ATuple", "a l2")):
    """One admissible parameter tuple with its quantum-bracket arguments.

    ``a`` is weakly decreasing with a[-1] >= 0 inside the box constraints of
    the relevant family; ``l2`` holds the doubled bracket arguments, the
    first len(a) of them even and >= 2, the final one odd and >= 1 (these
    bounds are forced by the boxes and asserted at every step).
    """

    __slots__ = ()


def _boxes(lows1, lows2, highs1, highs2) -> list[range]:
    """The boxes max(lows1[i], lows2[i]) <= a_i <= min(highs1[i], highs2[i])
    of even doubled coordinates, up to the first empty one (a low above its
    high), after which no bound is read.  Both families' boxes are stacked,
    each below the one before it (low(a_{i-1}) >= mu_{i-1} >= high(a_i)
    under family B, with mu_0 = lam_1, and low(a_{i-1}) >= lam_i >=
    high(a_i) under family D), so every tuple in them is weakly
    decreasing."""
    boxes = []
    for p, q, r, s in zip(lows1, lows2, highs1, highs2):
        lo, hi = p if p > q else q, r if r < s else s  # max and min cost a call each
        boxes.append(range(lo, hi + 1, 2))
        if lo > hi:
            break
    return boxes


def _chain(family: str, lam: tuple[int, ...], mu: tuple[int, ...]):
    """(boxes, c) for the pair, in doubled coordinates: the tuples are a_0 >=
    ... >= a_n with a_j in boxes[j]; bracket j (1 <= j <= n) is
    ``_head(c[j-1], c[j], a_{j-1}, a_j)`` and the two-term factor
    ``_tail(c[n], a_n)``."""
    head = lam[:1]
    if family == FAMILY_B:
        # a_0 = lam_1 (not in ATuple.a), then box i: max(mu_i, lam_{i+2}) <=
        # a_i <= min(mu_{i-1}, lam_i), |mu_n| for mu_n; c is lam
        m = mu[:-1]
        return _boxes(head + m + (abs(mu[-1]),), lam[1:] + (0,), head * 2 + m, head + lam[:-1]), lam
    # box i (1 <= i <= n + 1, boxes[i - 1]): max(mu_i, lam_{i+1}) <= a_i <=
    # min(mu_{i-2}, lam_i), |lam_{n+2}| for mu_{n+1} and mu_0 = mu_{-1} =
    # lam_1; c is (mu_0, mu_1, ..., mu_n)
    return _boxes(mu + (abs(lam[-1]),), lam[1:], head * 2 + mu[:-1], lam[:-1]), head + mu


def _head(hi: int, lo: int, prev: int, cur: int) -> int:
    """Doubled argument of the bracket [min(hi, prev) - max(lo, cur) + 1]
    between consecutive parameters prev >= cur."""
    l2 = (hi if hi < prev else prev) - (lo if lo > cur else cur) + 2
    if cur > prev or l2 < 2 or l2 & 1:
        raise InternalInconsistencyError(f"doubled step {prev} -> {cur} gives doubled bracket {l2}")
    return l2


def _tail(hi: int, a: int) -> int:
    """Doubled argument of the two-term factor after the last parameter a."""
    l2 = (hi if hi < a else a) + 1
    if a < 0 or l2 < 1 or not l2 & 1:
        raise InternalInconsistencyError(f"doubled last parameter {a} gives doubled factor {l2}")
    return l2


def enumerate_atuples(family: str, lam: Weight, mu: Weight) -> tuple[ATuple, ...]:
    """All admissible parameter tuples for the given highest-weight pair;
    a pair that fails ``check_pair`` (n the rank of mu) raises DomainError."""
    check_pair(family, mu.rank, lam, mu)
    boxes, c = _chain(family, lam.coords2, mu.coords2)
    return tuple(
        ATuple(tuple([v >> 1 for v in (a[1:] if family == FAMILY_B else a)]),
               tuple([*map(_head, c, c[1:], a, a[1:]), _tail(c[-1], a[-1])]))
        for a in itertools.product(*boxes)
    )


def _times_bracket(s: list[int], l: int) -> list[int]:
    """The coefficient list s (step 2 in the exponent, centred on 0) times
    [l]: each new coefficient is the sum of a window of l old ones, read
    off the prefix sums of s padded with l - 1 zeros on both sides."""
    if len(s) == 1:
        return s * l
    pad = [0] * (l - 1)
    prefix = [*itertools.accumulate(pad + s + pad, initial=0)]
    return [*map(sub, prefix[l:], prefix)]


def _add_centred(p: list[int], q: list[int]) -> list[int]:
    """The sum of two coefficient lists centred on 0 whose lengths have the
    same parity."""
    if len(p) < len(q):
        p, q = q, p
    i = (len(p) - len(q)) >> 1
    return [*p[:i], *map(add, p[i:i + len(q)], q), *p[i + len(q):]]


def tsukamoto_generating_function(family: str, lam: Weight, mu: Weight) -> LaurentPoly:
    """Sum over admissible tuples of prod_i [l_i] times the final two-term
    factor x^(l/2) - x^(-l/2); the zero polynomial where there is no
    admissible tuple.  The a-tuple boxes alone decide that: no interlacing
    test is taken, so the vanishing pattern (triple interlacing) is a result
    the sweeps check, not an input.  An invalid pair raises DomainError.

    ``states`` holds (a, s) for each value a of the current box: s sums the
    bracket products of the partial tuples ending at a, s[j] the coefficient
    of x^(len(s) - 1 - 2j).  The partial tuples' degrees differ in parity, so
    each a keeps up to two lists, one per parity of len(s)."""
    check_pair(family, mu.rank, lam, mu)
    boxes, c = _chain(family, lam.coords2, mu.coords2)
    if not boxes[-1]:  # an empty box admits no tuple
        return LaurentPoly()
    states = [(a, [1]) for a in boxes[0]]
    for hi, lo, box in zip(c, c[1:], boxes[1:]):
        nxt = []
        for cur in box:
            odd = even = None
            for prev, s in states:
                l = _head(hi, lo, prev, cur) >> 1
                if l > 1:  # [1] is the identity; no list is changed once made
                    s = _times_bracket(s, l)
                if len(s) & 1:
                    odd = s if odd is None else _add_centred(odd, s)
                else:
                    even = s if even is None else _add_centred(even, s)
            if odd is not None:
                nxt.append((cur, odd))
            if even is not None:
                nxt.append((cur, even))
        states = nxt
    total: dict[int, int] = {}
    for a, s in states:
        last, e2 = _tail(c[-1], a), 2 * len(s) - 2  # e2: the doubled exponent of s[0]
        for cj in s:
            total[e2 + last] = total.get(e2 + last, 0) + cj
            total[e2 - last] = total.get(e2 - last, 0) - cj
            e2 -= 4
    return LaurentPoly(total)


def extract_multiplicities(p: LaurentPoly) -> dict[int, int]:
    """Read off k -> m_k from an antisymmetric series with exclusively
    half-integral exponents: m_k is the coefficient of x^(k+1/2).  The terms
    are read in the series' own order, not sorted."""
    out: dict[int, int] = {}
    for e2, c in p._data.items():
        if e2 % 2 == 0:
            raise MalformedSeriesError(f"integral exponent {e2 // 2} present")
        if p.get(-e2) != -c:
            raise MalformedSeriesError("series is not antisymmetric under negation")
        if e2 > 0:
            if c < 0:
                raise MalformedSeriesError(f"negative multiplicity {c} at exponent {e2}/2")
            out[(e2 - 1) // 2] = c
    return out


#: pairs whose rows are kept.  The walk sends every k of one pair back to
#: back, so one entry would serve it; 128 leaves room for callers that
#: interleave pairs
_PAIR_ROWS = 128


@lru_cache(maxsize=_PAIR_ROWS)
def _pair_row(family: str, lam: Weight, mu: Weight) -> dict[int, int]:
    """k -> m_k for the pair (lam, mu), negative last coordinates included."""
    return extract_multiplicities(tsukamoto_generating_function(family, lam, mu))


def multiplicity_tsukamoto(q: BranchingQuery) -> int:
    """Branching multiplicity read off the generating function."""
    return _pair_row(q.family, q.lam, q.mu).get(q.k, 0)
