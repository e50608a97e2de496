"""Tsukamoto's implicit branching law via exact Laurent-polynomial
generating functions.

For each admissible tuple of summation parameters the generating function
contributes a product of quantum brackets [l] = x^{l-1} + x^{l-3} + ... +
x^{-(l-1)} times one antisymmetric two-term factor with half-integral
exponent; the branching multiplicity of the SO(3) label k is the
coefficient of x^{k+1/2} of the total.  A product of brackets is kept as a
dense coefficient list, and multiplying it by [l] replaces each coefficient
by the sum of a window of l of them, read off prefix sums.  The product
commutes, so it is memoised by the sorted (doubled) bracket arguments: a
sweep meets few distinct ones.  Every tuple's terms go into one dict, made a
``LaurentPoly`` once per series.

The series of a pair (lam, mu) carries every label k at once, so
``multiplicity_tsukamoto`` reads k off a whole row k -> m_k that
``_pair_row`` binds once per pair into a bounded LRU, like both Kostant
sums; every pair, a family D lam with a negative last coordinate included,
is built from its own a-tuples, and their boxes alone make a series zero.  A
pair whose series is zero keeps an empty row, and a pair that raises is not
kept (it raises again on the next call).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from typing import Iterator

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

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp2: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * x^(exp2/2)."""
        return cls({exp2: coeff})

    coeff = IntMap.get

    @property
    def is_zero(self) -> bool:
        return not self._data

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly([*self._data.items(), *other._data.items()])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e2: -c for e2, c in self._data.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly([(e2 + f2, c * d) for e2, c in self._data.items()
                            for f2, d in other._data.items()])


def quantum_bracket(l: int) -> LaurentPoly:
    """[l] = (x^l - x^-l)/(x - x^-1) = x^(l-1) + x^(l-3) + ... + x^-(l-1),
    for integer l >= 1; l terms, all coefficients one."""
    if type(l) is not int or l < 1:
        raise DomainError(f"quantum_bracket needs an integer l >= 1, got {l!r}")
    return LaurentPoly({e2: 1 for e2 in range(-2 * (l - 1), 2 * (l - 1) + 1, 4)})


class ATuple(namedtuple("ATuple", "a l2")):
    """One admissible parameter tuple with its quantum-bracket arguments.

    ``a`` is weakly decreasing with a[-1] >= 0 inside the box constraints of
    the relevant family; ``l2`` holds the doubled bracket arguments, the
    first len(a) of them even and >= 2, the final one odd and >= 1 (these
    bounds are forced by the boxes and asserted during enumeration).
    """

    __slots__ = ()


def _check_atuple(a: tuple[int, ...], l2: tuple[int, ...]) -> ATuple:
    if any(a[i] < a[i + 1] for i in range(len(a) - 1)) or a[-1] < 0:
        raise InternalInconsistencyError(f"enumerated tuple {a} is not admissible")
    if any(v < 2 or v % 2 for v in l2[:-1]) or l2[-1] < 1 or l2[-1] % 2 == 0:
        raise InternalInconsistencyError(f"bracket arguments {l2} out of range for {a}")
    return ATuple(a, l2)


def _boxes_to_tuples(lows1, lows2, highs1, highs2) -> list[tuple[int, ...]]:
    """Every tuple of even doubled coordinates with max(lows1[i], lows2[i])
    <= a[i] <= min(highs1[i], highs2[i]); none at the first empty box (a low
    above its high), before any product is taken.  Both families' boxes are
    stacked, each below the one before it (low(a_{i-1}) >= mu_{i-1} >=
    high(a_i) under family B, low(a_{i-1}) >= lam_i >= high(a_i) under family
    D), so every such tuple is weakly decreasing."""
    boxes = []
    for p, q, r, s in zip(lows1, lows2, highs1, highs2):
        lo, hi = p if p > q else q, r if r < s else s  # max and min cost a call each
        if lo > hi:
            return []
        boxes.append(range(lo, hi + 1, 2))
    return list(itertools.product(*boxes))


def _atuples_B(lam: tuple[int, ...], mu: tuple[int, ...]) -> Iterator[ATuple]:
    # lam, mu and every box, A and a below are doubled coordinates
    n = len(mu)
    L = lam + (0, 0)  # L[i - 1] is lam_i, 1 <= i <= n + 3
    M = lam[:1] + mu  # M[i] is mu_i, with mu_0 = lam_1
    # box i: max(mu_i, lam_i+2) <= a_i <= min(mu_i-1, lam_i), |mu_n| for mu_n
    for a in _boxes_to_tuples(mu[:-1] + (abs(mu[-1]),), L[2:n + 2], M[:n], L[:n]):
        A = lam[:1] + a  # A[i] is a_i, with a_0 = lam_1
        l2 = [min(L[i - 1], A[i - 1]) - max(L[i], A[i]) + 2 for i in range(1, n + 1)]
        yield _check_atuple(tuple([v >> 1 for v in a]), tuple(l2) + (min(L[n], A[n]) + 1,))


def _atuples_D(lam: tuple[int, ...], mu: tuple[int, ...]) -> Iterator[ATuple]:
    # lam, mu and every box and a below are doubled coordinates
    n = len(mu)
    L = lam + (0,)  # L[i - 1] is lam_i, 1 <= i <= n + 3
    M = lam[:1] * 2 + mu + (0,)  # M[i + 1] is mu_i, with mu_0 = mu_-1 = lam_1, mu_n+1 = 0
    # box i: max(mu_i, lam_i+1) <= a_i <= min(mu_i-2, lam_i), |lam_n+2| for mu_n+1
    for a in _boxes_to_tuples(mu + (abs(L[n + 1]),), L[1:n + 2], M[:n + 1], L[:n + 1]):
        # a[i - 1] is a_i, 1 <= i <= n + 1
        l2 = [min(M[i], a[i - 1]) - max(M[i + 1], a[i]) + 2 for i in range(1, n + 1)]
        yield _check_atuple(tuple([v >> 1 for v in a]), tuple(l2) + (min(M[n + 1], a[n]) + 1,))


def enumerate_atuples(family: str, lam: Weight, mu: Weight) -> tuple[ATuple, ...]:
    """All admissible parameter tuples for the given highest-weight pair;
    a pair that fails ``check_pair`` (n the rank of mu) raises DomainError."""
    check_pair(family, mu.rank, lam, mu)
    if family == FAMILY_B:
        return tuple(_atuples_B(lam.coords2, mu.coords2))
    return tuple(_atuples_D(lam.coords2, mu.coords2))


#: bracket products kept, one per sorted tuple of doubled bracket
#: arguments; the verify sweeps of B and D up to n = 4, max = 3 meet at most
#: 7, and B n = 3, max = 5 meets 16
_BRACKET_PRODUCTS = 32


@lru_cache(maxsize=_BRACKET_PRODUCTS)
def _bracket_product(l2s: tuple[int, ...]) -> tuple[int, ...]:
    """prod_i [l_i] for the doubled arguments l2s = (2 l_1, 2 l_2, ...), as its
    coefficient tuple c, c[j] the coefficient of x^(d - 2j) with d = sum_i
    (l_i - 1).  Multiplying by [l] makes each new coefficient the sum of a
    window of l old ones, taken off prefix sums."""
    c = [1]
    for l in (l2 // 2 for l2 in l2s):
        prefix = list(itertools.accumulate(c, initial=0))
        width = len(c)
        c = [prefix[min(j + 1, width)] - prefix[max(j + 1 - l, 0)] for j in range(width + l - 1)]
    return tuple(c)


def tsukamoto_generating_function(family: str, lam: Weight, mu: Weight) -> LaurentPoly:
    """Sum over admissible tuples of prod_i [l_i] times the final two-term
    factor x^(l/2) - x^(-l/2); the zero polynomial where there is no
    admissible tuple.  The a-tuple boxes alone decide that: no interlacing
    test is taken, so the vanishing pattern (triple interlacing) is a result
    the sweeps check, not an input.  ``enumerate_atuples`` rejects an
    invalid pair with DomainError."""
    total: dict[int, int] = {}
    for at in enumerate_atuples(family, lam, mu):
        c = _bracket_product(tuple(sorted(at.l2[:-1])))
        top, last = 2 * (len(c) - 1), at.l2[-1]
        for j, cj in enumerate(c):
            e2 = top - 4 * j  # doubled exponent of c[j]
            total[e2 + last] = total.get(e2 + last, 0) + cj
            total[e2 - last] = total.get(e2 - last, 0) - cj
    return LaurentPoly(total)


def extract_multiplicities(p: LaurentPoly) -> dict[int, int]:
    """Read off k -> m_k from an antisymmetric series with exclusively
    half-integral exponents: m_k is the coefficient of x^(k+1/2)."""
    out: dict[int, int] = {}
    for e2, c in p.items():
        if e2 % 2 == 0:
            raise MalformedSeriesError(f"integral exponent {e2 // 2} present")
        if p.coeff(-e2) != -c:
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
