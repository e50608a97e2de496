"""Tsukamoto's implicit branching law via exact Laurent-polynomial
generating functions.

For each admissible tuple of summation parameters the generating function
contributes a product of quantum brackets [l] = x^{l-1} + x^{l-3} + ... +
x^{-(l-1)} times one antisymmetric two-term factor with half-integral
exponent; the branching multiplicity of the SO(3) label k is the
coefficient of x^{k+1/2} of the total.

The series of a pair (lam, mu) carries every label k at once, so
``multiplicity_tsukamoto`` reads k off a whole row k -> m_k that is built
once per (family, lam, mu).  ``_row`` keeps the rows of the last two lam
(after tilde-normalization), which covers a family D sweep meeting lam and
its tilde partner back to back.  The store is bounded by the mus queried
with those two lam, not by ``_ROWS``: a pair whose series is zero keeps an
empty row, and a pair that raises is not kept (it raises again on the next
call).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import DomainError, InternalInconsistencyError, MalformedSeriesError
from .weights import FAMILY_B, FAMILY_D, BranchingQuery, Weight, check_pair, interlace


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable, allowing
    half-integer exponents (stored doubled).  Immutable; zero coefficients
    are never stored."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else (coeffs or ())
        for e2, c in items:
            if not isinstance(e2, int) or not isinstance(c, int):
                raise DomainError("exponents and coefficients must be integers")
            if c:
                data[e2] = data.get(e2, 0) + c
                if not data[e2]:
                    del data[e2]
        self._coeffs = data

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

    def coeff(self, exp2: int) -> int:
        return self._coeffs.get(exp2, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e2, c in other._coeffs.items():
            out[e2] = out.get(e2, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e2: -c for e2, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e2, c in self._coeffs.items():
            for f2, d in other._coeffs.items():
                key = e2 + f2
                out[key] = out.get(key, 0) + c * d
        return LaurentPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e2, c in self.items():
            e = str(e2 // 2) if e2 % 2 == 0 else f"{e2}/2"
            parts.append(f"{c}*x^{e}")
        return " + ".join(parts)


def quantum_bracket(l: int) -> LaurentPoly:
    """[l] = (x^l - x^-l)/(x - x^-1) = x^(l-1) + x^(l-3) + ... + x^-(l-1),
    for integer l >= 1; l terms, all coefficients one."""
    if not isinstance(l, int) or l < 1:
        raise DomainError(f"quantum_bracket needs an integer l >= 1, got {l!r}")
    return LaurentPoly({e2: 1 for e2 in range(-2 * (l - 1), 2 * (l - 1) + 1, 4)})


def _pair(l2: int) -> LaurentPoly:
    """x^(l2/2) - x^(-l2/2)."""
    return LaurentPoly({l2: 1, -l2: -1})


@dataclass(frozen=True)
class ATuple:
    """One admissible parameter tuple with its quantum-bracket arguments.

    ``a`` is weakly decreasing with a[-1] >= 0 inside the box constraints of
    the relevant family; ``l2`` holds the doubled bracket arguments, the
    first len(a) of them even and >= 2, the final one odd and >= 1 (these
    bounds are forced by the boxes and asserted during enumeration).
    """

    a: tuple[int, ...]
    l2: tuple[int, ...]


def _check_atuple(a: tuple[int, ...], l2: tuple[int, ...]) -> ATuple:
    if any(a[i] < a[i + 1] for i in range(len(a) - 1)) or a[-1] < 0:
        raise InternalInconsistencyError(f"enumerated tuple {a} is not admissible")
    if any(v < 2 or v % 2 for v in l2[:-1]) or l2[-1] < 1 or l2[-1] % 2 == 0:
        raise InternalInconsistencyError(f"bracket arguments {l2} out of range for {a}")
    return ATuple(a, l2)


def _boxes_to_tuples(lows, highs) -> Iterator[tuple[int, ...]]:
    n = len(lows)

    def rec(i: int, prev: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield acc
            return
        for v in range(lows[i], min(highs[i], prev) + 1):
            yield from rec(i + 1, v, acc + (v,))

    yield from rec(0, max(highs, default=0), ())


def _atuples_B(lam: tuple[int, ...], mu: tuple[int, ...]) -> Iterator[ATuple]:
    n = len(mu)
    l1 = {i + 1: v for i, v in enumerate(lam)}
    l1[n + 2] = l1[n + 3] = 0
    m1 = {i + 1: v for i, v in enumerate(mu)}
    m1[0] = l1[1]
    lows = [max(m1[i], l1[i + 2]) for i in range(1, n)]
    highs = [min(m1[i - 1], l1[i]) for i in range(1, n)]
    lows.append(max(abs(m1[n]), l1[n + 2]))
    highs.append(min(m1[n - 1], l1[n]))
    for a in _boxes_to_tuples(lows, highs):
        a1 = {i + 1: v for i, v in enumerate(a)}
        a1[0] = l1[1]
        l2 = []
        for i in range(1, n + 1):
            l2.append(2 * (min(l1[i], a1[i - 1]) - max(l1[i + 1], a1[i]) + 1))
        l2.append(2 * min(l1[n + 1], a1[n]) + 1)
        yield _check_atuple(a, tuple(l2))


def _atuples_D(lam: tuple[int, ...], mu: tuple[int, ...]) -> Iterator[ATuple]:
    n = len(mu)
    l1 = {i + 1: v for i, v in enumerate(lam)}
    l1[n + 3] = 0
    m1 = {i + 1: v for i, v in enumerate(mu)}
    m1[0] = m1[-1] = l1[1]
    m1[n + 1] = 0
    lows = [max(m1[i], l1[i + 1]) for i in range(1, n + 1)]
    highs = [min(m1[i - 2], l1[i]) for i in range(1, n + 1)]
    lows.append(abs(l1[n + 2]))
    highs.append(min(m1[n - 1], l1[n + 1]))
    for a in _boxes_to_tuples(lows, highs):
        a1 = {i + 1: v for i, v in enumerate(a)}
        l2 = []
        for i in range(1, n + 1):
            l2.append(2 * (min(m1[i - 1], a1[i]) - max(m1[i], a1[i + 1]) + 1))
        l2.append(2 * min(m1[n], a1[n + 1]) + 1)
        yield _check_atuple(a, tuple(l2))


def enumerate_atuples(family: str, lam: Weight, mu: Weight) -> tuple[ATuple, ...]:
    """All admissible parameter tuples for the given highest-weight pair;
    a pair that fails ``check_pair`` (n the rank of mu) raises DomainError."""
    check_pair(family, mu.rank, lam, mu)
    if family == FAMILY_B:
        return tuple(_atuples_B(lam.to_ints(), mu.to_ints()))
    return tuple(_atuples_D(lam.to_ints(), mu.to_ints()))


def tsukamoto_generating_function(family: str, lam: Weight, mu: Weight) -> LaurentPoly:
    """Sum over admissible tuples of prod_i [l_i] times the final two-term
    factor.  Returns the zero polynomial when triple interlacing fails, in
    which case no SO(3) component occurs at all; ``interlace`` rejects an
    invalid pair with DomainError."""
    if not interlace("triple", family, lam, mu):
        return LaurentPoly.zero()
    total = LaurentPoly.zero()
    for at in enumerate_atuples(family, lam, mu):
        term = _pair(at.l2[-1])
        for l2 in at.l2[:-1]:
            term = term * quantum_bracket(l2 // 2)
        total = total + term
    return total


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


#: lam whose rows are kept; a verify sweep walks one lam at a time through
#: all its (mu, k), and under family D meets lam and tilde(lam) back to back
_ROWS = 2


@lru_cache(maxsize=_ROWS)
def _row(family: str, lam: Weight) -> dict[Weight, dict[int, int]]:
    """mu -> (k -> m_k) for every mu queried with lam so far, so it grows
    with those mus; filled by ``multiplicity_tsukamoto`` (two threads may
    both build a row; they store equal ones)."""
    return {}


def multiplicity_tsukamoto(q: BranchingQuery) -> int:
    """Branching multiplicity read off the generating function.  Family D
    queries are tilde-normalized first; family B handles a negative last
    coordinate of mu directly."""
    if q.family == FAMILY_D:
        q = q.normalized()
    rows = _row(q.family, q.lam)
    if q.mu not in rows:
        rows[q.mu] = extract_multiplicities(tsukamoto_generating_function(q.family, q.lam, q.mu))
    return rows[q.mu].get(q.k, 0)
