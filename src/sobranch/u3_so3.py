"""Branching from U(3) to SO(3), and the prescribed-highest-weight-end
decompositions that reduce to it.

Two independent routes again: a closed seven-case piecewise formula in the
differences p = a1-a3, q = a2-a3, and a Gelfand-Tsetlin oracle that counts
torus characters and strips SO(3) character strings greedily from the top.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterable

from .clebsch_gordan import So3MultiSet, so3_tensor_decompose
from .errors import (
    CoincidencePatternError,
    DomainError,
    InternalInconsistencyError,
)
from .weights import FAMILY_B, FAMILY_D, Weight, _check_k, check_pair


class U3Weight(namedtuple("U3Weight", "a1 a2 a3")):
    """A dominant U(3) highest weight: three weakly decreasing integers."""

    __slots__ = ()

    def __new__(cls, a1: int, a2: int, a3: int) -> "U3Weight":
        for v in (a1, a2, a3):
            if type(v) is not int:
                raise DomainError("U(3) weight coordinates must be integers")
        if not a1 >= a2 >= a3:
            raise DomainError(f"({a1},{a2},{a3}) is not weakly decreasing")
        return tuple.__new__(cls, (a1, a2, a3))

    @classmethod
    def _make(cls, fields: Iterable) -> "U3Weight":
        return cls(*fields)


def _ceil_half(x: int) -> int:
    return -(-x // 2)


def u3_to_so3_closed(lam_prime: U3Weight, k: int) -> int:
    """Multiplicity of the (2k+1)-dimensional SO(3) irreducible in the
    restriction of the U(3) irreducible, by the classical piecewise formula.

    The cases are guarded exclusively in their displayed order; overlapping
    boundaries agree (checked in the test suite, not assumed here).
    """
    _check_k(k)
    p = lam_prime.a1 - lam_prime.a3
    q = lam_prime.a2 - lam_prime.a3
    if 0 <= p <= k - 1:
        value = 0
    elif k <= p <= 2 * k and 0 <= q <= p - k:
        value = _ceil_half(p - k + 1) - _ceil_half(p - k - q)
    elif k <= p <= 2 * k and p - k <= q <= k:
        value = _ceil_half(p - k + 1)
    elif k <= p <= 2 * k and k <= q:
        value = _ceil_half(p - k + 1) - _ceil_half(q - k)
    elif 2 * k <= p and 0 <= q <= k:
        value = _ceil_half(p - k + 1) - _ceil_half(p - k - q)
    elif 2 * k <= p and k <= q <= p - k:
        value = _ceil_half(p - k + 1) - _ceil_half(p - k - q) - _ceil_half(q - k)
    elif 2 * k <= p and p - k <= q:
        value = _ceil_half(p - k + 1) - _ceil_half(q - k)
    else:  # 0 <= q <= p always holds, so the cases above cover everything
        raise InternalInconsistencyError(f"uncovered case p={p}, q={q}, k={k}")
    if value < 0:
        raise InternalInconsistencyError(f"negative multiplicity at p={p}, q={q}, k={k}")
    return value


def _gt_torus_counts(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Count Gelfand-Tsetlin patterns of the highest weight (p, q, 0) by the
    image of their U(3) weight on the SO(3) torus, where the torus element
    has eigenvalue pattern (t, -t, 0): the weight (w1, w2, w3) maps to
    w1 - w2."""
    counts: dict[int, int] = {}
    for b1 in range(q, p + 1):
        for b2 in range(0, q + 1):
            for c1 in range(b2, b1 + 1):
                j = 2 * c1 - b1 - b2
                counts[j] = counts.get(j, 0) + 1
    return tuple(sorted(counts.items()))


#: SO(3) contents kept by each memoised function, one per U(3) highest
#: weight (p, q, 0)
_U3_CONTENTS = 256


@lru_cache(maxsize=_U3_CONTENTS)
def _so3_content(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Strip SO(3) character strings greedily from the top of the torus
    character of the U(3) irreducible with highest weight (p, q, 0)."""
    counts = dict(_gt_torus_counts(p, q))
    result: dict[int, int] = {}
    while counts:
        top = max(counts)
        m = counts[top]
        if top < 0 or m < 0:
            raise InternalInconsistencyError(
                f"string stripping failed at (p,q)=({p},{q}): residual {counts}"
            )
        for t in range(-top, top + 1):
            rem = counts.get(t, 0) - m
            if rem < 0:
                raise InternalInconsistencyError(
                    f"negative residual at torus weight {t} for (p,q)=({p},{q})"
                )
            if rem:
                counts[t] = rem
            else:
                counts.pop(t, None)
        result[top] = result.get(top, 0) + m
    return tuple(sorted(result.items()))


def u3_to_so3_oracle(lam_prime: U3Weight, k: int) -> int:
    """Multiplicity of the (2k+1)-dimensional SO(3) irreducible by
    Gelfand-Tsetlin counting plus character stripping; independent of the
    closed formula."""
    _check_k(k)
    p = lam_prime.a1 - lam_prime.a3
    q = lam_prime.a2 - lam_prime.a3
    return dict(_so3_content(p, q)).get(k, 0)


@lru_cache(maxsize=_U3_CONTENTS)
def _restriction_content(p: int, q: int) -> So3MultiSet:
    return So3MultiSet({k: u3_to_so3_closed(U3Weight(p, q, 0), k) for k in range(p + 1)})


def u3_restriction(lam_prime: U3Weight) -> So3MultiSet:
    """The full SO(3) multiset of the restricted U(3) irreducible, computed
    once per shift class via the closed formula."""
    return _restriction_content(lam_prime.a1 - lam_prime.a3, lam_prime.a2 - lam_prime.a3)


def ending_B(lam: Weight, mu: Weight) -> So3MultiSet:
    """Family B multiplicity space when the tail of lam coincides with mu:
    lam_{i+3} = mu_i for i <= n-2 and mu_{n-1} <= lam_{n+1}.  Equals the
    U(3) restriction for (lam_1, lam_2, lam_3) tensored with the consecutive
    block tau_{|mu_n|} + ... + tau_{mu_{n-1}}.  The pattern is read off the
    doubled coordinates before anything is built, so a pair it does not
    cover (most pairs) costs only that test."""
    check_pair(FAMILY_B, mu.rank, lam, mu)
    l2, m2 = lam.coords2, mu.coords2
    if l2[3:] != m2[:-2] or m2[-2] > l2[-1]:
        raise CoincidencePatternError(lam, mu, FAMILY_B)
    l, m = lam.to_ints(), mu.to_ints()
    block = So3MultiSet.of_labels(range(abs(m[-1]), m[-2] + 1))
    return so3_tensor_decompose([u3_restriction(U3Weight(l[0], l[1], l[2])), block])


def ending_D(lam: Weight, mu: Weight) -> So3MultiSet:
    """Family D multiplicity space when the tail of lam coincides with mu:
    |lam_{i+3}| = mu_i for i <= n-1 and mu_n <= |lam_{n+2}|.  Equals the
    U(3) restriction for (lam_1, lam_2, |lam_3|) tensored with tau_{mu_n}.
    The pattern is read off the doubled coordinates before anything is
    built, as in ``ending_B``."""
    check_pair(FAMILY_D, mu.rank, lam, mu)
    l2, m2 = lam.coords2, mu.coords2
    if tuple(map(abs, l2[3:])) != m2[:-1] or m2[-1] > abs(l2[-1]):
        raise CoincidencePatternError(lam, mu, FAMILY_D)
    l, m = lam.to_ints(), mu.to_ints()
    factors = [u3_restriction(U3Weight(l[0], l[1], abs(l[2]))), So3MultiSet.irreducible(m[-1])]
    return so3_tensor_decompose(factors)
