"""SO(3) multisets and the closed-form tensor decompositions of the
multiplicity spaces, built on iterated pairwise Clebsch-Gordan on SO(3)
labels.

The closed forms read no partition function, so cross-checks against the
Kostant routes stay meaningful.  The Wallach-Yacobi formula for iterated
SU(2) tensor products, a difference of two paired-generator partition
counts, is the paper's lemma that the acceptance criteria check this
product against; it lives with the tests (``tests/algebra_reference.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from .errors import DomainError, InterlacingError
from .weights import FAMILY_B, FAMILY_D, IntMap, Weight, interlace


class So3MultiSet(IntMap):
    """Finite multiset of SO(3) irreducibles: label k (the (2k+1)-dimensional
    representation) mapped to its multiplicity."""

    __slots__ = ()
    _item = "tau_{}: {}".format

    @staticmethod
    def _check(k, m) -> None:
        if type(k) is not int or k < 0:
            raise DomainError(f"label {k!r} must be a non-negative integer")
        if m < 0:
            raise DomainError(f"multiplicity {m!r} must be a non-negative integer")

    @classmethod
    def irreducible(cls, k: int) -> "So3MultiSet":
        return cls({k: 1})

    @classmethod
    def of_labels(cls, labels: Iterable[int]) -> "So3MultiSet":
        """tau_k once for each label k given."""
        return cls([(k, 1) for k in labels])

    mult = IntMap.get


def _pair_product(acc: dict[int, int], factor: list[tuple[int, int]]) -> dict[int, int]:
    out: dict[int, int] = defaultdict(int)
    for a, ma in acc.items():
        for b, mb in factor:
            for c in range(abs(a - b), a + b + 1):
                out[c] += ma * mb
    return out


def _tensor(factors: Iterable[list[tuple[int, int]]]) -> So3MultiSet:
    """The product of factors given as lists of (label, multiplicity)
    pairs, valid by construction: only the result is checked, once, as an
    So3MultiSet."""
    acc = {0: 1}
    for f in factors:
        acc = _pair_product(acc, f)
    return So3MultiSet(acc)


def so3_tensor_decompose(factors: Iterable[So3MultiSet]) -> So3MultiSet:
    """Iterated pairwise Clebsch-Gordan: tau_a x tau_b = sum of tau_c for
    |a-b| <= c <= a+b.  The empty product is the trivial multiset {tau_0}."""
    return _tensor([f.items() for f in factors])


def closed_form_B(lam: Weight, mu: Weight) -> So3MultiSet:
    """Family B multiplicity space as an SO(3) multiset, valid under simple
    interlacing: tensor tau_{lam_{n+1}} with, for each j <= n, the ladder
    tau_{lam_j - |mu_j|}, tau_{lam_j - |mu_j| - 2}, ..."""
    if not interlace(FAMILY_B, lam, mu):
        raise InterlacingError(lam, mu, FAMILY_B)
    n = mu.rank
    l = lam.to_ints()
    m = mu.to_ints()
    factors = [[(l[n], 1)]]
    factors += [[(b, 1) for b in range(l[j] - abs(m[j]), -1, -2)] for j in range(n)]
    return _tensor(factors)


def closed_form_D(lam: Weight, mu: Weight) -> So3MultiSet:
    """Family D multiplicity space as an SO(3) multiset, valid under simple
    interlacing: tensor the consecutive block tau_{|lam_{n+2}|} + ... +
    tau_{lam_{n+1}} with the ladders tau_{lam_m - mu_m - 2j}."""
    if not interlace(FAMILY_D, lam, mu):
        raise InterlacingError(lam, mu, FAMILY_D)
    n = mu.rank
    l = lam.to_ints()
    m = mu.to_ints()
    factors = [[(b, 1) for b in range(abs(l[n + 1]), l[n] + 1)]]
    factors += [[(b, 1) for b in range(l[j] - m[j], -1, -2)] for j in range(n)]
    return _tensor(factors)
