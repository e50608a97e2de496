"""SU(2)/SO(3) tensor-product multiplicities and the closed-form tensor
decompositions of the multiplicity spaces.

Two independent routes are kept deliberately separate: the partition-function
formula of Wallach-Yacobi for iterated SU(2) tensor products, and plain
iterated pairwise Clebsch-Gordan on SO(3) labels.  The closed forms for the
two orthogonal families are built on the second route only, so cross-checks
against the Kostant route stay meaningful.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from .errors import DomainError, InterlacingError, InternalInconsistencyError
from .partition import count_sigma_prime
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

    def dimension(self) -> int:
        return sum(m * (2 * k + 1) for k, m in self._data.items())


def su2_tensor_multiplicity(r: Sequence[int], k: int) -> int:
    """Multiplicity of the (k+1)-dimensional SU(2) irreducible inside the
    tensor product of the (r_i+1)-dimensional ones, as a difference of two
    paired-generator partition counts."""
    labels = list(r)
    if not labels:
        raise DomainError("factor list must be non-empty")
    if any(type(x) is not int or x < 0 for x in [*labels, k]):
        raise DomainError("labels must be non-negative integers")
    n = len(labels) - 1
    low = Weight.of_ints(labels[:n] + [labels[n] - k])
    high = Weight.of_ints(labels[:n] + [labels[n] + k + 2])
    value = count_sigma_prime(n, low) - count_sigma_prime(n, high)
    if value < 0:
        raise InternalInconsistencyError(
            f"negative tensor multiplicity for r={labels}, k={k}"
        )
    return value


def _pair_product(acc: dict[int, int], factor: So3MultiSet) -> dict[int, int]:
    out: dict[int, int] = defaultdict(int)
    for a, ma in acc.items():
        for b, mb in factor.items():
            for c in range(abs(a - b), a + b + 1):
                out[c] += ma * mb
    return dict(out)


def so3_tensor_decompose(factors: Iterable[So3MultiSet]) -> So3MultiSet:
    """Iterated pairwise Clebsch-Gordan: tau_a x tau_b = sum of tau_c for
    |a-b| <= c <= a+b.  The empty product is the trivial multiset {tau_0}."""
    acc = {0: 1}
    for f in factors:
        acc = _pair_product(acc, f)
    return So3MultiSet(acc)


def closed_form_B(lam: Weight, mu: Weight) -> So3MultiSet:
    """Family B multiplicity space as an SO(3) multiset, valid under simple
    interlacing: tensor tau_{lam_{n+1}} with, for each j <= n, the ladder
    tau_{lam_j - |mu_j|}, tau_{lam_j - |mu_j| - 2}, ..."""
    if not interlace("simple", FAMILY_B, lam, mu):
        raise InterlacingError(lam, mu, FAMILY_B)
    n = mu.rank
    l = lam.to_ints()
    m = mu.to_ints()
    factors = [So3MultiSet.irreducible(l[n])]
    for j in range(n):
        factors.append(So3MultiSet.of_labels(range(l[j] - abs(m[j]), -1, -2)))
    return so3_tensor_decompose(factors)


def closed_form_D(lam: Weight, mu: Weight) -> So3MultiSet:
    """Family D multiplicity space as an SO(3) multiset, valid under simple
    interlacing: tensor the consecutive block tau_{|lam_{n+2}|} + ... +
    tau_{lam_{n+1}} with the ladders tau_{lam_m - mu_m - 2j}."""
    if not interlace("simple", FAMILY_D, lam, mu):
        raise InterlacingError(lam, mu, FAMILY_D)
    n = mu.rank
    l = lam.to_ints()
    m = mu.to_ints()
    factors = [So3MultiSet.of_labels(range(abs(l[n + 1]), l[n] + 1))]
    for j in range(n):
        factors.append(So3MultiSet.of_labels(range(l[j] - m[j], -1, -2)))
    return so3_tensor_decompose(factors)
