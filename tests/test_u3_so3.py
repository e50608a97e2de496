import pytest

from algebra_reference import so3_dimension, u3_dimension, u3_shifted

from sobranch.clebsch_gordan import So3MultiSet, so3_tensor_decompose
from sobranch.errors import CoincidencePatternError, DomainError
from sobranch.oracle import branch_oracle
from sobranch.u3_so3 import (
    U3Weight,
    ending_B,
    ending_D,
    u3_restriction,
    u3_to_so3_closed,
    u3_to_so3_oracle,
)
from sobranch.weights import Weight

w = Weight.of_ints
tau = So3MultiSet.irreducible


def test_u3_weight_validation():
    with pytest.raises(DomainError):
        U3Weight(0, 1, 0)
    assert u3_dimension(U3Weight(2, 1, -1)) == 15
    assert u3_dimension(U3Weight(1, 0, 0)) == 3
    assert u3_dimension(U3Weight(1, 1, 0)) == 3
    assert u3_dimension(U3Weight(2, 0, 0)) == 6


def test_closed_formula_examples():
    assert u3_to_so3_closed(U3Weight(1, 0, 0), 1) == 1
    assert u3_to_so3_closed(U3Weight(1, 0, 0), 0) == 0
    assert [u3_to_so3_closed(U3Weight(2, 0, 0), k) for k in (0, 1, 2)] == [1, 0, 1]
    assert u3_to_so3_closed(U3Weight(1, 1, 0), 1) == 1
    assert u3_to_so3_closed(U3Weight(1, 1, 0), 0) == 0
    assert u3_to_so3_closed(U3Weight(0, 0, 0), 0) == 1
    with pytest.raises(DomainError):
        u3_to_so3_closed(U3Weight(1, 0, 0), -1)
    with pytest.raises(DomainError):
        u3_to_so3_closed(U3Weight(1, 0, 0), True)


def test_oracle_examples():
    assert u3_to_so3_oracle(U3Weight(0, 0, 0), 0) == 1
    # the three Gelfand-Tsetlin patterns of (1,0,0) give torus images 1,-1,0
    assert u3_to_so3_oracle(U3Weight(1, 0, 0), 1) == 1
    assert u3_to_so3_oracle(U3Weight(1, 0, 0), 0) == 0
    with pytest.raises(DomainError):
        u3_to_so3_oracle(U3Weight(1, 0, 0), True)


def test_closed_matches_oracle_on_grid():
    for a1 in range(7):
        for a2 in range(a1 + 1):
            for a3 in range(a2 + 1):
                lp = U3Weight(a1, a2, a3)
                for k in range(a1 + a2 + 1):
                    assert u3_to_so3_closed(lp, k) == u3_to_so3_oracle(lp, k)


def test_shift_invariance_including_negative_coordinates():
    for base in (U3Weight(5, 3, 1), U3Weight(4, 4, 0), U3Weight(6, 2, 2)):
        for shift in (-5, -3, 7):
            shifted = u3_shifted(base, shift)
            for k in range(base.a1 - base.a3 + 2):
                assert u3_to_so3_closed(shifted, k) == u3_to_so3_closed(base, k)
                assert u3_to_so3_oracle(shifted, k) == u3_to_so3_oracle(base, k)


def test_restriction_dimension_conservation():
    for a1 in range(7):
        for a2 in range(a1 + 1):
            for a3 in range(a2 + 1):
                lp = U3Weight(a1, a2, a3)
                assert so3_dimension(u3_restriction(lp)) == u3_dimension(lp)


def test_case_boundary_consistency():
    # wherever guard regions overlap, both branch expressions must agree
    ceil_half = lambda x: -(-x // 2)
    for p in range(0, 17):
        for q in range(0, p + 1):
            for k in range(0, p + 2):
                values = []
                if k <= p <= 2 * k and 0 <= q <= p - k:
                    values.append(ceil_half(p - k + 1) - ceil_half(p - k - q))
                if k <= p <= 2 * k and p - k <= q <= k:
                    values.append(ceil_half(p - k + 1))
                if k <= p <= 2 * k and k <= q:
                    values.append(ceil_half(p - k + 1) - ceil_half(q - k))
                if 2 * k <= p and 0 <= q <= k:
                    values.append(ceil_half(p - k + 1) - ceil_half(p - k - q))
                if 2 * k <= p and k <= q <= p - k:
                    values.append(
                        ceil_half(p - k + 1) - ceil_half(p - k - q) - ceil_half(q - k)
                    )
                if 2 * k <= p and p - k <= q:
                    values.append(ceil_half(p - k + 1) - ceil_half(q - k))
                if 0 <= p <= k - 1:
                    values.append(0)
                assert len(set(values)) <= 1, (p, q, k, values)
                if values:
                    assert values[0] == u3_to_so3_closed(U3Weight(p, q, 0), k)


def oracle_row(family, n, lam, mu):
    table = branch_oracle(family, n, lam)
    return So3MultiSet(
        {k: m for (mu_t, k), m in table.items() if mu_t == mu.to_ints()}
    )


def test_ending_B_examples():
    assert ending_B(w([1, 0, 0]), w([0, 0])) == tau(1)
    assert ending_B(w([2, 2, 2]), w([2, 2])) == tau(2)
    # tensor structure: restriction of (2,1,1) times the block tau_0 + tau_1
    expected = so3_tensor_decompose(
        [u3_restriction(U3Weight(2, 1, 1)), So3MultiSet({0: 1, 1: 1})]
    )
    assert ending_B(w([2, 1, 1]), w([1, 0])) == expected
    assert ending_B(w([2, 1, 1]), w([1, 0])) == oracle_row("B", 2, w([2, 1, 1]), w([1, 0]))
    # mu_1 <= lam_3 is a genuine restriction at n=2
    with pytest.raises(CoincidencePatternError):
        ending_B(w([2, 1, 0]), w([1, 0]))


def test_ending_B_pattern_violation():
    # mu_1 = 1 > lam_3 = 0 violates the coincidence pattern; the tensor
    # expression would give {0:1, 1:2, 2:1}, but the true row is {tau_1}
    with pytest.raises(CoincidencePatternError):
        ending_B(w([1, 1, 0]), w([1, 0]))
    assert oracle_row("B", 2, w([1, 1, 0]), w([1, 0])) == tau(1)


def test_ending_D_examples():
    assert ending_D(w([1, 0, 0]), w([0])) == tau(1)
    expected = so3_tensor_decompose([u3_restriction(U3Weight(2, 1, 1)), tau(1)])
    assert ending_D(w([2, 1, 1]), w([1])) == expected
    assert ending_D(w([2, 1, 1]), w([1])) == oracle_row("D", 1, w([2, 1, 1]), w([1]))
    # |lam_3| enters the U(3) weight, so both signs agree
    assert ending_D(w([1, 1, -1]), w([1])) == ending_D(w([1, 1, 1]), w([1]))
    with pytest.raises(CoincidencePatternError):
        ending_D(w([2, 1, 0]), w([1]))


def test_ending_agrees_with_oracle_rows_family_D_n2():
    lam, mu = w([2, 2, 1, 1]), w([1, 1])
    assert ending_D(lam, mu) == oracle_row("D", 2, lam, mu)
    lam2, mu2 = w([2, 1, 1, -1]), w([1, 0])
    assert ending_D(lam2, mu2) == oracle_row("D", 2, lam2, mu2)
