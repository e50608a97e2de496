import itertools

import pytest

from sobranch.clebsch_gordan import (
    So3MultiSet,
    closed_form_B,
    closed_form_D,
    so3_tensor_decompose,
    su2_tensor_multiplicity,
)
from sobranch.errors import DomainError, InterlacingError
from sobranch.weights import Weight

w = Weight.of_ints
tau = So3MultiSet.irreducible


def test_multiset_basics():
    ms = So3MultiSet({2: 1, 0: 3})
    assert ms.mult(0) == 3 and ms.mult(2) == 1 and ms.mult(5) == 0
    assert ms.dimension() == 3 * 1 + 1 * 5
    assert ms == So3MultiSet([(0, 3), (2, 1), (4, 0)])
    with pytest.raises(DomainError):
        So3MultiSet({-1: 1})
    with pytest.raises(DomainError):
        So3MultiSet({1: -2})
    with pytest.raises(DomainError):
        So3MultiSet({True: 1})
    with pytest.raises(DomainError):
        So3MultiSet({1: True})
    # one tau_k per label given: the ladders and blocks of the closed forms
    assert So3MultiSet.of_labels(range(4, -1, -2)) == So3MultiSet({0: 1, 2: 1, 4: 1})
    assert So3MultiSet.of_labels([1, 1]) == So3MultiSet({1: 2})
    assert not So3MultiSet.of_labels(range(3, 2))


def test_su2_tensor_multiplicity_examples():
    assert su2_tensor_multiplicity([1, 1], 0) == 1
    assert su2_tensor_multiplicity([1, 1], 1) == 0
    assert su2_tensor_multiplicity([1, 1], 2) == 1
    assert su2_tensor_multiplicity([3], 3) == 1
    assert su2_tensor_multiplicity([3], 1) == 0
    with pytest.raises(DomainError):
        su2_tensor_multiplicity([], 0)
    with pytest.raises(DomainError):
        su2_tensor_multiplicity([1, -1], 0)
    with pytest.raises(DomainError):
        su2_tensor_multiplicity([1.5, 1], 1)


def test_su2_tensor_multiplicity_nonnegative_everywhere():
    for length in (1, 2, 3, 4):
        for labels in itertools.product(range(7), repeat=length):
            top = sum(labels)
            for k in range(top + 3):
                assert su2_tensor_multiplicity(list(labels), k) >= 0


def test_su2_tensor_multiplicity_symmetric_in_factors():
    for labels in itertools.product(range(4), repeat=3):
        base = [su2_tensor_multiplicity(list(labels), k) for k in range(10)]
        for perm in itertools.permutations(labels):
            assert [
                su2_tensor_multiplicity(list(perm), k) for k in range(10)
            ] == base


def test_so3_tensor_decompose_examples():
    assert so3_tensor_decompose([tau(1), tau(1)]) == So3MultiSet({0: 1, 1: 1, 2: 1})
    x = So3MultiSet({2: 2, 5: 1})
    assert so3_tensor_decompose([tau(0), x]) == x
    assert so3_tensor_decompose([tau(1), tau(1), tau(1)]) == So3MultiSet(
        {0: 1, 1: 3, 2: 2, 3: 1}
    )
    assert so3_tensor_decompose([]) == tau(0)


def test_so3_decompose_agrees_with_su2_formula():
    # doubled labels: the (2a+1)-dimensional SO(3) factor is the SU(2) label 2a
    for labels in itertools.product(range(4), repeat=3):
        ms = so3_tensor_decompose([tau(a) for a in labels])
        for k in range(sum(labels) + 2):
            assert ms.mult(k) == su2_tensor_multiplicity([2 * a for a in labels], 2 * k)


def test_so3_decompose_conserves_dimension():
    for labels in itertools.product(range(5), repeat=3):
        ms = so3_tensor_decompose([tau(a) for a in labels])
        expected = 1
        for a in labels:
            expected *= 2 * a + 1
        assert ms.dimension() == expected


def test_closed_form_B_examples():
    assert closed_form_B(w([1, 0, 0]), w([0, 0])) == tau(1)
    # collapsing inner sums leave only the last factor
    for a, b, c in [(3, 2, 1), (2, 2, 0), (4, 1, 1)]:
        assert closed_form_B(w([a, b, c]), w([a, b])) == tau(c)
    assert closed_form_B(w([2, 0, 0]), w([0, 0])) == So3MultiSet({0: 1, 2: 1})
    # absolute value on the last coordinate of mu
    assert closed_form_B(w([2, 1, 1]), w([2, -1])) == closed_form_B(
        w([2, 1, 1]), w([2, 1])
    )


def test_closed_form_D_examples():
    assert closed_form_D(w([1, 0, 0]), w([0])) == tau(1)
    for a, b, c in [(3, 2, 1), (3, 2, -1), (2, 1, 0)]:
        assert closed_form_D(w([a, b, c]), w([a])) == So3MultiSet(
            {k: 1 for k in range(abs(c), b + 1)}
        )
    assert closed_form_D(w([1, 1, 1]), w([1])) == tau(1)
    assert closed_form_D(w([1, 1, -1]), w([1])) == tau(1)


def test_closed_form_dimension_conservation():
    lam, mu = w([3, 2, 1]), w([2, -1])
    ms = closed_form_B(lam, mu)
    # product of factor dimensions: tau_1 block times ladders for 3-2 and 2-1
    ladder = lambda top: sum(2 * j + 1 for j in range(top, -1, -2))
    assert ms.dimension() == 3 * ladder(1) * ladder(1)


def test_closed_form_dimension_conservation_sweep():
    from sobranch.weights import interlace, iter_dominant_weights

    ladder = lambda top: sum(2 * j + 1 for j in range(top, -1, -2))
    for lam in iter_dominant_weights("B", 3, 3):
        for mu in iter_dominant_weights("D", 2, 3):
            if not interlace("simple", "B", lam, mu):
                continue
            l, m = lam.to_ints(), mu.to_ints()
            expected = (2 * l[2] + 1) * ladder(l[0] - abs(m[0])) * ladder(l[1] - abs(m[1]))
            assert closed_form_B(lam, mu).dimension() == expected
    for lam in iter_dominant_weights("D", 3, 3):
        for mu in iter_dominant_weights("B", 1, 3):
            if not interlace("simple", "D", lam, mu):
                continue
            l, m = lam.to_ints(), mu.to_ints()
            block = sum(2 * j + 1 for j in range(abs(l[2]), l[1] + 1))
            assert closed_form_D(lam, mu).dimension() == block * ladder(l[0] - m[0])


def test_closed_form_preconditions():
    with pytest.raises(InterlacingError):
        closed_form_B(w([1, 0, 0]), w([1, 1]))
    with pytest.raises(InterlacingError):
        closed_form_D(w([2, 2, 0]), w([1]))
    with pytest.raises(DomainError):
        closed_form_B(w([0, 1, 0]), w([0, 0]))
