from collections import Counter

import pytest
from algebra_reference import (
    CharacterMap,
    g_algebra,
    k_algebra,
    reflection,
    transposition,
    weight_multiplicities,
    xi,
)
from freudenthal_reference import reference_dominant_mults

from sobranch.errors import DomainError
from sobranch.oracle import MultiplicityTable, _dominant_mults, branch_oracle as oracle, weyl_dim
from sobranch.weights import (
    Weight,
    algebra_positive_roots,
    algebra_rho,
    g_rank,
    iter_dominant_weights,
    make_root_data,
    restrict,
    weyl_elements,
)

w = Weight.of_ints


def test_weight_multiplicities_standard_reps():
    cm = weight_multiplicities(("B", 3), w([1, 0, 0]))
    assert len(cm) == 7
    assert cm.get(w([0, 0, 0])) == 1
    assert cm.get(w([0, -1, 0])) == 1
    cm_d = weight_multiplicities(("D", 2), w([1, 0]))
    assert sorted(x.to_ints() for x, _ in cm_d.items()) == [
        (-1, 0),
        (0, -1),
        (0, 1),
        (1, 0),
    ]


def test_weight_multiplicities_adjoint_B2():
    cm = weight_multiplicities(("B", 2), w([1, 1]))
    assert cm.get(w([0, 0])) == 2
    assert cm.get(w([1, 1])) == 1
    assert cm.get(w([1, 0])) == 1
    assert sum(v for _, v in cm.items()) == 10
    assert weyl_dim(("B", 2), w([1, 1])) == 10


def test_weight_multiplicities_weyl_invariance():
    cm = weight_multiplicities(("B", 2), w([2, 1]))
    for om in weyl_elements("B", 2):
        assert cm.transformed(om) == cm


@pytest.mark.parametrize(
    "algebra",
    [("B", r) for r in range(1, 5)] + [("D", r) for r in range(2, 6)],
    ids=lambda algebra: "%s%d" % algebra,
)
def test_weight_systems_match_the_whole_group_expansion(algebra):
    """Each dominant weight's multiplicity spread over its orbit by applying
    every element of the Weyl group: zero and repeated coordinates, and
    family D's negative last coordinate, all occur among these lam."""
    family, rank = algebra
    for lam in iter_dominant_weights(family, rank, 2):
        expected = {}
        for eta2, m in _dominant_mults(family, rank, lam.coords2):
            for omega in weyl_elements(family, rank):
                expected[omega.apply2(eta2)] = m
        assert weight_multiplicities(algebra, lam) == CharacterMap(expected), lam


#: lam_1 bound per algebra: every dominant lam of B_1-B_7 and D_2-D_7 up to it
FREUDENTHAL_GRID = {
    **{("B", rank): bound for rank, bound in zip(range(1, 8), (6, 5, 4, 3, 2, 2, 1))},
    **{("D", rank): bound for rank, bound in zip(range(2, 8), (5, 4, 3, 3, 2, 2))},
}


def test_orbit_recursion_matches_every_positive_root():
    """One root string per stabilizer orbit gives the dominant
    multiplicities of the recursion over every positive root.  Family D's
    stabilizers are the delicate ones, so its grid holds lam and eta with a
    negative last coordinate and with zero blocks of one and two slots."""
    d_weights = set()
    for (family, rank), bound in FREUDENTHAL_GRID.items():
        for lam in iter_dominant_weights(family, rank, bound):
            system = _dominant_mults(family, rank, lam.coords2)
            assert system == reference_dominant_mults(family, rank, lam.coords2), (family, lam)
            if family == "D":
                d_weights.update(eta2 for eta2, _ in system)
    assert any(eta2[-1] < 0 for eta2 in d_weights)
    assert {0, 1, 2} <= {eta2.count(0) for eta2 in d_weights}


def test_weight_multiplicities_rejects_bad_input():
    with pytest.raises(DomainError):
        weight_multiplicities(("B", 3), w([0, 1, 0]))
    with pytest.raises(DomainError):
        weight_multiplicities(("D", 1), w([1]))
    with pytest.raises(DomainError):
        weight_multiplicities(("B", 3), Weight((1, 0, 0)))


def test_weyl_dim_examples():
    assert weyl_dim(("B", 3), w([1, 0, 0])) == 7
    assert weyl_dim(("B", 3), w([0, 0, 0])) == 1
    assert weyl_dim(("D", 3), w([1, 0, 0])) == 6
    assert weyl_dim(("D", 3), w([1, 1, 1])) == 10
    assert weyl_dim(("D", 3), w([1, 1, -1])) == 10


def test_weyl_dim_matches_weight_system_total():
    for alg, lam in ((("B", 2), w([2, 1])), (("D", 3), w([2, 1, 1])), (("B", 1), w([4]))):
        assert sum(v for _, v in weight_multiplicities(alg, lam).items()) == weyl_dim(alg, lam)


def test_xi_examples():
    # rank one: two terms at +-1/2
    assert xi(("B", 1), Weight((1,))) == CharacterMap({(1,): 1, (-1,): -1})
    # a weight fixed by a reflection cancels completely
    assert not xi(("B", 2), w([1, 0]))
    assert not xi(("D", 2), w([1, 1]))  # fixed by the coordinate swap
    # strictly dominant regular: |W| distinct terms
    rho = algebra_rho("B", 2)
    assert len(xi(("B", 2), rho)) == 8


def test_xi_antisymmetry_under_simple_reflections():
    rho = algebra_rho("B", 3)
    x = xi(("B", 3), rho + w([2, 1, 0]))
    flip_last = reflection(3, 2)
    swap = transposition(3, 0, 1)
    minus = CharacterMap({k.coords2: -v for k, v in x.items()})
    assert x.transformed(flip_last) == minus
    assert x.transformed(swap) == minus


def test_weyl_denominator_product_form():
    for alg in (("B", 2), ("D", 3)):
        rho = algebra_rho(*alg)
        product = CharacterMap({(0,) * alg[1]: 1})
        for alpha in algebra_positive_roots(*alg):
            half = tuple(c // 2 for c in alpha.coords2)  # doubled coords of alpha/2
            product = product * CharacterMap({half: 1, tuple(-c for c in half): -1})
        assert product == xi(alg, rho)


def test_weyl_character_identity_spot():
    for family, n, lam in (("B", 2, w([2, 1, 0])), ("D", 1, w([2, 1, -1]))):
        rd = make_root_data(family, n)
        galg = g_algebra(rd)
        char = weight_multiplicities(galg, lam)
        assert char * xi(galg, rd.rho_g) == xi(galg, lam + rd.rho_g)


def test_branch_oracle_examples():
    table = oracle("B", 2, w([1, 0, 0]))
    assert table == MultiplicityTable({((1, 0), 0): 1, ((0, 0), 1): 1})
    assert oracle("B", 2, w([0, 0, 0])) == MultiplicityTable({((0, 0), 0): 1})
    assert oracle("D", 1, w([1, 0, 0])) == MultiplicityTable({((1,), 0): 1, ((0,), 1): 1})
    for entries in ({((1,), -1): 1}, {((1,), 0): 0}, {((1,), True): 1}, {((1,), 0): True}):
        with pytest.raises(DomainError):
            MultiplicityTable(entries)


def test_branch_oracle_adjoint_B():
    # 21-dimensional adjoint of SO(7) over SO(4) x SO(3)
    table = oracle("B", 2, w([1, 1, 0]))
    assert table.get((1, 1), 0) == 1
    assert table.get((1, -1), 0) == 1
    assert table.get((1, 0), 1) == 1
    assert table.get((0, 0), 1) == 1
    assert len(table) == 4
    # a reader resolves mu once and answers like get, for a Weight or a tuple
    for mu in ((1, 1), w([1, -1]), w([0, 0]), (2, 0)):
        read = table.reader(mu)
        assert [read(k) for k in range(3)] == [table.get(mu, k) for k in range(3)]


def test_branch_oracle_conservation():
    for family, n, lam in (
        ("B", 2, w([2, 1, 1])),
        ("D", 1, w([2, 2, -1])),
        ("D", 2, w([1, 1, 1, -1])),
    ):
        rd = make_root_data(family, n)
        table = oracle(family, n, lam)
        total = sum(
            m * weyl_dim(k_algebra(rd), w(mu)) * (2 * k + 1)
            for (mu, k), m in table.items()
        )
        assert total == weyl_dim(g_algebra(rd), lam)


def test_branch_oracle_rows_are_dominant():
    for (mu, k), m in oracle("B", 2, w([2, 2, 1])).items():
        assert mu[0] >= abs(mu[1]) and k >= 0 and m > 0


def whole_lattice_branching(family, n, lam):
    """Restrict every weight of lam's whole weight system, then strip the
    product character of the lexicographically highest remaining weight,
    each over its whole weight system, until nothing remains."""
    rd = make_root_data(family, n)
    residual = Counter()
    for weight, m in weight_multiplicities(g_algebra(rd), lam).items():
        residual[restrict(family, weight).coords2] += m
    entries = {}
    while residual:
        top = max(residual)
        m_top, mu, k2 = residual[top], Weight(top[:n]), top[n]
        entries[(mu.to_ints(), k2 // 2)] = m_top
        for kappa, km in weight_multiplicities(k_algebra(rd), mu).items():
            for j2 in range(-k2, k2 + 1, 2):
                residual[kappa.coords2 + (j2,)] -= m_top * km
        assert min(residual.values()) >= 0, (lam, top)
        residual = +residual  # drops the zeros
    return MultiplicityTable(entries)


@pytest.mark.parametrize(
    "family, n, bound",
    [("B", 2, 3), ("B", 3, 2), ("B", 4, 1), ("D", 1, 3), ("D", 2, 2), ("D", 3, 1)],
)
def test_branch_oracle_matches_whole_lattice_stripping(family, n, bound):
    for lam in iter_dominant_weights(family, g_rank(family, n), bound):
        assert oracle(family, n, lam) == whole_lattice_branching(family, n, lam), lam


def test_branch_oracle_rejects_bad_input():
    with pytest.raises(DomainError):
        oracle("B", 2, w([0, 1, 0]))
    with pytest.raises(DomainError):
        oracle("B", 1, w([1, 0]))
