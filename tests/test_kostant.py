import math
from collections import Counter

import pytest

from sobranch import cli, kostant, oracle, partition, tsukamoto, u3_so3, weights
from sobranch.clebsch_gordan import closed_form_B
from sobranch.errors import DomainError, InterlacingError
from sobranch.kostant import (
    BranchingQuery,
    kostant_terms,
    multiplicity_kostant_full,
    multiplicity_kostant_reduced,
)
from sobranch.partition import shared_cache
from sobranch.weights import (
    SignedPermutation,
    Weight,
    interlace,
    iter_dominant_weights,
    make_root_data,
    normalize_pair,
    restrict,
    tilde,
    weyl_elements,
)

from algebra_reference import apply, compose, identity, reflection, transposition
from partition_reference import scalar_partition_function

w = Weight.of_ints


def q_B(lam, mu, k):
    return BranchingQuery("B", 2, w(lam), w(mu), k)


def q_D(lam, mu, k):
    return BranchingQuery("D", 1, w(lam), w(mu), k)


def grid_queries(family, n, bound):
    """The queries of ``verify``'s grid, in its order."""
    for lam, mu, k, _ in cli.sweep(family, n, bound, ()):
        yield BranchingQuery(family, n, lam, mu, k)


def test_query_validation():
    with pytest.raises(DomainError):
        BranchingQuery("B", 1, w([1, 0]), w([0]), 0)
    with pytest.raises(DomainError):
        q_B([0, 1, 0], [0, 0], 0)
    with pytest.raises(DomainError):
        q_B([1, 0, 0], [0, 0], -1)
    with pytest.raises(DomainError):
        BranchingQuery("B", 2, w([1, 0, 0]), w([0]), 0)


def test_full_sum_examples():
    # the 7-dimensional standard representation splits as C^4 + C^3
    assert multiplicity_kostant_full(q_B([1, 0, 0], [0, 0], 1)) == 1
    assert multiplicity_kostant_full(q_B([1, 0, 0], [0, 0], 0)) == 0
    assert multiplicity_kostant_full(q_B([0, 0, 0], [0, 0], 0)) == 1
    assert multiplicity_kostant_full(q_B([1, 0, 0], [1, 0], 0)) == 1


def test_reduced_examples():
    assert multiplicity_kostant_reduced(q_B([1, 0, 0], [0, 0], 1)) == 1
    assert multiplicity_kostant_reduced(q_D([1, 0, 0], [0], 1)) == 1
    assert multiplicity_kostant_reduced(q_D([1, 0, 0], [0], 0)) == 0
    # cross-check against the closed form, which gives a single tau_1
    assert closed_form_B(w([2, 1, 1]), w([2, 1])).mult(1) == 1
    assert multiplicity_kostant_reduced(q_B([2, 1, 1], [2, 1], 1)) == 1


def test_reduced_requires_simple_interlacing():
    with pytest.raises(InterlacingError):
        multiplicity_kostant_reduced(q_B([2, 2, 0], [1, 0], 0))


def test_reduced_equals_full_on_interlacing_grid():
    for family, n in (("B", 2), ("D", 1)):
        for q in grid_queries(family, n, 2):
            if interlace("simple", family, q.lam, q.mu):
                assert multiplicity_kostant_reduced(q) == multiplicity_kostant_full(q)


def scalar_reduced_sum(q):
    """The two-term (B) or four-term (D) reduced sum of the tilde-normalized
    query, each term one count of the scalar reference."""
    q = BranchingQuery(q.family, q.n, *normalize_pair(q.family, q.lam, q.mu), q.k)
    sigma = scalar_partition_function(make_root_data(q.family, q.n).sigma)
    base = restrict(q.family, q.lam) - Weight(q.mu.coords2 + (0,))
    if q.family == "B":
        terms = ((1, base, -2), (-1, base.shift_last(2), 2))
    else:
        l = q.lam.to_ints()
        second_last, last = l[q.n], l[q.n + 1]
        terms = (
            (1, base, -2),
            (1, base.shift_last(-4 * last), -2),
            (-1, base.shift_last(2 * (second_last - last + 1)), -2),
            (-1, base.shift_last(-2 * (second_last + last + 1)), -2),
        )
    return sum(sign * sigma.count(t.shift_last(step * q.k).coords2) for sign, t, step in terms)


@pytest.mark.parametrize("family, n, bound", [("B", 2, 3), ("B", 3, 2), ("D", 1, 3),
                                              ("D", 2, 3), ("D", 3, 2)])
def test_reduced_sum_matches_scalar_counts(family, n, bound):
    # the row lookups reach below a row's span, where family D's -e_last
    # makes the counts periodic; k runs 3 past the sweep's top
    rank = make_root_data(family, n).g_rank
    mus = list(iter_dominant_weights(weights.k_family(family), n, bound))
    partners = 0
    for lam in iter_dominant_weights(family, rank, bound):
        k_top = sum(abs(c) for c in lam.to_ints())
        for mu in mus:
            q = BranchingQuery(family, n, lam, mu, 0)
            normal = BranchingQuery(family, n, *normalize_pair(family, lam, mu), 0)
            if not interlace("simple", family, normal.lam, normal.mu):
                with pytest.raises(InterlacingError):
                    multiplicity_kostant_reduced(q)
                continue
            partners += normal != q
            for k in range(k_top + 4):
                q = BranchingQuery(family, n, lam, mu, k)
                assert multiplicity_kostant_reduced(q) == scalar_reduced_sum(q), q
    assert partners > 0


def test_weyl_lemma_support_family_B():
    allowed = {identity(3), reflection(3, 2)}
    for q in grid_queries("B", 2, 2):
        if q.mu.coords2[-1] >= 0 and interlace("simple", "B", q.lam, q.mu):
            for omega, _, _ in kostant_terms(q):
                assert omega in allowed


def test_weyl_lemma_support_family_D():
    flip_two = SignedPermutation(tuple(range(3)), frozenset({1, 2}))
    swap = transposition(3, 1, 2)
    allowed = {identity(3), flip_two, swap, compose(flip_two, swap)}
    for q in grid_queries("D", 1, 2):
        if q.lam.coords2[-1] >= 0 and interlace("simple", "D", q.lam, q.mu):
            for omega, _, _ in kostant_terms(q):
                assert omega in allowed


def test_tilde_invariance():
    for mu in ([2, 1], [2, 2], [1, 1]):
        for k in range(4):
            plain = multiplicity_kostant_full(q_B([2, 2, 1], mu, k))
            twisted = multiplicity_kostant_full(
                BranchingQuery("B", 2, w([2, 2, 1]), tilde("B", w(mu)), k)
            )
            assert plain == twisted
    for lam in ([2, 1, 1], [2, 2, 2], [1, 1, 1]):
        for k in range(4):
            plain = multiplicity_kostant_full(q_D(lam, [1], k))
            twisted = multiplicity_kostant_full(
                BranchingQuery("D", 1, tilde("D", w(lam)), w([1]), k)
            )
            assert plain == twisted


def test_vanishing_outside_triple_interlacing():
    for lam in iter_dominant_weights("B", 3, 2):
        for mu in iter_dominant_weights("D", 2, 3):
            if interlace("triple", "B", lam, mu):
                continue
            for k in range(sum(lam.to_ints()) + 1):
                assert multiplicity_kostant_full(BranchingQuery("B", 2, lam, mu, k)) == 0


def reference_terms(q):
    """Kostant's alternating sum term by term, from its definition: one
    partition count per Weyl group element, nothing cached or skipped."""
    rd = make_root_data(q.family, q.n)
    lam_rho = q.lam + rd.rho_g
    mu_ext = Weight(q.mu.coords2 + (2 * q.k,))
    for omega in weyl_elements(q.family, rd.g_rank):
        target = restrict(q.family, apply(omega, lam_rho) - rd.rho_g) - mu_ext
        value = scalar_partition_function(rd.sigma).count(target.coords2)
        if value:
            yield omega, omega.sign, value


ORBIT_GRIDS = [("B", 2, 3), ("B", 3, 1), ("D", 1, 3), ("D", 3, 1)]


@pytest.mark.parametrize("family, n, bound", ORBIT_GRIDS)
def test_sorted_orbit_walk_matches_plain_weyl_sum(family, n, bound):
    negative_last = 0
    for q in grid_queries(family, n, bound):
        negative_last += q.lam.coords2[-1] < 0
        assert Counter(kostant_terms(q)) == Counter(reference_terms(q)), q
    assert (negative_last > 0) == (family == "D")


def weyl_points(family, n, lam):
    """(omega, p) for every element of W: p is the doubled-integer
    restriction of omega(lam + rho) - rho."""
    rd = make_root_data(family, n)
    lam_rho = lam + rd.rho_g
    return [
        (omega, restrict(family, apply(omega, lam_rho) - rd.rho_g).coords2)
        for omega in weyl_elements(family, rd.g_rank)
    ]


def scalar_terms(q, points):
    """The terms of q's Weyl sum from ``weyl_points`` at q.k with one scalar
    partition count each, no row and no support test."""
    sigma = scalar_partition_function(make_root_data(q.family, q.n).sigma)
    mu_ext = q.mu.coords2 + (2 * q.k,)
    for omega, p in points:
        value = sigma.count(tuple(a - b for a, b in zip(p, mu_ext)))
        if value:
            yield omega, omega.sign, value


@pytest.mark.parametrize("family, n, bound", ORBIT_GRIDS)
def test_row_terms_match_scalar_counts_past_the_grid(family, n, bound):
    for lam, mu in dict.fromkeys((lam, mu) for lam, mu, _, _ in cli.sweep(family, n, bound, ())):
        points = weyl_points(family, n, lam)
        k_top = sum(abs(c) for c in lam.to_ints())
        for k in range(k_top + 4):
            q = BranchingQuery(family, n, lam, mu, k)
            assert Counter(kostant_terms(q)) == Counter(scalar_terms(q, points)), q


def usable_terms(points, mu):
    """(omega, sign, p_last) for every (omega, p) of ``points`` with p >= mu
    on sigma's support, the head slots."""
    mu2 = mu.coords2
    return [(omega, omega.sign, p[-1]) for omega, p in points if all(a >= b for a, b in zip(p, mu2))]


@pytest.mark.parametrize("family, n", [("B", 2), ("B", 3), ("B", 4), ("D", 1), ("D", 2), ("D", 3)])
def test_orbit_is_exactly_the_usable_points(family, n):
    rank = make_root_data(family, n).g_rank
    lams = list(iter_dominant_weights(family, rank, 1))
    lams += list(iter_dominant_weights(family, rank, 2))[:2]
    mus = list(iter_dominant_weights(weights.k_family(family), n, 2))
    assert (family == "D") == any(lam.coords2[-1] < 0 for lam in lams)
    assert (family == "B") == any(mu.coords2[-1] < 0 for mu in mus)
    assert scalar_partition_function(make_root_data(family, n).sigma).support == tuple(range(n))
    for lam in lams:
        points = weyl_points(family, n, lam)
        for mu in mus:
            bound = kostant._pair_terms(family, n, lam, mu)
            assert Counter(term[:3] for term in bound) == Counter(usable_terms(points, mu)), (lam, mu)


def test_orbit_and_binding_caches_are_bounded():
    assert kostant._pair_terms.cache_info().maxsize is not None
    assert kostant._sigma.cache_info().maxsize is not None
    assert partition._bind.cache_info().maxsize is not None
    assert tsukamoto._pair_row.cache_info().maxsize == tsukamoto._PAIR_ROWS == 128
    assert weights.check_pair.cache_info().maxsize is not None
    assert weights.weyl_elements.cache_info().maxsize is not None
    assert weights.sign_patterns.cache_info().maxsize is not None
    assert weights.make_root_data.cache_info().maxsize is not None
    assert weights.algebra_positive_roots.cache_info().maxsize is not None
    assert weights.algebra_rho.cache_info().maxsize is not None
    # one whole rank-8 group of permutations
    assert weights._inversion_parity.cache_info().maxsize == math.factorial(8)
    assert oracle._dominant_mults.cache_info().maxsize is not None
    assert oracle._algebra_data.cache_info().maxsize == oracle._ALGEBRA_DATA == 16
    assert oracle._orbit_table.cache_info().maxsize == oracle._ORBIT_TABLES == 256
    assert oracle._chamber.cache_info().maxsize == oracle._CHAMBERS == 32
    # built on the memoised dominant multiplicities; only whole weight
    # systems (the tests' weight_multiplicities) read it
    assert not hasattr(oracle._char_items, "cache_info")
    assert u3_so3._so3_content.cache_info().maxsize is not None
    assert u3_so3._restriction_content.cache_info().maxsize is not None
    # its one caller, _so3_content, is memoised on the same key
    assert not hasattr(u3_so3._gt_torus_counts, "cache_info")


def test_full_sum_unchanged_under_a_tiny_shared_cache():
    queries = list(grid_queries("B", 2, 2)) + list(grid_queries("D", 1, 2))
    expected = [multiplicity_kostant_full(q) for q in queries]
    cache = shared_cache()
    old_limit = cache.max_entries
    try:
        cache.set_max_entries(3)
        assert [multiplicity_kostant_full(q) for q in queries] == expected
        assert len(cache) <= 3
    finally:
        cache.set_max_entries(old_limit)
    assert cache.max_entries == old_limit
