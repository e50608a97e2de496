import itertools
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobranch.errors import DomainError
from sobranch.partition import (
    PartitionCache,
    PartitionFunction,
    count_sigma_prime,
    count_vector_partitions,
    partition_function,
    shared_cache,
)
from sobranch.weights import Weight, make_root_data

from algebra_reference import shift_last
from partition_reference import ScalarPartitionFunction, scalar_partition_function

w = Weight.of_ints


def brute_sigma_prime(n, target):
    """Independent enumeration over all splits a_i + b_i = t_i."""
    if not target.is_integral:
        return 0
    t = target.to_ints()
    head, last = t[:n], t[n]
    if any(v < 0 for v in head):
        return 0
    count = 0
    for splits in itertools.product(*(range(v + 1) for v in head)):
        balance = sum(2 * a - v for a, v in zip(splits, head))
        if balance == last:
            count += 1
    return count


def test_single_generator():
    assert count_vector_partitions([w([1])], w([3])) == 1
    assert count_vector_partitions([w([2])], w([3])) == 0


def test_sigma_prime_examples():
    gens = [w([1, 1]), w([1, -1])]
    assert count_vector_partitions(gens, w([1, 1])) == 1
    assert count_vector_partitions(gens, w([2, 0])) == 1
    assert count_vector_partitions(gens, w([1, 0])) == 0


def test_count_sigma_prime_examples():
    assert count_sigma_prime(1, w([0, 0])) == 1
    assert count_sigma_prime(2, w([1, 1, 0])) == 2
    assert count_sigma_prime(1, w([1, 3])) == 0


def test_empty_generators_and_degenerate_targets():
    assert count_vector_partitions([], w([0, 0])) == 1
    assert count_vector_partitions([], w([1, 0])) == 0
    assert count_vector_partitions([w([1, 1])], Weight((1, 1))) == 0  # half-integral
    assert count_sigma_prime(1, Weight((1, 1))) == 0


def test_domain_errors():
    with pytest.raises(DomainError):
        count_vector_partitions([w([1, 0])], w([1]))
    with pytest.raises(DomainError):
        count_vector_partitions([w([0, 0])], w([1, 0]))
    with pytest.raises(DomainError):
        # opposite generators span a line: not a pointed cone
        count_vector_partitions([w([1, 0]), w([-1, 0])], w([0, 0]))
    with pytest.raises(DomainError):
        count_sigma_prime(2, w([1, 1]))
    for n in (True, 1.0):  # a bool would read as n = 1
        with pytest.raises(DomainError):
            count_sigma_prime(n, Weight((2, 2)))


def test_specialization_matches_generic_dp():
    for n in (1, 2, 3):
        rank = n + 1
        e_last = Weight.basis(rank, n)
        gens = [
            Weight.basis(rank, i) + e_last.scaled(s) for i in range(n) for s in (1, -1)
        ]
        for coords in itertools.product(range(-6, 7), repeat=rank):
            target = w(coords)
            assert count_sigma_prime(n, target) == count_vector_partitions(gens, target)


def test_specialization_matches_brute_force():
    for n in (1, 2):
        for coords in itertools.product(range(-4, 5), repeat=n + 1):
            target = w(coords)
            assert count_sigma_prime(n, target) == brute_sigma_prime(n, target)


def test_support_conditions_family_B():
    rd = make_root_data("B", 2)
    for coords in itertools.product(range(-4, 5), repeat=3):
        target = w(coords)
        if count_vector_partitions(rd.sigma, target) > 0:
            assert coords[0] >= 0 and coords[1] >= 0
            assert abs(coords[2]) <= coords[0] + coords[1]


def test_support_conditions_family_D():
    rd = make_root_data("D", 2)
    for coords in itertools.product(range(-3, 4), repeat=3):
        target = w(coords)
        if count_vector_partitions(rd.sigma, target) > 0:
            assert coords[0] >= 0 and coords[1] >= 0
            assert coords[2] <= coords[0] + coords[1]


@given(st.lists(st.integers(0, 5), min_size=3, max_size=3), st.integers(0, 3))
def test_monotone_exhaustion(coords, drop):
    rd = make_root_data("B", 2)
    target = w(coords)
    sub = list(rd.sigma)
    del sub[drop]
    assert count_vector_partitions(sub, target) <= count_vector_partitions(
        rd.sigma, target
    )


def test_doubling_identity_small():
    # the n <= 3 grid runs in the acceptance suite
    n = 2
    for coords in itertools.product(range(-4, 5), repeat=n + 1):
        nu = w(coords)
        lhs = 0
        for size in range(n + 1):
            for subset in itertools.combinations(range(n), size):
                beta = [1 if i in subset else 0 for i in range(n)] + [0]
                lhs += count_sigma_prime(n, nu - w(beta))
        assert lhs == count_sigma_prime(n, nu.scaled(2))


def test_staircase_recursion_small():
    n = 2
    e_last = Weight.basis(n + 1, n)
    sigma_prime = tuple(Weight.basis(n + 1, i) + e_last.scaled(s) for i in range(n) for s in (1, -1))
    sigma_double_prime = sigma_prime + (-e_last,)
    for coords in itertools.product(range(-3, 4), repeat=n + 1):
        nu = w(coords)
        p_nu = count_vector_partitions(sigma_double_prime, nu)
        for m in (1, 3, 6):
            tail = sum(count_sigma_prime(n, shift_last(nu, 2 * r)) for r in range(m))
            assert p_nu == count_vector_partitions(
                sigma_double_prime, shift_last(nu, 2 * m)
            ) + tail


def _cold_binding(generators):
    """A new binding of the multiset: its memo namespace is new, so it
    counts from a cold cache."""
    return PartitionFunction(partition_function(generators).gens2)


def test_cache_is_bounded_and_evicts_wholesale():
    cache = shared_cache()
    old_limit = cache.max_entries
    rd = make_root_data("B", 2)
    targets = [w(coords) for coords in itertools.product(range(3), repeat=3)]
    try:
        cache.set_max_entries(8)
        for t in targets:
            count_vector_partitions(rd.sigma, t)
        assert len(cache) <= 8
        # results are identical with a warm small cache and a cold large one
        warm = [count_vector_partitions(rd.sigma, t) for t in targets]
        cache.set_max_entries(10_000)
        cold = scalar_partition_function(rd.sigma)
        assert warm == [cold.count(t.coords2) for t in targets]
    finally:
        cache.set_max_entries(old_limit)


def test_concurrent_use_of_shared_cache():
    cache = shared_cache()
    old_limit = cache.max_entries
    rd = make_root_data("B", 2)
    targets = [w(c) for c in itertools.product(range(-2, 4), repeat=3)]
    expected = [count_vector_partitions(rd.sigma, t) for t in targets]
    cold = _cold_binding(rd.sigma)  # the four threads fill its entries together
    results = {}

    def worker(tag):
        results[tag] = [cold.row(t.coords2[:-1])[t.coords2[-1]] for t in targets]

    try:
        cache.set_max_entries(100_000)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        cache.set_max_entries(old_limit)
    assert all(results[i] == expected for i in range(4))


def test_duplicate_generators_are_distinct():
    gen = w([1, 0])
    assert count_vector_partitions([gen, gen], w([2, 0])) == 3
    assert count_vector_partitions([gen], w([2, 0])) == 1


def test_bound_partition_function_counts_like_the_generator_list():
    rd = make_root_data("D", 2)
    bound = partition_function(rd.sigma)
    assert partition_function(reversed(rd.sigma)) is bound  # one binding per multiset
    for coords in itertools.product(range(-2, 3), repeat=3):
        target = w(coords)
        assert scalar_partition_function(rd.sigma).count(target.coords2) == count_vector_partitions(
            rd.sigma, target
        )
    assert count_vector_partitions(rd.sigma, Weight((1, 0, 0))) == 0  # half-integral
    with pytest.raises(DomainError):
        count_vector_partitions(rd.sigma, w([1, 0]))
    for gens in ([], [w([1, 0]), w([1])], [w([1, 0]), w([0, 0])], [w([1, 0]), w([-1, 0])]):
        with pytest.raises(DomainError):
            partition_function(gens)


def assert_rows_match_counts(bound, heads, lasts):
    reference = ScalarPartitionFunction(bound.gens2)
    for head in heads:
        row = bound.row(head)
        for last in lasts:
            assert row[last] == reference.count(head + (last,)), (head, last)


@pytest.mark.parametrize("family, n", [("B", 2), ("B", 3), ("B", 4),
                                       ("D", 1), ("D", 2), ("D", 3), ("D", 4)])
def test_row_matches_the_scalar_count_on_sigma(family, n):
    bound = partition_function(make_root_data(family, n).sigma)
    top = 2 if n < 4 else 1
    heads = [tuple(2 * c for c in coords)
             for coords in itertools.product(range(-1, top + 1), repeat=n)]
    # a head of coordinate sum s reaches last coordinates -s..s: the box runs
    # past both ends, where family D's suffix sum (-e_last) is not 0
    reach = 2 * (n * top + 3)
    assert_rows_match_counts(bound, heads, range(-reach, reach + 1))
    if family == "D":
        assert bound.row((2,) * n)[-reach] > 0


def test_row_applies_a_negative_zero_head_generator():
    gens = [w([1, 0, 3]), w([0, 1, -1]), w([1, 1, 0]), w([0, 0, -1])]
    bound = partition_function(gens)
    heads = [tuple(2 * c for c in coords) for coords in itertools.product(range(-1, 4), repeat=2)]
    assert_rows_match_counts(bound, heads, range(-30, 31))
    assert bound.row((2, 2))[-30] > 0


def test_row_refuses_multisets_it_cannot_serve():
    # pointed (phi = (0, 1)), but the head projections 1 and -1 are not
    hourglass = [w([1, 1]), w([-1, 1])]
    reference = ScalarPartitionFunction(sorted(g.coords2 for g in hourglass))
    assert reference.count((0, 4)) == 1  # (0, 2) = (1, 1) + (-1, 1)
    with pytest.raises(DomainError):
        partition_function(hourglass)
    # two generators with a zero head projection
    with pytest.raises(DomainError):
        partition_function([w([1, 0]), w([0, 1]), w([0, 2])])
    # one, with a positive last coordinate
    with pytest.raises(DomainError):
        partition_function([w([1, 0, 3]), w([0, 1, -1]), w([0, 0, 3])])


def test_cache_cap_counts_histogram_cells():
    cache = PartitionCache(10)
    cache.put("row", {0: 1, 2: 1, 4: 2}, 8)
    cache.put("count", 5)
    assert len(cache) == 2
    cache.put("another", 1, 2)  # 8 + 1 + 2 cells pass the cap of 10
    assert len(cache) == 1 and cache.get("row") is None and cache.get("another") == 1
    cache.set_max_entries(2)
    assert len(cache) == 1
    cache.set_max_entries(1)
    assert len(cache) == 0


def test_cache_keeps_no_value_heavier_than_its_cap():
    cache = PartitionCache(3)
    cache.put("count", 5)
    cache.put("row", {0: 1}, 10)
    # returned uncached: the cap holds, and what was kept stays
    assert cache.get("row") is None and cache.get("count") == 5
    assert cache._cells == 1 and len(cache) == 1


def _idot(u, v):
    return sum(a * b for a, b in zip(u, v))


def brute_partitions(gens, phi, target):
    """Every multiplicity vector m >= 0 with phi . (sum m_i g_i) <= phi .
    target, enumerated one generator at a time with no memo and no sign
    test; counts those with sum m_i g_i == target.  ``phi`` must be
    positive on every generator."""

    def rec(i, residual):
        if i == len(gens):
            return int(not any(residual))
        total = 0
        while _idot(phi, residual) >= 0:
            total += rec(i + 1, residual)
            residual = [a - b for a, b in zip(residual, gens[i])]
        return total

    return rec(0, list(target))


@st.composite
def pointed_cases(draw):
    """(phi, generators, targets): up to four generators of rank 1-3 with
    coordinates in [-2, 2], each positive under phi, so their cone is
    pointed; coordinates take either sign."""
    rank = draw(st.integers(1, 3))
    phi = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(any))
    vector = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    gens = draw(st.lists(vector.filter(lambda g: _idot(phi, g) > 0), min_size=1, max_size=4))
    target = st.lists(st.integers(-2, 3), min_size=rank, max_size=rank)
    return phi, gens, draw(st.lists(target, min_size=1, max_size=6))


@settings(derandomize=True, database=None, max_examples=200)
@given(pointed_cases())
# mixed-sign coordinates: coordinate 1 takes both signs
@example(([2, 1], [[1, -1], [1, 1], [0, 1]], [[2, 0], [3, 1], [1, -1], [2, 2]]))
# sorted, the generators are (0,-1) < (1,0) < (1,1): coordinate 1 is >= 0
# only on the suffix after the first
@example(([2, -1], [[1, 1], [0, -1], [1, 0]], [[2, 1], [2, -1], [1, 2], [3, 0], [0, -2]]))
# targets negative on coordinate 0, where every generator is >= 0
@example(([1, 0], [[1, 1], [1, -1]], [[-1, 1], [-2, 0], [-1, -1], [2, 0]]))
def test_count_matches_brute_force_on_pointed_generators(case):
    phi, gens, targets = case
    rank = len(phi)
    support = [c for c in range(rank) if all(g[c] >= 0 for g in gens)]
    generators = [w(g) for g in gens]
    for t in targets:
        expected = brute_partitions(gens, phi, t)
        assert count_vector_partitions(generators, w(t)) == expected, (gens, t)
        if any(t[c] < 0 for c in support):
            assert expected == 0
