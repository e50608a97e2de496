import itertools
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sobranch.errors import DomainError
from sobranch.partition import (
    PartitionFunction,
    count_sigma_prime,
    count_vector_partitions,
    partition_function,
    shared_cache,
)
from sobranch.weights import Weight, make_root_data

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
            tail = sum(count_sigma_prime(n, nu.shift_last(2 * r)) for r in range(m))
            assert p_nu == count_vector_partitions(
                sigma_double_prime, nu.shift_last(2 * m)
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
        cold = _cold_binding(rd.sigma)
        assert warm == [count_vector_partitions(cold, t) for t in targets]
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
        results[tag] = [count_vector_partitions(cold, t) for t in targets]

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
        assert count_vector_partitions(bound, target) == count_vector_partitions(rd.sigma, target)
    assert count_vector_partitions(bound, Weight((1, 0, 0))) == 0  # half-integral
    with pytest.raises(DomainError):
        count_vector_partitions(bound, w([1, 0]))
    for gens in ([], [w([1, 0]), w([1])], [w([1, 0]), w([0, 0])], [w([1, 0]), w([-1, 0])]):
        with pytest.raises(DomainError):
            partition_function(gens)
