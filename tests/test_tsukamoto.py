import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sobranch import cli, tsukamoto, weights
from sobranch.errors import DomainError, InternalInconsistencyError, MalformedSeriesError
from sobranch.kostant import BranchingQuery, multiplicity_kostant_full
from sobranch.tsukamoto import (
    LaurentPoly,
    enumerate_atuples,
    extract_multiplicities,
    multiplicity_tsukamoto,
    tsukamoto_generating_function,
)
from sobranch.weights import Weight, iter_dominant_weights, make_root_data, tilde

from algebra_reference import interlace_triple, poly_add, poly_mul, poly_sub, quantum_bracket

w = Weight.of_ints


def mono(exp2, coeff=1):
    return LaurentPoly({exp2: coeff})


def pair(l2):
    return poly_sub(mono(l2), mono(-l2))


def test_laurent_basics():
    p = poly_add(mono(2), mono(-2))
    assert p.get(2) == 1 and p.get(0) == 0
    assert not poly_sub(p, p)
    assert poly_mul(p, LaurentPoly({0: 1})) == p
    assert poly_mul(mono(1), mono(1)) == mono(2)
    assert not poly_sub(mono(2), mono(2))
    with pytest.raises(DomainError):
        LaurentPoly({0.5: 1})
    with pytest.raises(DomainError):
        LaurentPoly({True: 1})
    with pytest.raises(DomainError):
        LaurentPoly({0: True})
    # the first bad exponent is named, for a dict and for pairs
    for bad in ({0: 1, 0.5: 1, 1.5: 1}, [(0, 1), (0.5, 1), (1.5, 1)]):
        with pytest.raises(DomainError, match=r"^exponent 0\.5 must be an integer$"):
            LaurentPoly(bad)


poly_strategy = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-4, 4)), max_size=5
).map(LaurentPoly)


@given(poly_strategy, poly_strategy, poly_strategy)
def test_laurent_ring_laws(a, b, c):
    assert poly_add(a, b) == poly_add(b, a)
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_mul(poly_add(a, b), c) == poly_add(poly_mul(a, c), poly_mul(b, c))
    assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


def test_quantum_bracket():
    assert quantum_bracket(1) == LaurentPoly({0: 1})
    assert quantum_bracket(2) == poly_add(mono(2), mono(-2))
    assert quantum_bracket(4) == poly_add(mono(6), mono(2), mono(-2), mono(-6))
    # telescoping: (x - x^-1) * [l] == x^l - x^-l
    for l in range(1, 8):
        assert poly_mul(pair(2), quantum_bracket(l)) == pair(2 * l)
    with pytest.raises(DomainError):
        quantum_bracket(0)
    with pytest.raises(DomainError):
        quantum_bracket(True)


def test_atuple_enumeration_family_B():
    ats = enumerate_atuples("B", w([1, 0, 0]), w([0, 0]))
    assert sorted(at.a for at in ats) == [(0, 0), (1, 0)]
    by_a = {at.a: at.l2 for at in ats}
    # doubled bracket arguments: l = (2, 1, 1/2) and (1, 1, 1/2)
    assert by_a[(0, 0)] == (4, 2, 1)
    assert by_a[(1, 0)] == (2, 2, 1)


def test_atuple_enumeration_family_D():
    ats = enumerate_atuples("D", w([1, 0, 0]), w([0]))
    assert sorted(at.a for at in ats) == [(0, 0), (1, 0)]
    by_a = {at.a: at.l2 for at in ats}
    assert by_a[(0, 0)] == (2, 1)
    assert by_a[(1, 0)] == (4, 1)


def test_atuple_bracket_arguments_positive():
    for family, grank, n, kfam in (("B", 3, 2, "D"), ("D", 3, 1, "B")):
        for lam in iter_dominant_weights(family, grank, 3):
            for mu in iter_dominant_weights(kfam, n, 3):
                if not interlace_triple(family, lam, mu):
                    continue
                for at in enumerate_atuples(family, lam, mu):
                    assert all(v >= 2 and v % 2 == 0 for v in at.l2[:-1])
                    assert at.l2[-1] >= 1 and at.l2[-1] % 2 == 1


ATUPLE_GRIDS = [
    ("B", 2, 3), ("B", 3, 3), ("B", 4, 2), ("B", 5, 2),
    ("D", 1, 3), ("D", 2, 3), ("D", 3, 3), ("D", 4, 2),
]


@pytest.mark.parametrize("family, n, bound", ATUPLE_GRIDS)
def test_no_atuple_off_the_triple_pattern(family, n, bound):
    # the series decides its own zeros: off the vanishing pattern the
    # a-tuple boxes are empty, and on it they hold a tuple, so an interlacing
    # test would add nothing to the enumeration
    rank = make_root_data(family, n).g_rank
    mus = list(iter_dominant_weights(weights.k_family(family), n, bound))
    off = 0
    for lam in iter_dominant_weights(family, rank, bound):
        for mu in mus:
            if not interlace_triple(family, lam, mu):
                off += 1
                assert enumerate_atuples(family, lam, mu) == (), (lam, mu)
            else:
                assert enumerate_atuples(family, lam, mu) != (), (lam, mu)
    assert off > 0


@pytest.mark.parametrize("family, n, bound", ATUPLE_GRIDS)
def test_the_boxes_are_stacked(monkeypatch, family, n, bound):
    # each box lies below the one before it, so the tuples in the boxes are
    # weakly decreasing without a test; the series and the enumeration both
    # read the same boxes
    seen = {}
    boxes = tsukamoto._boxes
    rank = make_root_data(family, n).g_rank
    mus = list(iter_dominant_weights(weights.k_family(family), n, bound))
    for entry in (enumerate_atuples, tsukamoto_generating_function):
        calls = seen[entry.__name__] = []
        monkeypatch.setattr(tsukamoto, "_boxes", lambda *box: calls.append(box) or boxes(*box))
        for lam in iter_dominant_weights(family, rank, bound):
            for mu in mus:
                entry(family, lam, mu)
    assert seen["enumerate_atuples"] == seen["tsukamoto_generating_function"] != []
    for lows1, lows2, highs1, highs2 in seen["enumerate_atuples"]:
        assert len(lows1) == len(lows2) == len(highs1) == len(highs2)
        lows, highs = [*map(max, lows1, lows2)], [*map(min, highs1, highs2)]
        assert all(lo >= hi for lo, hi in zip(lows, highs[1:])), (lows, highs)


def test_an_empty_box_gives_no_tuple():
    # every tuple in the stacked boxes, and none where any box is empty, the
    # last one included; box i is max(lows1[i], lows2[i]) <= a_i <=
    # min(highs1[i], highs2[i]), in doubled coordinates
    def tuples(*bounds):
        return list(itertools.product(*tsukamoto._boxes(*bounds)))

    assert tuples((2, 0), (0, 0), (4, 2), (6, 2)) == [(2, 0), (2, 2), (4, 0), (4, 2)]
    assert tuples((0, 0, 0), (0, 0, 10), (18, 18, 8), (18, 18, 18)) == []
    assert tuples((6, 0), (0, 0), (18, 18), (4, 18)) == []
    assert tuples((), (), (), ()) == [()]
    # the first empty box ends the boxes: no bound after it is read
    assert tsukamoto._boxes(iter((4, "x")), (0, 0), (2, 2), (2, 2)) == [range(4, 3, 2)]


def test_generating_function_examples():
    assert tsukamoto_generating_function("B", w([1, 0, 0]), w([0, 0])) == pair(3)
    assert tsukamoto_generating_function("B", w([0, 0, 0]), w([0, 0])) == pair(1)
    assert tsukamoto_generating_function("D", w([1, 0, 0]), w([0])) == pair(3)
    # triple interlacing fails: zero series
    assert not tsukamoto_generating_function("B", w([1, 0, 0]), w([2, 0]))
    with pytest.raises(DomainError):
        tsukamoto_generating_function("B", w([0, 1, 0]), w([0, 0]))


def test_denominator_exactness():
    # multiplying the assembled term by (x - x^-1)^n recovers the raw product
    for family, lam, mu in (
        ("B", w([3, 2, 1]), w([2, 1])),
        ("B", w([2, 1, 1]), w([2, -1])),
        ("D", w([3, 1, 1]), w([2])),
    ):
        n = mu.rank
        for at in enumerate_atuples(family, lam, mu):
            assembled = pair(at.l2[-1])
            for l2 in at.l2[:-1]:
                assembled = poly_mul(assembled, quantum_bracket(l2 // 2))
            for _ in range(n):
                assembled = poly_mul(assembled, pair(2))
            raw = LaurentPoly({0: 1})
            for l2 in at.l2:
                raw = poly_mul(raw, pair(l2))
            assert assembled == raw


def reference_series(family, lam, mu):
    """The series as a sum of LaurentPoly products of quantum brackets."""
    total = LaurentPoly()
    if interlace_triple(family, lam, mu):
        for at in enumerate_atuples(family, lam, mu):
            term = pair(at.l2[-1])
            for l2 in at.l2[:-1]:
                term = poly_mul(term, quantum_bracket(l2 // 2))
            total = poly_add(total, term)
    return total


@pytest.mark.parametrize("family, n, bound", [
    ("B", 2, 4), ("B", 3, 3), ("B", 4, 2), ("D", 2, 3), ("D", 3, 2),
])
def test_window_sum_series_matches_bracket_products(family, n, bound):
    # every pair of these verify grids, 4,354 a-tuples with brackets [l] up to l = bound + 1
    pairs = {(lam, mu) for lam, mu, _, _ in cli.sweep(family, n, bound, ())}
    for lam, mu in pairs:
        assert tsukamoto_generating_function(family, lam, mu) == reference_series(
            family, lam, mu), (lam, mu)


@pytest.mark.parametrize("family, n, bound", ATUPLE_GRIDS)
def test_transfer_matches_enumerated_bracket_products(family, n, bound):
    # the box-to-box transfer sums the same series as a product of brackets
    # per enumerated tuple, on every pair of the grid, zeros included
    rank = make_root_data(family, n).g_rank
    mus = list(iter_dominant_weights(weights.k_family(family), n, bound))
    for lam in iter_dominant_weights(family, rank, bound):
        for mu in mus:
            assert tsukamoto_generating_function(family, lam, mu) == reference_series(
                family, lam, mu), (lam, mu)


@pytest.mark.parametrize("family, lam, mu, tuples", [
    ("B", (12, 9, 6, 3, 0), (10, 7, 4, 1), 81),
    ("B", (8, 6, 4, 2, 0), (7, 5, 3, -1), 16),
    ("D", (12, 9, 6, 3, -1), (10, 7, 4), 81),
    ("D", (12, 10, 6, 4, -2), (11, 7, 5), 48),
])
def test_transfer_matches_enumeration_on_large_boxes(family, lam, mu, tuples):
    lam, mu = w(list(lam)), w(list(mu))
    assert len(enumerate_atuples(family, lam, mu)) == tuples
    assert tsukamoto_generating_function(family, lam, mu) == reference_series(family, lam, mu)


def test_window_sums_multiply_by_a_bracket():
    # one step of the transfer: a coefficient list (step 2 in the exponent,
    # centred on 0) times [l], and two lists of one parity added on their
    # centres
    def poly(s):
        return LaurentPoly({2 * (len(s) - 1) - 4 * j: c for j, c in enumerate(s)})

    for s in ([1], [2, -1], [1, 0, 3], [1, 2, 3, 4]):
        for l in range(1, 6):
            assert poly(tsukamoto._times_bracket(s, l)) == poly_mul(poly(s), quantum_bracket(l))
    for p, q in (([1, 2, 3], [5]), ([4], [1, 1, 1, 1, 1]), ([1, 2], [3, 4, 5, 6])):
        assert poly(tsukamoto._add_centred(p, q)) == poly_add(poly(p), poly(q))


def test_the_series_does_not_enumerate_tuples(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_atuples called")

    want = tsukamoto_generating_function("B", w([3, 2, 1]), w([2, 1]))
    monkeypatch.setattr(tsukamoto, "enumerate_atuples", refuse)
    assert tsukamoto_generating_function("B", w([3, 2, 1]), w([2, 1])) == want != LaurentPoly()


def widen(widened):
    """A ``_boxes`` whose every box is passed through ``widened``."""
    boxes = tsukamoto._boxes
    return lambda *bounds: [widened(j, box) for j, box in enumerate(boxes(*bounds))]


@pytest.mark.parametrize("boxes, error", [
    # odd coordinates: box 1 holds a_1 = 1/2, and the bracket [min(1, 1) -
    # max(0, 1/2) + 1] is [3/2]
    (widen(lambda j, box: range(box.start, box.stop)), "step 2 -> 1 gives doubled bracket 3$"),
    # a_2 = -1 below zero
    (widen(lambda j, box: range(box.start - 2 * (j == 2), box.stop, 2)), "last parameter -2 "),
    # a_2 = 1 above a_1 = 0
    (widen(lambda j, box: range(box.start, box.stop + 2 * (j == 2), 2)), "step 0 -> 2 "),
], ids=["odd-head-argument", "negative-last", "increasing"])
def test_every_step_checks_its_tuple(monkeypatch, boxes, error):
    # B n=2, lam = (1, 0, 0), mu = (0, 0): a_0 = 1, a_1 in {0, 1}, a_2 = 0
    monkeypatch.setattr(tsukamoto, "_boxes", boxes)
    for entry in (enumerate_atuples, tsukamoto_generating_function):
        with pytest.raises(InternalInconsistencyError, match=error):
            entry("B", w([1, 0, 0]), w([0, 0]))


def test_extract_multiplicities():
    assert extract_multiplicities(pair(3)) == {1: 1}
    series = poly_add(LaurentPoly({1: 2, -1: -2}), pair(5))
    assert extract_multiplicities(series) == {0: 2, 2: 1}
    assert extract_multiplicities(LaurentPoly()) == {}


def test_extract_rejects_malformed_series():
    with pytest.raises(MalformedSeriesError):
        extract_multiplicities(mono(2))  # integral exponent
    with pytest.raises(MalformedSeriesError):
        extract_multiplicities(poly_add(mono(1), mono(-1)))  # symmetric part
    with pytest.raises(MalformedSeriesError):
        extract_multiplicities(poly_add(mono(1, -1), mono(-1, 1)))  # negative m_0


def test_multiplicity_examples():
    assert multiplicity_tsukamoto(BranchingQuery("B", 2, w([1, 0, 0]), w([0, 0]), 1)) == 1
    assert multiplicity_tsukamoto(BranchingQuery("B", 2, w([1, 0, 0]), w([0, 0]), 3)) == 0
    assert multiplicity_tsukamoto(BranchingQuery("D", 1, w([1, 1, 1]), w([1]), 1)) == 1
    # a family D lam with a negative last coordinate is answered from its own a-tuples
    assert multiplicity_tsukamoto(BranchingQuery("D", 1, w([1, 1, -1]), w([1]), 1)) == 1
    # family B accepts a negative last coordinate of mu directly
    assert multiplicity_tsukamoto(BranchingQuery("B", 2, w([2, 1, 1]), w([2, -1]), 1)) == 1


def test_agreement_with_full_weyl_sum():
    for family, n, grank, kfam in (("B", 2, 3, "D"), ("D", 1, 3, "B")):
        for lam in iter_dominant_weights(family, grank, 2):
            for mu in iter_dominant_weights(kfam, n, 2):
                series = tsukamoto_generating_function(family, lam, mu)
                table = extract_multiplicities(series)
                for k in range(sum(abs(c) for c in lam.to_ints()) + 1):
                    q = BranchingQuery(family, n, lam, mu, k)
                    assert table.get(k, 0) == multiplicity_kostant_full(q)


def test_total_h_dimension_matches_oracle():
    from sobranch.oracle import branch_oracle

    for family, n, kfam in (("B", 2, "D"), ("D", 1, "B")):
        grank = n + 1 if family == "B" else n + 2
        for lam in iter_dominant_weights(family, grank, 2):
            oracle_table = branch_oracle(family, n, lam)
            for mu in iter_dominant_weights(kfam, n, 2):
                series = extract_multiplicities(
                    tsukamoto_generating_function(family, lam, mu)
                )
                from_series = sum(m * (2 * k + 1) for k, m in series.items())
                from_oracle = sum(
                    m * (2 * k + 1)
                    for (mu_t, k), m in oracle_table.items()
                    if mu_t == mu.to_ints()
                )
                assert from_series == from_oracle


@pytest.mark.parametrize("n, bound", [(1, 3), (2, 2)])
def test_family_D_series_is_tilde_invariant(n, bound):
    # each tilde twin's series is built from its own a-tuples, and the two
    # must be equal
    pairs = {(lam, mu) for lam, mu, _, _ in cli.sweep("D", n, bound, ())}
    twisted = [(lam, mu) for lam, mu in pairs if lam.coords2[-1] < 0]
    assert twisted
    for lam, mu in twisted:
        assert tsukamoto_generating_function("D", lam, mu) == tsukamoto_generating_function(
            "D", tilde("D", lam), mu
        ), (lam, mu)
