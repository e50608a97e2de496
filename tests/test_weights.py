import copy
import itertools
import operator
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algebra_reference import CharacterMap, apply, compose, identity, poly_sub, reflection, transposition

from sobranch.clebsch_gordan import So3MultiSet
from sobranch.errors import DomainError
from sobranch.oracle import MultiplicityTable
from sobranch.tsukamoto import LaurentPoly
from sobranch.u3_so3 import U3Weight
from sobranch.weights import (
    BranchingQuery,
    IntMap,
    SignedPermutation,
    algebra_positive_roots,
    algebra_rho,
    Weight,
    interlace,
    is_dominant,
    iter_dominant_weights,
    make_root_data,
    normalize_pair,
    restrict,
    sign_patterns,
    tilde,
    weyl_elements,
)

w = Weight.of_ints


def test_weight_storage_and_arithmetic():
    a = w([3, 2, 1])
    assert a.rank == 3
    assert a.coords2 == (6, 4, 2)
    assert a.to_ints() == (3, 2, 1)
    assert (a - w([1, 1, 1])).to_ints() == (2, 1, 0)
    assert (-a).to_ints() == (-3, -2, -1)
    assert a.scaled(2).to_ints() == (6, 4, 2)
    assert a.shift_last(3).coords2 == (6, 4, 5)
    assert not a.shift_last(1).is_integral
    with pytest.raises(DomainError):
        a + w([1, 1])
    with pytest.raises(DomainError):
        a.shift_last(1).to_ints()
    # of_ints takes plain integers only, as the constructor does: no
    # truncated float, no bool read as 1, no parsed string
    for coords in ((1.5, 0, 0), (True, 0), ("2",)):
        with pytest.raises(DomainError):
            w(coords)


def test_root_data_family_B():
    rd = make_root_data("B", 2)
    assert len(algebra_positive_roots(*rd.g_algebra)) == 9
    assert rd.rho_g == Weight((5, 3, 1))
    assert algebra_rho(*rd.k_algebra) == w([1, 0])
    assert algebra_rho("B", 1) == Weight((1,))  # SO(3)'s Weyl vector, 1/2
    assert sorted(x.to_ints() for x in rd.sigma) == sorted(
        [(1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1), (1, 0, 0), (0, 1, 0)]
    )
    # sigma'' = sigma' (the e_i +- e_last of sigma) together with -e_last
    sigma_prime = {x for x in rd.sigma if x.coords2[-1]}
    sigma_double_prime = {w([1, 0, 1]), w([1, 0, -1]), w([0, 1, 1]), w([0, 1, -1]), w([0, 0, -1])}
    assert sigma_double_prime == sigma_prime | {Weight((0, 0, -2))}
    assert len(algebra_positive_roots(*rd.k_algebra)) == 2  # D_2


def test_root_data_family_D():
    rd = make_root_data("D", 1)
    assert len(algebra_positive_roots(*rd.g_algebra)) == 6  # (n+2)(n+1) at n=1
    assert sorted(x.to_ints() for x in rd.sigma) == sorted(
        [(1, 1), (1, -1), (1, 0), (0, -1)]
    )
    assert len(rd.sigma) == 4
    assert rd.rho_g == w([2, 1, 0])
    assert algebra_rho(*rd.k_algebra) == Weight((1,))  # B_1 Weyl vector is 1/2
    rd2 = make_root_data("D", 2)
    assert len(algebra_positive_roots(*rd2.g_algebra)) == 12
    assert rd2.rho_g == w([3, 2, 1, 0])


def test_root_data_rejects_small_n():
    with pytest.raises(DomainError):
        make_root_data("B", 1)
    with pytest.raises(DomainError):
        make_root_data("D", 0)
    with pytest.raises(DomainError):
        make_root_data("A", 2)
    with pytest.raises(DomainError):
        make_root_data("B", 2.5)


def test_weyl_group_counts_and_uniqueness():
    b3 = list(weyl_elements("B", 3))
    assert len(b3) == 48 and len(set(b3)) == 48
    d3 = list(weyl_elements("D", 3))
    assert len(d3) == 24 and len(set(d3)) == 24
    assert all(len(om.flips) % 2 == 0 for om in d3)
    assert identity(3).sign == 1
    assert transposition(3, 0, 2).sign == -1
    assert reflection(3, 1).sign == -1
    assert SignedPermutation((1, 2, 0), frozenset((0, 2))).sign == 1


@pytest.mark.parametrize("family", ["B", "D"])
@pytest.mark.parametrize("rank", range(1, 7))
def test_sign_patterns_match_brute_force(family, rank):
    patterns = sign_patterns(family, rank)
    if family == "D" and rank == 1:
        assert patterns == ((1, ()),)
        return
    flip_sets = [frozenset(flips) for _, flips in patterns]
    every = [
        frozenset(subset)
        for size in range(rank + 1)
        for subset in itertools.combinations(range(rank), size)
        if family == "B" or size % 2 == 0
    ]
    assert len(flip_sets) == len(set(flip_sets))
    assert set(flip_sets) == set(every)
    assert all(flips == tuple(sorted(flips)) for _, flips in patterns)
    assert all(sign == (-1) ** len(flips) for sign, flips in patterns)
    # ``kostant._pair_terms`` indexes the patterns by the product of the
    # signs of the slots ``restrict`` keeps
    kept = restrict(family, Weight(tuple(range(rank)))).coords2
    assert [tuple(j in flips for j in kept) for flips in flip_sets] == list(
        itertools.product((False, True), repeat=len(kept))
    )


def test_sign_patterns_reject_bad_input():
    with pytest.raises(DomainError):
        sign_patterns("A", 2)
    with pytest.raises(DomainError):
        sign_patterns("B", 0)
    with pytest.raises(DomainError):
        weyl_elements("D", 0)


def test_apply_examples():
    rho = Weight((5, 3, 1))
    s3 = reflection(3, 2)
    assert apply(s3, rho) == Weight((5, 3, -1))
    assert apply(identity(3), rho) == rho
    p23 = transposition(3, 1, 2)
    assert apply(p23, w([7, 8, 9])) == w([7, 9, 8])
    with pytest.raises(DomainError):
        apply(s3, w([1, 2]))


def test_apply_preserves_coordinate_multiset_up_to_sign():
    v = w([4, 2, -1])
    for om in weyl_elements("B", 3):
        image = apply(om, v)
        assert sorted(abs(c) for c in image.coords2) == sorted(
            abs(c) for c in v.coords2
        )


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda r: st.tuples(
            st.permutations(range(r)),
            st.sets(st.integers(0, r - 1)),
            st.permutations(range(r)),
            st.sets(st.integers(0, r - 1)),
        )
    )
)
def test_sign_is_a_homomorphism(data):
    p1, f1, p2, f2 = data
    a = SignedPermutation(tuple(p1), frozenset(f1))
    b = SignedPermutation(tuple(p2), frozenset(f2))
    assert compose(a, b).sign == a.sign * b.sign


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda r: st.tuples(
            st.permutations(range(r)),
            st.sets(st.integers(0, r - 1)),
            st.lists(st.integers(-3, 3), min_size=r, max_size=r),
        )
    )
)
def test_composition_matches_sequential_application(data):
    p1, f1, coords = data
    a = SignedPermutation(tuple(p1), frozenset(f1))
    b = transposition(a.rank, 0, a.rank - 1)
    v = w(coords)
    assert apply(compose(a, b), v) == apply(a, apply(b, v))


def test_dominant_weight_is_lex_max_of_its_orbit():
    for rank in (2, 3, 4):
        for lam in iter_dominant_weights("B", rank, 2):
            orbit = {apply(om, lam) for om in weyl_elements("B", rank)}
            assert max(orbit) == lam


def test_dominance():
    assert is_dominant("B", w([2, 1, 0]))
    assert not is_dominant("B", w([2, 1, -1]))
    assert is_dominant("D", w([2, 1, -1]))
    assert not is_dominant("D", w([2, 1, -2]))
    assert is_dominant("D", w([5]))


def test_interlace_simple():
    assert interlace("simple", "B", w([1, 0, 0]), w([0, 0]))
    assert not interlace("simple", "B", w([1, 0, 0]), w([1, 1]))
    assert interlace("simple", "B", w([2, 1, 1]), w([2, -1]))
    assert interlace("simple", "D", w([2, 1, 0]), w([1]))
    assert not interlace("simple", "D", w([2, 2, 0]), w([1]))


def test_interlace_triple():
    # lam_1 >= mu_1 >= lam_4 = 0 and lam_2 >= |mu_2|
    assert interlace("triple", "B", w([2, 1, 0]), w([1, -1]))
    assert not interlace("triple", "B", w([2, 1, 0]), w([2, 2]))
    assert interlace("triple", "D", w([2, 1, 1]), w([2]))
    assert not interlace("triple", "D", w([2, 1, 1]), w([3]))
    # family D, n=2: lam_1 >= mu_1 >= |lam_4| and lam_2 >= mu_2
    assert interlace("triple", "D", w([2, 2, 1, -1]), w([1, 1]))
    assert not interlace("triple", "D", w([2, 2, 1, -1]), w([0, 0]))


def test_interlace_rejects_non_dominant_inputs():
    # the mu side here is not dominant for SO(4), so this is a domain error
    with pytest.raises(DomainError):
        interlace("triple", "B", w([2, 1, 0]), w([0, -1]))
    with pytest.raises(DomainError):
        interlace("simple", "B", w([0, 1, 0]), w([0, 0]))
    with pytest.raises(DomainError):
        interlace("cubic", "B", w([1, 0, 0]), w([0, 0]))


def test_tilde():
    assert tilde("B", w([2, -1])) == w([2, 1])
    assert tilde("D", w([3, 1, -1])) == w([3, 1, 1])
    assert tilde("B", w([2, 0])) == w([2, 0])
    v = w([3, 1, -1])
    assert tilde("D", tilde("D", v)) == v


def test_restrict():
    assert restrict("B", w([3, 2, 1])) == w([3, 2, 1])
    assert restrict("D", w([5, 7, 9])) == w([5, 9])
    assert restrict("D", w([3, 2, 1, 0])) == w([3, 2, 0])


def test_iter_dominant_weights():
    b = list(iter_dominant_weights("B", 2, 1))
    assert [x.to_ints() for x in b] == [(1, 1), (1, 0), (0, 0)]
    d = list(iter_dominant_weights("D", 2, 1))
    assert [x.to_ints() for x in d] == [(1, 1), (1, -1), (1, 0), (0, 0)]
    # B: strictly decreasing lexicographic; D: the same on the weights with a
    # non-negative last coordinate, each positive one followed by its twin
    for rank, max_first in [(1, 3), (3, 2), (4, 2)]:
        b = [x.to_ints() for x in iter_dominant_weights("B", rank, max_first)]
        assert b == sorted(set(b), reverse=True)
        d = [x.to_ints() for x in iter_dominant_weights("D", rank, max_first)]
        assert [t for t in d if t[-1] >= 0] == b
        assert len(d) == len(set(d)) == len(b) + sum(t[-1] > 0 for t in b)
        for i, t in enumerate(d):
            if t[-1] > 0:
                assert d[i + 1] == t[:-1] + (-t[-1],)
    # rank and max_first are plain integers: a bool would read as 1, a float
    # would fail inside range
    for rank, max_first in [(True, 1), (2, True), (2.0, 1), (2, 1.0)]:
        with pytest.raises(DomainError):
            list(iter_dominant_weights("B", rank, max_first))


VALID_QUERY = ("D", 1, w([2, 1, -1]), w([1]), 1)
BAD_QUERIES = [
    ("B", 1, w([1, 0]), w([0]), 0),  # n below the family's minimum
    ("B", 2, w([0, 1, 0]), w([0, 0]), 0),  # lam not dominant
    ("D", 1, w([2, 1, -1]), w([1, 0]), 1),  # mu of the wrong rank
    ("D", 1, w([2, 1, -1]), w([1]), -1),  # k < 0
    ("B", 2.0, w([1, 0, 0]), w([0, 0]), 1),  # n not an int
    ("D", 1, w([2, 1, -1]), w([1]), 1.5),  # k not an int
    ("D", 1, w([2, 1, -1]), w([1]), True),  # k a bool
]
#: every validated named tuple: valid fields, a valid change of one, the repr
VALUES = [
    (BranchingQuery, VALID_QUERY, {"k": 2},
     "BranchingQuery(family='D', n=1, lam=(2, 1, -1), mu=(1), k=1)"),
    (Weight, ((2, 0, -1),), {"coords2": (2, 0, 1)}, "(1, 0, -1/2)"),
    (SignedPermutation, ((1, 0, 2), frozenset({2})), {"flips": frozenset()},
     "SignedPermutation(perm=(1, 0, 2), flips=frozenset({2}))"),
    (U3Weight, (2, 1, 0), {"a3": -1}, "U3Weight(a1=2, a2=1, a3=0)"),
]
VALID_FIELDS = {cls: fields for cls, fields, _, _ in VALUES}
BAD_VALUES = [pytest.param(BranchingQuery, f, id=f"fields{i}") for i, f in enumerate(BAD_QUERIES)] + [
    pytest.param(Weight, ((2, 1.0),), id="Weight-float"),
    pytest.param(Weight, ((2, "1"),), id="Weight-str"),
    pytest.param(Weight, ((True, 2),), id="Weight-bool"),
    pytest.param(SignedPermutation, ((0, 0, 1), frozenset()), id="SignedPermutation-repeat"),
    pytest.param(SignedPermutation, ((1, 0), frozenset({2})), id="SignedPermutation-flip"),
    pytest.param(U3Weight, (1, 2, 0), id="U3Weight-increasing"),
    pytest.param(U3Weight, (2, 1.0, 0), id="U3Weight-float"),
    pytest.param(U3Weight, (True, False, False), id="U3Weight-bool"),
]


@pytest.mark.parametrize("cls, fields", BAD_VALUES)
def test_every_way_to_make_a_query_validates_it(cls, fields):
    """The query and every value type: no way to make one skips its checks."""
    value = cls(*VALID_FIELDS[cls])
    # pickle and copy rebuild a value from __reduce_ex__ through __new__
    rebuild, (rebuilt_cls, *_) = value.__reduce_ex__(2)[:2]
    assert rebuilt_cls is cls
    for make in (
        lambda: cls(*fields),
        lambda: cls._make(fields),
        lambda: value._replace(**dict(zip(cls._fields, fields))),
        lambda: rebuild(cls, *fields),
    ):
        with pytest.raises(DomainError):
            make()


def test_query_is_an_immutable_value():
    """The query and every value type, in one loop over VALUES."""
    for cls, fields, change, text in VALUES:
        value = cls(*fields)
        with pytest.raises(AttributeError):
            setattr(value, cls._fields[-1], fields[-1])
        with pytest.raises(AttributeError):
            value.extra = 0
        twin = cls(*copy.deepcopy(fields))
        assert twin == value and hash(twin) == hash(value) and twin is not value
        assert value != value._replace(**change)
        for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)),
                      value._replace(), cls._make(fields)):
            assert type(other) is cls and other == value and hash(other) == hash(value)
        assert repr(value) == text


def test_normalize_pair_twists_the_last_coordinate():
    for fields, want in (
        (VALID_QUERY, ("D", 1, w([2, 1, 1]), w([1]), 1)),
        (("B", 2, w([2, 1, 1]), w([2, -1]), 3), ("B", 2, w([2, 1, 1]), w([2, 1]), 3)),
        (("B", 2, w([2, 1, 0]), w([1, 0]), 0), ("B", 2, w([2, 1, 0]), w([1, 0]), 0)),
    ):
        family, n, lam, mu, k = fields
        got = BranchingQuery(family, n, *normalize_pair(family, lam, mu), k)
        assert type(got) is BranchingQuery and got == BranchingQuery(*want)
    # a pair already normal comes back as the same objects
    lam, mu = w([2, 1, 0]), w([1, 0])
    assert all(map(operator.is_, normalize_pair("B", lam, mu), (lam, mu)))


def test_a_query_derived_per_k_is_a_full_query():
    # with_k checks only k: the query it derives equals, hashes, prints,
    # copies and pickles like one built from its fields, and a bad k raises
    # the constructor's message
    pair = VALID_QUERY[:4]
    base = BranchingQuery(*pair, 0)
    for k in (0, 1, 7):
        derived, built = base.with_k(k), BranchingQuery(*pair, k)
        assert type(derived) is BranchingQuery and derived == built
        assert hash(derived) == hash(built) and repr(derived) == repr(built)
        for other in (copy.copy(derived), pickle.loads(pickle.dumps(derived))):
            assert type(other) is BranchingQuery and other == built
    for k, message in ((True, "k must be an integer, got True"),
                       (1.5, "k must be an integer, got 1.5"), (-1, "k must be non-negative")):
        for make in (base.with_k, lambda k: BranchingQuery(*pair, k)):
            with pytest.raises(DomainError) as raised:
                make(k)
            assert str(raised.value) == message


#: one value of each container on IntMap, with its pinned repr
INT_MAPS = [
    pytest.param(So3MultiSet({1: 2, 0: 1}), "{tau_0: 1, tau_1: 2}", id="So3MultiSet"),
    pytest.param(LaurentPoly({4: 1, 1: 2, -3: -1}), "-1*x^-3/2 + 2*x^1/2 + 1*x^2",
                 id="LaurentPoly"),
    pytest.param(LaurentPoly(), "0", id="LaurentPoly-zero"),
    pytest.param(CharacterMap({(1, -1): 2, (0, 0): -1}), "{(0, 0): -1, (1/2, -1/2): 2}",
                 id="CharacterMap"),
    pytest.param(MultiplicityTable({((1, 0), 0): 1, ((0, 0), 2): 3}),
                 "{((0, 0), 2): 3, ((1, 0), 0): 1}", id="MultiplicityTable"),
]


@pytest.mark.parametrize("value, text", INT_MAPS)
def test_every_container_is_an_int_map_value(value, text):
    """Copies and pickles equal the original, equality needs the same type
    as well as the same items, and the repr is pinned."""
    assert isinstance(value, IntMap) and repr(value) == text
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value) and other == value and repr(other) == text
    assert value != IntMap(value._data) and IntMap(value._data) != value
    assert bool(value) == (len(value) > 0) == (text != "0")


def test_unpickling_a_container_runs_its_checks():
    forged = So3MultiSet()
    forged._data = {-1: -2}  # a negative label and multiplicity, past __init__
    data = pickle.dumps(forged)
    with pytest.raises(DomainError):
        pickle.loads(data)
    with pytest.raises(DomainError):
        copy.copy(forged)


def test_int_maps_hold_plain_integers():
    assert So3MultiSet({0: 1}) != LaurentPoly({0: 1})
    assert LaurentPoly({0: 1}) != So3MultiSet({0: 1})
    # a character's values are exact integers, as every other container's
    for value in (0.5, True):
        with pytest.raises(DomainError):
            CharacterMap({(1,): value})
    # the zero series is falsy, as an empty map of every other container is
    assert not LaurentPoly() and not poly_sub(LaurentPoly({1: 1}), LaurentPoly({1: 1}))
    assert LaurentPoly({1: 2, 3: 0}).get(1) == 2 and len(LaurentPoly({1: 2, 3: 0})) == 1
