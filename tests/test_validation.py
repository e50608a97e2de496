"""Every library entry that takes a branching pair (family, n, lam, mu)
rejects an invalid one with DomainError, through ``weights.check_pair``."""

import pytest

from sobranch.clebsch_gordan import closed_form_B, closed_form_D
from sobranch.errors import DomainError, PreconditionError
from sobranch.kostant import BranchingQuery, multiplicity_kostant_reduced
from sobranch.oracle import branch_oracle
from sobranch.tsukamoto import enumerate_atuples, tsukamoto_generating_function
from sobranch.u3_so3 import ending_B, ending_D
from sobranch.weights import Weight, check_pair, interlace

w = Weight.of_ints

# (id, family, n, lam, mu, whether the defect is in lam, family or n)
BAD_PAIRS = [
    ("unknown-family", "C", 2, w([1, 0, 0]), w([0, 0]), True),
    ("n-below-minimum-B", "B", 1, w([1, 0]), w([0]), True),
    ("n-below-minimum-D", "D", 0, w([1, 0]), Weight(()), True),
    ("lam-rank-B", "B", 2, w([1, 0]), w([0, 0]), True),
    ("lam-rank-D", "D", 1, w([1, 0, 0, 0]), w([0]), True),
    ("mu-rank-B", "B", 2, w([1, 0, 0]), w([0, 0, 0]), False),
    ("mu-rank-D", "D", 2, w([1, 0, 0, 0]), w([0]), False),
    ("non-dominant-lam-B", "B", 2, w([0, 1, 0]), w([0, 0]), True),
    ("non-dominant-lam-D", "D", 2, w([1, 1, 1, -2]), w([0, 0]), True),
    ("non-dominant-mu-B", "B", 2, w([1, 1, 0]), w([0, 1]), False),
    ("non-dominant-mu-D", "D", 2, w([1, 1, 1, 1]), w([1, -1]), False),
    ("half-integral-lam-B", "B", 2, Weight((1, 1, 1)), w([1, 0]), True),
    ("half-integral-D", "D", 2, Weight((1, 1, 1, 1)), Weight((1, 1)), True),
]

#: check_pair's message for each row of BAD_PAIRS, and for pairs with two
#: faults, the first in check_pair's order: family and n, rank of mu, rank of
#: lam, integrality, dominance of lam, dominance of mu
MESSAGES = {
    "unknown-family": "unknown family 'C'; expected 'B' or 'D'",
    "n-below-minimum-B": "family B requires n >= 2, got n=1",
    "n-below-minimum-D": "family D requires n >= 1, got n=0",
    "lam-rank-B": "lam must have rank 3, got 2",
    "lam-rank-D": "lam must have rank 3, got 4",
    "mu-rank-B": "mu must have rank 2, got 3",
    "mu-rank-D": "mu must have rank 2, got 1",
    "non-dominant-lam-B": "lam=(0, 1, 0) is not dominant (family B)",
    "non-dominant-lam-D": "lam=(1, 1, 1, -2) is not dominant (family D)",
    "non-dominant-mu-B": "mu=(0, 1) is not dominant (family B)",
    "non-dominant-mu-D": "mu=(1, -1) is not dominant (family D)",
    "half-integral-lam-B": "highest weights must have integral coordinates",
    "half-integral-D": "highest weights must have integral coordinates",
}
TWO_FAULTS = [
    ("C", 1, w([0, 1]), Weight((1,)), "unknown family 'C'; expected 'B' or 'D'"),
    ("B", True, w([1, 0, 0]), w([0, 0]), "n must be an integer, got True"),
    ("D", 1, w([1, 0]), w([0, 0]), "mu must have rank 1, got 2"),
    ("B", 2, Weight((1, 1)), w([0, 0]), "lam must have rank 3, got 2"),
    ("B", 2, w([0, 1, 0]), Weight((1, 1)), "highest weights must have integral coordinates"),
    ("D", 2, w([1, 1, 1, -2]), Weight((1, -1)), "highest weights must have integral coordinates"),
    ("B", 2, w([0, 1, 0]), w([0, 1]), "lam=(0, 1, 0) is not dominant (family B)"),
    ("D", 2, w([1, 1, 1, -2]), w([1, -1]), "lam=(1, 1, 1, -2) is not dominant (family D)"),
]

CLOSED_FORM = {"B": closed_form_B, "D": closed_form_D}
ENDING = {"B": ending_B, "D": ending_D}

# name -> (call, whether it needs a known family, whether it checks mu)
ENTRIES = {
    "query": (lambda f, n, lam, mu: BranchingQuery(f, n, lam, mu, 0), False, True),
    "interlace-simple": (lambda f, n, lam, mu: interlace("simple", f, lam, mu), False, True),
    "interlace-triple": (lambda f, n, lam, mu: interlace("triple", f, lam, mu), False, True),
    "tsukamoto": (lambda f, n, lam, mu: tsukamoto_generating_function(f, lam, mu), False, True),
    "atuples": (lambda f, n, lam, mu: enumerate_atuples(f, lam, mu), False, True),
    "closed-form": (lambda f, n, lam, mu: CLOSED_FORM[f](lam, mu), True, True),
    "ending": (lambda f, n, lam, mu: ENDING[f](lam, mu), True, True),
    "oracle": (lambda f, n, lam, mu: branch_oracle(f, n, lam), False, False),
}

CASES = [
    pytest.param(name, family, n, lam, mu, id=f"{row_id}-{name}")
    for row_id, family, n, lam, mu, lam_side in BAD_PAIRS
    for name, (_, per_family, takes_mu) in ENTRIES.items()
    if (family in CLOSED_FORM or not per_family) and (lam_side or takes_mu)
]


@pytest.mark.parametrize("entry, family, n, lam, mu", CASES)
def test_every_pair_entry_rejects_an_invalid_pair(entry, family, n, lam, mu):
    call = ENTRIES[entry][0]
    with pytest.raises(DomainError):
        call(family, n, lam, mu)


def test_check_pair_names_the_first_fault():
    cases = [(*row[1:5], MESSAGES[row[0]]) for row in BAD_PAIRS] + TWO_FAULTS
    assert len(cases) == len(MESSAGES) + len(TWO_FAULTS)
    for family, n, lam, mu, message in cases:
        with pytest.raises(DomainError) as raised:
            check_pair(family, n, lam, mu)
        assert str(raised.value) == message


def test_an_invalid_pair_raises_on_every_call():
    # check_pair memoises valid pairs only: a repeat of an invalid pair, even
    # right after a valid one, runs the check again and raises again
    valid = ("B", 2, w([1, 0, 0]), w([0, 0]))
    for _, family, n, lam, mu, _ in BAD_PAIRS:
        for _ in range(3):
            check_pair(*valid)
            with pytest.raises(DomainError):
                check_pair(family, n, lam, mu)


@pytest.mark.parametrize("call, args, message", [
    (closed_form_B, (w([3, 2, 1, 0]), w([1, 1, 0])),
     "mu=(1, 1, 0) does not simply interlace lam=(3, 2, 1, 0) (family B)"),
    (closed_form_D, (w([3, 2, 1, 0]), w([1, 1])),
     "mu=(1, 1) does not simply interlace lam=(3, 2, 1, 0) (family D)"),
    (ending_B, (w([3, 2, 1, 0]), w([1, 1, 0])),
     "lam=(3, 2, 1, 0), mu=(1, 1, 0) do not match the family B ending pattern"),
    (ending_D, (w([3, 2, 1, 0]), w([1, 1])),
     "lam=(3, 2, 1, 0), mu=(1, 1) do not match the family D ending pattern"),
    (multiplicity_kostant_reduced, (BranchingQuery("B", 3, w([3, 2, 1, 0]), w([1, 1, 0]), 0),),
     "mu=(1, 1, 0) does not simply interlace lam=(3, 2, 1, 0) (family B)"),
    # the reduced sum names the tilde-normalized pair
    (multiplicity_kostant_reduced, (BranchingQuery("D", 2, w([3, 2, 1, -1]), w([1, 1]), 0),),
     "mu=(1, 1) does not simply interlace lam=(3, 2, 1, 1) (family D)"),
], ids=["closed-form-B", "closed-form-D", "ending-B", "ending-D", "reduced-B", "reduced-D"])
def test_an_inapplicable_route_names_the_pair(call, args, message):
    # the n/a errors format their message only when it is read
    for _ in range(2):
        with pytest.raises(PreconditionError) as raised:
            call(*args)
        assert str(raised.value) == message
