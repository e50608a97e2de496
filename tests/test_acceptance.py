"""Acceptance suite: one test per criterion, every check exact (integer
equality), grid bounds and time limits pinned below.  The conftest prints a
one-line PASS/FAIL summary per criterion at the end of the run."""

import itertools
import math
import time
from dataclasses import dataclass, field

import pytest

from sobranch import cli
from sobranch.clebsch_gordan import (
    So3MultiSet,
    closed_form_B,
    closed_form_D,
    so3_tensor_decompose,
    su2_tensor_multiplicity,
)
from sobranch.errors import CoincidencePatternError
from sobranch.kostant import multiplicity_kostant_full, multiplicity_kostant_reduced
from sobranch.oracle import branch_oracle, weight_multiplicities, weyl_dim, xi
from sobranch.partition import count_sigma_prime, count_vector_partitions
from sobranch.tsukamoto import extract_multiplicities, tsukamoto_generating_function
from sobranch.u3_so3 import U3Weight, ending_B, ending_D, u3_to_so3_closed, u3_to_so3_oracle
from sobranch.weights import (
    BranchingQuery,
    Weight,
    g_rank,
    interlace,
    iter_dominant_weights,
    k_family,
    make_root_data,
    tilde,
)

w = Weight.of_ints


@dataclass
class LambdaRecord:
    lam: Weight
    table: object
    # (mu_ints, k) -> {method: value or None}
    rows: dict = field(default_factory=dict)


@dataclass
class SweepData:
    family: str
    n: int
    bound: int
    elapsed: float
    records: list


#: the routes the verify sweep checks at every point; the oracle's value is
#: read off the lam's whole table that the table-level criteria check
SWEEP_METHODS = ("kostant-full", "tsukamoto", "kostant-reduced", "closed-form", "ending")


def run_sweep(family: str, n: int, bound: int) -> SweepData:
    """The verify sweep itself (``cli.sweep``), with each lam's whole oracle
    table kept beside its rows and the oracle's value taken from it."""
    start = time.monotonic()
    records = {}
    for lam, mu, k, values in cli.sweep(family, n, bound, SWEEP_METHODS):
        if lam not in records:
            records[lam] = LambdaRecord(lam=lam, table=branch_oracle(family, n, lam))
        record = records[lam]
        record.rows[(mu.to_ints(), k)] = {**values, "oracle": record.table.get(mu, k)}
    return SweepData(family, n, bound, time.monotonic() - start, list(records.values()))


@pytest.fixture(scope="session")
def sweep_b():
    return run_sweep("B", 2, 3)


@pytest.fixture(scope="session")
def sweep_d1():
    return run_sweep("D", 1, 3)


@pytest.fixture(scope="session")
def sweep_d2():
    return run_sweep("D", 2, 2)


def _prescribed_end(family: str, lam: Weight, mu: tuple[int, ...]) -> bool:
    """The paper's prescribed-end hypotheses, 1-based: family B needs
    lam_{i+3} = mu_i for i <= n-2 and mu_{n-1} <= lam_{n+1}; family D needs
    |lam_{i+3}| = mu_i for i <= n-1 and mu_n <= |lam_{n+2}|."""
    n = len(mu)
    L = lambda i: lam.to_ints()[i - 1]
    M = lambda i: mu[i - 1]
    if family == "B":
        return all(L(i + 3) == M(i) for i in range(1, n - 1)) and M(n - 1) <= L(n + 1)
    return all(abs(L(i + 3)) == M(i) for i in range(1, n)) and M(n) <= abs(L(n + 2))


def _assert_four_way_agreement(sweep: SweepData):
    checked = 0
    for record in sweep.records:
        # the oracle table must be fully covered by the swept grid
        grid_mus = {mu for (mu, _k) in record.rows}
        for (mu, k), _m in record.table.items():
            assert mu in grid_mus and (mu, k) in record.rows
        for (mu, k), row in record.rows.items():
            # the full sum, the series and the oracle apply at every point,
            # the reduced sum and the closed form exactly at simple-interlacing
            # ones, and ending exactly where the end is prescribed
            assert None not in (row["kostant-full"], row["tsukamoto"], row["oracle"]), row
            simple = interlace("simple", sweep.family, record.lam, w(mu))
            for method in ("kostant-reduced", "closed-form"):
                assert (row[method] is None) == (not simple), (method, record.lam, mu, k, row)
            ending_applies = _prescribed_end(sweep.family, record.lam, mu)
            assert (row["ending"] is None) == (not ending_applies), (record.lam, mu, k, row)
            values = {v for v in row.values() if v is not None}
            assert len(values) == 1, (sweep.family, record.lam, mu, k, row)
            checked += 1
    assert checked > 0
    return checked


def test_criterion_01_four_way_agreement_family_B(sweep_b):
    checked = _assert_four_way_agreement(sweep_b)
    assert sweep_b.elapsed < 300.0
    print(f"criterion 1: {checked} family-B grid points agree in {sweep_b.elapsed:.1f}s")


def test_criterion_02_four_way_agreement_family_D(sweep_d1, sweep_d2):
    checked = _assert_four_way_agreement(sweep_d1)
    checked += _assert_four_way_agreement(sweep_d2)
    assert sweep_d1.elapsed + sweep_d2.elapsed < 300.0
    print(
        f"criterion 2: {checked} family-D grid points agree in "
        f"{sweep_d1.elapsed + sweep_d2.elapsed:.1f}s"
    )


def _assert_nonzero_implies_triple_interlacing(sweep: SweepData):
    # every route's zeros, the oracle's included: a value is None (n/a), 0 or positive
    for record in sweep.records:
        for (mu, k), row in record.rows.items():
            nonzero = sorted(method for method, value in row.items() if value)
            if nonzero:
                assert interlace(
                    "triple", sweep.family, record.lam, w(mu)
                ), (sweep.family, record.lam, mu, k, nonzero)


def test_criterion_03_vanishing_iff_triple_interlacing(sweep_b, sweep_d1, sweep_d2):
    for sweep in (sweep_b, sweep_d1, sweep_d2):
        _assert_nonzero_implies_triple_interlacing(sweep)


def test_criterion_04_doubling_identity():
    start = time.monotonic()
    for n in (1, 2, 3):
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(range(n), size) for size in range(n + 1)
            )
        )
        betas = [
            w([1 if i in subset else 0 for i in range(n)] + [0]) for subset in subsets
        ]
        for coords in itertools.product(range(-6, 7), repeat=n + 1):
            nu = w(coords)
            lhs = sum(count_sigma_prime(n, nu - beta) for beta in betas)
            assert lhs == count_sigma_prime(n, nu.scaled(2)), (n, coords)
    assert time.monotonic() - start < 60.0


def test_criterion_05_staircase_recursion():
    for n in (1, 2, 3):
        e_last = Weight.basis(n + 1, n)
        sigma_prime = tuple(
            Weight.basis(n + 1, i) + e_last.scaled(s)
            for i in range(n)
            for s in (1, -1)
        )
        sigma_double_prime = sigma_prime + (-e_last,)
        for coords in itertools.product(range(-6, 7), repeat=n + 1):
            nu = w(coords)
            p_nu = count_vector_partitions(sigma_double_prime, nu)
            tail = 0
            for m in range(1, 7):
                tail += count_sigma_prime(n, nu.shift_last(2 * (m - 1)))
                assert p_nu == count_vector_partitions(
                    sigma_double_prime, nu.shift_last(2 * m)
                ) + tail, (n, coords, m)


def test_criterion_06_tensor_formula_vs_pairwise_clebsch_gordan():
    for length in (1, 2, 3, 4):
        for labels in itertools.product(range(6), repeat=length):
            multiset = so3_tensor_decompose(
                [So3MultiSet.irreducible(a) for a in labels]
            )
            doubled = [2 * a for a in labels]
            for k in range(sum(labels) + 2):
                assert su2_tensor_multiplicity(doubled, 2 * k) == multiset.mult(k), (
                    labels,
                    k,
                )


def test_criterion_07_u3_so3_closed_vs_oracle():
    start = time.monotonic()
    ceil_half = lambda x: -(-x // 2)
    for a1 in range(9):
        for a2 in range(a1 + 1):
            for a3 in range(a2 + 1):
                lam_prime = U3Weight(a1, a2, a3)
                p, q = a1 - a3, a2 - a3
                for k in range(a1 + a2 + 1):
                    closed = u3_to_so3_closed(lam_prime, k)
                    assert closed == u3_to_so3_oracle(lam_prime, k), (lam_prime, k)
                    # case-boundary overlaps evaluate consistently
                    branches = []
                    if 0 <= p <= k - 1:
                        branches.append(0)
                    if k <= p <= 2 * k and 0 <= q <= p - k:
                        branches.append(ceil_half(p - k + 1) - ceil_half(p - k - q))
                    if k <= p <= 2 * k and p - k <= q <= k:
                        branches.append(ceil_half(p - k + 1))
                    if k <= p <= 2 * k and k <= q:
                        branches.append(ceil_half(p - k + 1) - ceil_half(q - k))
                    if 2 * k <= p and 0 <= q <= k:
                        branches.append(ceil_half(p - k + 1) - ceil_half(p - k - q))
                    if 2 * k <= p and k <= q <= p - k:
                        branches.append(
                            ceil_half(p - k + 1)
                            - ceil_half(p - k - q)
                            - ceil_half(q - k)
                        )
                    if 2 * k <= p and p - k <= q:
                        branches.append(ceil_half(p - k + 1) - ceil_half(q - k))
                    assert set(branches) == {closed}, (lam_prime, k, branches)
    assert time.monotonic() - start < 60.0


def _ending_row_checks(sweep: SweepData):
    k_family = "D" if sweep.family == "B" else "B"
    ending = ending_B if sweep.family == "B" else ending_D
    applicable = 0
    for record in sweep.records:
        for mu in iter_dominant_weights(k_family, sweep.n, sweep.bound):
            try:
                form = ending(record.lam, mu)
            except CoincidencePatternError:
                continue
            applicable += 1
            oracle_row = So3MultiSet(
                {
                    k: m
                    for (mu_t, k), m in record.table.items()
                    if mu_t == mu.to_ints()
                }
            )
            assert form == oracle_row, (sweep.family, record.lam, mu, form, oracle_row)
    return applicable


def test_criterion_08_ending_theorems_match_oracle(sweep_b, sweep_d1, sweep_d2):
    total = 0
    for sweep in (sweep_b, sweep_d1, sweep_d2):
        total += _ending_row_checks(sweep)
    assert total > 20  # the coincidence patterns are exercised, not vacuous
    print(f"criterion 8: {total} pattern-satisfying rows match the oracle")


def test_criterion_09_dimension_conservation(sweep_b, sweep_d1, sweep_d2):
    for sweep in (sweep_b, sweep_d1, sweep_d2):
        rd = make_root_data(sweep.family, sweep.n)
        for record in sweep.records:
            total = sum(
                m * weyl_dim(rd.k_algebra, w(mu)) * (2 * k + 1)
                for (mu, k), m in record.table.items()
            )
            assert total == weyl_dim(rd.g_algebra, record.lam), record.lam


def test_criterion_10_weyl_character_identity(sweep_b, sweep_d1, sweep_d2):
    for sweep in (sweep_b, sweep_d1, sweep_d2):
        rd = make_root_data(sweep.family, sweep.n)
        for record in sweep.records:
            char = weight_multiplicities(rd.g_algebra, record.lam)
            lhs = char * xi(rd.g_algebra, rd.rho_g)
            assert lhs == xi(rd.g_algebra, record.lam + rd.rho_g), record.lam


def test_criterion_11_tilde_invariance(sweep_b, sweep_d1, sweep_d2):
    # family B: multiplicities unchanged when the last coordinate of mu flips
    for record in sweep_b.records:
        for (mu, k), row in record.rows.items():
            if mu[-1] == 0:
                continue
            twisted = tilde("B", w(mu)).to_ints()
            assert row["kostant-full"] == record.rows[(twisted, k)]["kostant-full"]
    # family D: multiplicities unchanged when the last coordinate of lam flips
    for sweep in (sweep_d1, sweep_d2):
        by_lam = {record.lam: record for record in sweep.records}
        for record in sweep.records:
            if record.lam.coords2[-1] == 0:
                continue
            partner = by_lam[tilde("D", record.lam)]
            for key, row in record.rows.items():
                assert row["kostant-full"] == partner.rows[key]["kostant-full"]
            assert record.table == partner.table


def _paper_factor_dimensions(family: str, lam: Weight, mu: Weight) -> list[int]:
    """The dimensions of the paper's factors of the multiplicity space of a
    simply interlacing pair, from lam and mu alone: the ladder
    tau_t + tau_{t-2} + ... has dimension T(t) = (t+1)(t+2)/2."""
    n = mu.rank
    l, m = lam.to_ints(), mu.to_ints()
    ladder = lambda t: (t + 1) * (t + 2) // 2
    if family == "B":
        return [2 * l[n] + 1] + [ladder(l[j] - abs(m[j])) for j in range(n)]
    return [(l[n] + 1) ** 2 - l[n + 1] ** 2] + [ladder(l[j] - m[j]) for j in range(n)]


def test_criterion_12_tensor_product_theorem_at_n5_to_n8():
    start = time.monotonic()
    pairs = 0
    for family in ("B", "D"):
        for n in range(5, 9):
            m_paper = 2 * n if family == "B" else 2 * n + 1
            closed_form = closed_form_B if family == "B" else closed_form_D
            for lam in iter_dominant_weights(family, g_rank(family, n), 2):
                table = branch_oracle(family, n, lam) if n <= 6 else None
                for mu in iter_dominant_weights(k_family(family), n, 2):
                    if not interlace("simple", family, lam, mu):
                        continue
                    pairs += 1
                    dims = _paper_factor_dimensions(family, lam, mu)
                    assert len(dims) == (m_paper + 2) // 2
                    row = extract_multiplicities(tsukamoto_generating_function(family, lam, mu))
                    assert sum(mk * (2 * k + 1) for k, mk in row.items()) == math.prod(dims), (
                        family, lam, mu)
                    form = closed_form(lam, mu)
                    for k in range(max(row) + 2):
                        q = BranchingQuery(family, n, lam, mu, k)
                        values = {form.mult(k), row.get(k, 0), multiplicity_kostant_reduced(q)}
                        if table is not None:
                            values |= {multiplicity_kostant_full(q), table.get(mu, k)}
                        assert len(values) == 1, (q, values)
    assert pairs == 1224
    assert time.monotonic() - start < 60.0
    print(f"criterion 12: {pairs} simply interlacing pairs at n = 5-8 factor as the paper says")
