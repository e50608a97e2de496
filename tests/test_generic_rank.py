"""Spot sweeps at n=3, where the interior box constraints, the middle
triple-interlacing inequalities and the longer coincidence patterns are all
non-vacuous for the first time, and at n=4-6, where the full Weyl sum has
|W(B_5)| = 3840, |W(D_6)| = 23040, |W(B_6)| = 46080, |W(D_7)| = 322560 and
|W(B_7)| = 645120 terms per point.  The Kostant orbit keeps only the points
a dominant mu can use, so these run in seconds and small memory."""

from test_acceptance import (
    _assert_four_way_agreement,
    _assert_nonzero_implies_triple_interlacing,
    _ending_row_checks,
    run_sweep,
)


def check_sweep(family, n, bound):
    sweep = run_sweep(family, n, bound)
    _assert_four_way_agreement(sweep)
    _assert_nonzero_implies_triple_interlacing(sweep)
    assert _ending_row_checks(sweep) > 0


def test_family_B_at_n3():
    check_sweep("B", 3, 2)


def test_family_D_at_n3():
    check_sweep("D", 3, 1)


def test_family_B_at_n4():
    check_sweep("B", 4, 1)


def test_family_D_at_n4():
    check_sweep("D", 4, 1)


def test_family_B_at_n5():
    check_sweep("B", 5, 1)


def test_family_D_at_n5():
    check_sweep("D", 5, 1)


def test_family_B_at_n6():
    check_sweep("B", 6, 1)
