"""Freudenthal's recursion over every positive root, kept as the tests'
reference.

``oracle._dominant_mults`` walks one root string per orbit of eta's
stabilizer on the roots; the tests check it against this textbook form,
which walks the string of every positive root alpha:

    (|lam + rho|^2 - |eta + rho|^2) m(eta)
        = 2 sum_{alpha > 0} sum_{j >= 1} m(eta + j alpha) <eta + j alpha, alpha>

on the dominant weights eta of lam's system (lam - eta a non-negative
integer combination of simple roots), in decreasing |eta + rho|^2.  A
weight's multiplicity is its dominant representative's.  Coordinates are
doubled integers, as ``Weight.coords2`` holds them.
"""

from sobranch.weights import algebra_positive_roots, algebra_rho, iter_dominant_weights


def _ip2(u, v):
    """Four times the inner product of two doubled weights."""
    return sum(a * b for a, b in zip(u, v))


def _dominant_rep2(family, t2):
    s = sorted((abs(c) for c in t2), reverse=True)
    if family == "D":
        negatives = sum(1 for c in t2 if c < 0)
        if negatives % 2 and s[-1]:
            s[-1] = -s[-1]
    return tuple(s)


def _in_positive_root_span(family, d):
    """Whether an integer vector is a non-negative integer combination of the
    simple roots of B_r / D_r (r >= 2 for D)."""
    r = len(d)
    prefix = []
    s = 0
    for v in d:
        s += v
        prefix.append(s)
    if family == "B":
        return all(x >= 0 for x in prefix)
    if any(prefix[j] < 0 for j in range(r - 2)):
        return False
    s_r = prefix[-1]
    s_rm2 = prefix[r - 3] if r >= 3 else 0
    if s_r % 2 or s_r < 0:
        return False
    return s_rm2 + d[r - 2] - d[r - 1] >= 0


def reference_dominant_mults(family, rank, lam2):
    """(eta2, m(eta)) for every dominant weight eta of lam's system, sorted,
    as ``oracle._dominant_mults`` returns them."""
    roots2 = [(a.coords2, _ip2(a.coords2, a.coords2)) for a in algebra_positive_roots(family, rank)]
    rho2 = algebra_rho(family, rank).coords2
    lam_ints = tuple(c // 2 for c in lam2)
    top2 = tuple(a + b for a, b in zip(lam2, rho2))
    top_norm = _ip2(top2, top2)

    candidates = []
    for eta in iter_dominant_weights(family, rank, lam_ints[0]):
        d = tuple(a - b for a, b in zip(lam_ints, eta.to_ints()))
        if _in_positive_root_span(family, d):
            candidates.append(eta.coords2)
    candidates.sort(
        key=lambda e2: _ip2(
            tuple(a + b for a, b in zip(e2, rho2)), tuple(a + b for a, b in zip(e2, rho2))
        ),
        reverse=True,
    )
    assert candidates and candidates[0] == lam2, "highest weight missing from its own weight system"

    mults = {lam2: 1}
    for eta2 in candidates[1:]:
        num = 0
        for a2, norm in roots2:
            # the string eta + j alpha, j = 1, 2, ..., with <xi, alpha> stepped by |alpha|^2
            xi2 = tuple(e + a for e, a in zip(eta2, a2))
            m = mults.get(_dominant_rep2(family, xi2))
            if m:
                ip = _ip2(xi2, a2)
                while m:
                    num += m * ip
                    xi2 = tuple(e + a for e, a in zip(xi2, a2))
                    ip += norm
                    m = mults.get(_dominant_rep2(family, xi2))
        eta_rho2 = tuple(a + b for a, b in zip(eta2, rho2))
        denom = top_norm - _ip2(eta_rho2, eta_rho2)
        assert denom > 0, "non-positive Freudenthal denominator"
        quot, rem = divmod(2 * num, denom)
        assert not rem and quot > 0, f"Freudenthal failed at {eta2}: 2*{num}/{denom}"
        mults[eta2] = quot
    return tuple(sorted(mults.items()))
