import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polylog.approx import (MAX_KT, _alt_zeta_closed, _derivative_cf, _stirling_row,
                            s_minus_truncated, stirling1)
from polylog.closedform import (ClosedForm, LN2, PI, UNIT, eta_factor_closed, monomial,
                                zeta_closed, zeta_odd_atom)
from polylog.errors import CapacityError, DomainError
from polylog.eulersums import sum_oracle
from polylog.seriesring import MAX_WEIGHT
from polylog.sigma import cf_num
from polylog.special import polylog

from conftest import sigma_atoms


# -- Stirling numbers -----------------------------------------------------------


def test_stirling_row3():
    assert [stirling1(3, j) for j in (1, 2, 3)] == [2, -3, 1]


def test_stirling_values():
    assert stirling1(1, 1) == 1
    assert stirling1(4, 2) == 11


def test_stirling_domain():
    with pytest.raises(DomainError):
        stirling1(3, 0)
    with pytest.raises(DomainError):
        stirling1(3, 4)
    with pytest.raises(DomainError):
        stirling1(0, 1)


def test_stirling_row_sums_vanish():
    # falling factorial at x = 1: rows beyond the first sum to zero
    for k in range(2, 16):
        assert sum(stirling1(k, j) for j in range(1, k + 1)) == 0


def test_stirling_edge_columns():
    for k in range(1, 12):
        assert stirling1(k, k) == 1
        assert stirling1(k, 1) == (-1) ** (k - 1) * math.factorial(k - 1)


@given(st.integers(2, 14), st.integers(1, 14))
def test_stirling_recurrence(k, j):
    if j > k:
        return
    left = stirling1(k - 1, j - 1) if j >= 2 else 0
    right = stirling1(k - 1, j) if j <= k - 1 else 0
    assert stirling1(k, j) == left - (k - 1) * right


def test_stirling_rows_are_thread_safe():
    expected = [[stirling1(k, j) for j in range(1, k + 1)] for k in range(1, MAX_KT + 1)]
    results = [None] * 8

    def work(slot):
        results[slot] = [[stirling1(k, j) for j in range(1, k + 1)]
                         for k in range(1, MAX_KT + 1)]

    interval = sys.getswitchinterval()
    _stirling_row.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
    assert stirling1(MAX_KT, 1) == (-1) ** (MAX_KT - 1) * math.factorial(MAX_KT - 1)


def test_truncation_depth_cap():
    with pytest.raises(CapacityError, match=f"depth {MAX_KT + 1} above cap MAX_KT = {MAX_KT}"):
        s_minus_truncated(5, MAX_KT + 1)
    with pytest.raises(CapacityError):
        stirling1(MAX_KT + 1, 1)


# -- derivatives of Li_p(-t) at t = 1 -----------------------------------------------


def test_derivative_closed_forms():
    assert _derivative_cf(5, 1) == Fraction(-7, 8) * zeta_closed(4)
    expected_52 = (Fraction(7, 8) * zeta_closed(4)
                   + Fraction(-3, 4) * zeta_closed(3))
    assert _derivative_cf(5, 2) == expected_52
    assert _derivative_cf(3, 1) == Fraction(-1, 2) * zeta_closed(2)


def test_derivative_against_finite_differences():
    f = lambda p, t: polylog(p, -t)
    h = 1e-4
    for (p, k) in ((5, 1), (4, 1)):
        fd = (3 * f(p, 1.0) - 4 * f(p, 1.0 - h) + f(p, 1.0 - 2 * h)) / (2 * h)
        assert abs(cf_num(_derivative_cf(p, k)) - fd) <= 1e-6
    h = 2e-3
    fd = (2 * f(5, 1.0) - 5 * f(5, 1.0 - h) + 4 * f(5, 1.0 - 2 * h)
          - f(5, 1.0 - 3 * h)) / h ** 2
    assert abs(cf_num(_derivative_cf(5, 2)) - fd) <= 1e-6


def test_non_integral_orders_are_domain_errors():
    # stirling1(3.5, 1) used to recurse past k = 1 into a RecursionError, and
    # the others to fail with a TypeError deep inside
    calls = (lambda: stirling1(3.5, 1), lambda: stirling1(3, 1.5),
             lambda: s_minus_truncated(5.5, 2), lambda: s_minus_truncated(5, 2.5))
    for call in calls:
        with pytest.raises(DomainError, match="is not an integer"):
            call()


def test_zeta_orders_past_the_weight_ceiling_fail_fast():
    # uncapped, an even order runs the Bernoulli recurrence over growing
    # Fractions: zeta_closed(800) took seconds and 10^4 would take hours
    for build, args in ((zeta_closed, (800,)), (eta_factor_closed, (MAX_WEIGHT + 1,)),
                        (_derivative_cf, (10 ** 4 + 1, 1))):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError, match=f"above cap {MAX_WEIGHT} "):
            build(*args)
        assert time.perf_counter() - t0 < 0.5, build
    assert zeta_closed(MAX_WEIGHT) == ClosedForm.atom(PI, MAX_WEIGHT, Fraction(43867, 38979295480125))


# -- truncated alternating sums ------------------------------------------------------


def test_single_term_truncations():
    assert s_minus_truncated(5, 1) == Fraction(-7, 8) * zeta_closed(4)
    assert s_minus_truncated(4, 1) == Fraction(-3, 4) * zeta_closed(3)


def test_truncation_domain():
    with pytest.raises(DomainError):
        s_minus_truncated(2, 3)
    with pytest.raises(DomainError):
        s_minus_truncated(5, 0)


def test_truncation_p5_kt10_exact_display():
    expected = {
        UNIT: Fraction(-24387227, 1741824000),
        monomial((PI, 2)): Fraction(-358039, 11197440),
        monomial((PI, 4)): Fraction(-1968329, 130636800),
        monomial((zeta_odd_atom(3), 1)): Fraction(2152309, 3456000),
        monomial((LN2, 1)): Fraction(1874237, 14515200),
    }
    assert s_minus_truncated(5, 10).terms == expected


def _s_minus_truncated_reference(p, kt):
    # the two Stirling sums folded one operator at a time
    out = ClosedForm.zero()
    for k in range(1, kt + 1):
        derivative = ClosedForm.zero()
        for j in range(1, k + 1):
            derivative = derivative + Fraction(stirling1(k, j)) * _alt_zeta_closed(p - j)
        out = out + Fraction((-1) ** (k + 1), k * math.factorial(k)) * derivative
    return out


def test_truncations_equal_the_operator_folds():
    for p in (3, 5, 8, MAX_WEIGHT - 1):
        for kt in (1, 2, 12, 30):
            assert s_minus_truncated(p, kt) == _s_minus_truncated_reference(p, kt), (p, kt)


def test_truncation_basis_stays_closed():
    cf = s_minus_truncated(5, 10)
    assert not sigma_atoms(cf)
    names = {a.name for a in cf.atoms()}
    assert names <= {"pi", "ln2", "zeta3", "zeta5"}


def test_truncation_error_profile():
    """kt = 10 reproduces the published rationals exactly, whose true error
    against S-(5) is 3.39e-9 (eight decimal places); the advertised ninth
    decimal is first reached at kt = 12."""
    oracle = sum_oracle("SMinus", 5)
    errs = {kt: abs(cf_num(s_minus_truncated(5, kt)) - oracle)
            for kt in range(3, 13)}
    for kt in range(4, 13):
        assert errs[kt] < errs[kt - 1], kt
    assert 3.3e-9 < errs[10] < 3.5e-9
    assert errs[12] <= 5e-10
