import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polylog.closedform import ClosedForm, GAMMA, PI, zeta_closed, zeta_odd_atom
from polylog.errors import CapacityError, DomainError, ShapeError
from polylog import seriesring
from polylog.quadrature import integrate01, log1m
from polylog.seriesring import (MAX_WEIGHT, BivariateSeries, beta_derivative_inm,
                                gamma_ratio_series, kolbig_snp)
from polylog.sigma import cf_num

from conftest import pointwise


def _series_from(na, nb, entries):
    s = BivariateSeries(na, nb)
    for (i, j), cf in entries.items():
        s.c[i][j] = cf if isinstance(cf, ClosedForm) else ClosedForm.rational(cf)
    return s


# -- arithmetic ---------------------------------------------------------------


def test_mul_basic():
    a = _series_from(1, 1, {(0, 0): 1, (1, 0): 1})   # 1 + x
    b = _series_from(1, 1, {(0, 0): 1, (0, 1): 1})   # 1 + y
    p = a * b
    assert p.c[0][0] == ClosedForm.one()
    assert p.c[1][0] == ClosedForm.one()
    assert p.c[0][1] == ClosedForm.one()
    assert p.c[1][1] == ClosedForm.one()


def test_mul_identity_and_truncation():
    a = _series_from(1, 2, {(0, 0): 3, (1, 1): 2})
    one = BivariateSeries.constant(1, 2, ClosedForm.one())
    assert (a * one).c == a.c
    x = _series_from(1, 0, {(1, 0): 1})
    assert (x * x).is_zero()  # x^2 truncates away at order (1, 0)


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        BivariateSeries(1, 1) * BivariateSeries(2, 1)


def test_exp_basic():
    zero = BivariateSeries(2, 0)
    assert zero.exp().c[0][0] == ClosedForm.one()
    x = _series_from(2, 0, {(1, 0): 1})
    e = x.exp()
    assert e.c[0][0] == ClosedForm.one()
    assert e.c[1][0] == ClosedForm.one()
    assert e.c[2][0] == ClosedForm.rational(Fraction(1, 2))


def test_exp_requires_zero_constant():
    with pytest.raises(DomainError):
        _series_from(1, 1, {(0, 0): 1}).exp()


@given(st.integers(0, 2), st.integers(0, 2), st.integers(-5, 5), st.integers(-5, 5))
def test_exp_log_round_trip(i, j, num1, num2):
    # exp after a formal log (built from the same multiplication) must be the
    # identity on series with unit constant term
    na = nb = 4
    u = BivariateSeries(na, nb)
    if (i, j) != (0, 0):
        u.c[i][j] = ClosedForm.rational(num1)
    u.c[min(i + 1, na)][j] = ClosedForm.rational(num2)
    u.c[0][0] = ClosedForm.zero()
    # log(1 + u) = sum (-1)^{k+1} u^k / k; u is nilpotent at these orders
    log = BivariateSeries(na, nb)
    power = BivariateSeries.constant(na, nb, ClosedForm.one())
    for k in range(1, na + nb + 1):
        power = power * u
        if power.is_zero():
            break
        log = log + power.scale(Fraction((-1) ** (k + 1), k))
    back = log.exp()
    one_plus_u = u + BivariateSeries.constant(na, nb, ClosedForm.one())
    assert back.c == one_plus_u.c


# -- gamma ratio --------------------------------------------------------------


def test_gamma_ratio_low_coefficients():
    s = gamma_ratio_series((3, 3))
    assert s.c[0][0] == ClosedForm.one()
    assert s.c[1][0].is_zero
    assert s.c[0][1].is_zero
    assert s.c[1][1] == -zeta_closed(2)  # -pi^2/6
    assert s.c[2][1] == zeta_closed(3)
    assert s.c[1][2] == zeta_closed(3)


def test_gamma_ratio_orders_validation():
    with pytest.raises(DomainError, match="order 0 is below its least value 1"):
        gamma_ratio_series((0, 3))


def test_gamma_ratio_series_is_held_to_the_ceiling():
    # each order is a weight the box reads zeta at; past MAX_WEIGHT it fails
    # at once, where a cold build grew by seconds per order
    for orders in ((MAX_WEIGHT + 1, 1), (1, MAX_WEIGHT + 1), (40, 40)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"weight {max(orders)} above"):
            gamma_ratio_series(orders)
        assert time.perf_counter() - start < 0.1, orders


def test_dense_box_reads_zeta_past_the_ceiling():
    # the (11, 12) box that the benchmark times reads zeta(23), which the
    # capped zeta_closed refuses; the log coefficients must not go through it
    with pytest.raises(CapacityError):
        zeta_closed(23)
    logs = seriesring._lngamma_ratio_log(11, 12)
    assert logs.c[11][12] == Fraction(math.comb(23, 11), 23) * ClosedForm.atom(zeta_odd_atom(23))


# -- Nielsen constants ----------------------------------------------------------


def test_snp_known_values():
    assert kolbig_snp(1, 1) == zeta_closed(2)
    assert kolbig_snp(2, 1) == zeta_closed(3)
    assert kolbig_snp(3, 1) == zeta_closed(4)
    assert kolbig_snp(1, 2) == zeta_closed(3)
    assert kolbig_snp(2, 2) == ClosedForm.atom(PI, 4, Fraction(1, 360))
    # s_{3,2} = 2 zeta(5) - zeta(2) zeta(3)
    assert kolbig_snp(3, 2) == 2 * zeta_closed(5) - zeta_closed(2) * zeta_closed(3)


def test_snp_symmetry():
    for n in range(1, 5):
        for p in range(1, 5):
            if n + p <= 8:
                assert kolbig_snp(n, p) == kolbig_snp(p, n)


def test_snp_capacity():
    with pytest.raises(CapacityError, match="weight 9 above cap 8"):
        kolbig_snp(5, 4, max_weight=8)
    assert kolbig_snp(5, 4).atoms()  # the default cap is the ceiling
    with pytest.raises(DomainError):
        kolbig_snp(0, 1)


def test_weight_ceiling_binds_above_any_requested_cap():
    assert kolbig_snp(MAX_WEIGHT - 2, 2, max_weight=40).atoms()
    with pytest.raises(CapacityError, match=f"above cap {MAX_WEIGHT} "):
        kolbig_snp(MAX_WEIGHT - 1, 2, max_weight=40)
    with pytest.raises(CapacityError, match=f"above cap {MAX_WEIGHT} "):
        beta_derivative_inm(MAX_WEIGHT // 2 + 1, MAX_WEIGHT // 2)


def test_snp_graded_route_matches_dense_series():
    dense = gamma_ratio_series((8, 9))
    for n in range(1, 9):
        for p in range(1, 10 - n):
            assert kolbig_snp(n, p, 9) == Fraction((-1) ** (n + p - 1)) * dense.c[p][n], (n, p)


def test_snp_symmetry_and_first_column_to_ceiling():
    for n in range(1, MAX_WEIGHT):
        for p in range(1, MAX_WEIGHT + 1 - n):
            assert kolbig_snp(n, p, MAX_WEIGHT) == kolbig_snp(p, n, MAX_WEIGHT), (n, p)
    for p in range(1, MAX_WEIGHT):
        assert kolbig_snp(1, p, MAX_WEIGHT) == zeta_closed(p + 1), p


def _log_slice_reference(k):
    """lg_k and G_k, the weight-k part of ln Gamma(1+a) + ln Gamma(1+b) -
    ln Gamma(1+a+b), from ln Gamma(1+z) = -gamma z + sum_{k>=2} (-1)^k zeta(k) z^k / k."""
    lg = ClosedForm.atom(GAMMA, 1, -1) if k == 1 else Fraction((-1) ** k, k) * zeta_closed(k)
    return lg, tuple((lg if i in (0, k) else ClosedForm.zero()) - math.comb(k, i) * lg
                     for i in range(k + 1))


def _ratio_slices_reference(top):
    """F_0..F_top by w F_w = sum_{k=1}^{w} k G_k F_{w-k}: every entry, no mirroring."""
    slices = [(ClosedForm.one(),)]
    for w in range(1, top + 1):
        acc = [ClosedForm.zero()] * (w + 1)
        for k in range(1, w + 1):
            for l, g in enumerate(_log_slice_reference(k)[1]):
                if g.is_zero:
                    continue
                g = Fraction(k, w) * g
                for i, f in enumerate(slices[w - k]):
                    if not f.is_zero:
                        acc[i + l] = acc[i + l] + g * f
        slices.append(tuple(acc))
    return slices


def test_slices_match_the_full_recurrence_to_ceiling():
    # the log slice cancels Euler's gamma (k = 1) and is -C(k,l) lg_k inside
    for k in range(1, MAX_WEIGHT + 1):
        lg, g = _log_slice_reference(k)
        assert not any(GAMMA in c.atoms() for c in g), k
        assert g == tuple(ClosedForm.zero() if l in (0, k) else -math.comb(k, l) * lg
                          for l in range(k + 1)), k
    # so the half-size, mirrored slices equal the full recurrence entry for entry
    seriesring._ratio_slice.cache_clear()
    for w, expected in enumerate(_ratio_slices_reference(MAX_WEIGHT)):
        assert seriesring._ratio_slice(w) == expected, w


def _form_products(fn) -> int:
    mul = vars(ClosedForm)["__mul__"]
    count = 0

    def counted(self, other):
        nonlocal count
        count += isinstance(other, ClosedForm)
        return mul(self, other)

    ClosedForm.__mul__ = counted
    try:
        fn()
    finally:
        ClosedForm.__mul__ = mul
    return count


def test_snp_build_to_ceiling_makes_one_product_per_entry_and_log_slice():
    # a cold build of every s_{n,p} to weight 18 multiplies forms once per
    # (k, i <= w/2), not once per (k, l, i) over both halves of each slice
    seriesring._ratio_slice.cache_clear()
    build = lambda: [kolbig_snp(n, p) for n in range(1, MAX_WEIGHT)
                     for p in range(1, MAX_WEIGHT + 1 - n)]
    assert _form_products(build) <= 1000


def test_slice_cache_is_thread_safe():
    w = 12
    pairs = [(n, p) for n in range(1, w) for p in range(1, w + 1 - n)]
    expected = [kolbig_snp(n, p, w) for n, p in pairs]
    results = [None] * 8

    def work(slot):
        results[slot] = [kolbig_snp(n, p, w) for n, p in pairs]

    interval = sys.getswitchinterval()
    seriesring._ratio_slice.cache_clear()
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


def test_snp_against_quadrature():
    for n in range(1, 6):
        for p in range(1, 6):
            if n + p > 6:
                continue
            pref = (-1.0) ** (n + p - 1) / (math.factorial(n - 1) * math.factorial(p))
            quad = integrate01(pointwise(
                lambda x, omx, n=n, p=p: math.log(x) ** (n - 1) * log1m(x, omx) ** p / x),
                1e-12).value
            assert abs(cf_num(kolbig_snp(n, p)) - pref * quad) <= 1e-10


# -- Beta-derivative route -------------------------------------------------------


def test_inm_known_values():
    assert beta_derivative_inm(1, 1) == ClosedForm.rational(2) - zeta_closed(2)
    expected_12 = (ClosedForm.rational(-6) + 2 * zeta_closed(2) + 2 * zeta_closed(3))
    assert beta_derivative_inm(1, 2) == expected_12
    # i(2,2) = 24 - 8 zeta(2) - 8 zeta(3) - 6 zeta(4) + 2 zeta(2)^2
    expected_22 = (ClosedForm.rational(24) - 8 * zeta_closed(2) - 8 * zeta_closed(3)
                   - 6 * zeta_closed(4) + 2 * zeta_closed(2) * zeta_closed(2))
    assert beta_derivative_inm(2, 2) == expected_22


def test_inm_symmetry():
    for n in range(1, 4):
        for m in range(1, 4):
            assert beta_derivative_inm(n, m) == beta_derivative_inm(m, n)


def test_inm_graded_route_matches_dense_series():
    geom = BivariateSeries(8, 8)   # 1/(1+a+b)
    for i in range(9):
        for j in range(9):
            geom.c[i][j] = ClosedForm.rational((-1) ** (i + j) * math.comb(i + j, i))
    dense = gamma_ratio_series((8, 8)) * geom
    for n in range(1, 9):
        for m in range(1, 10 - n):
            expected = Fraction(math.factorial(n) * math.factorial(m)) * dense.c[n][m]
            assert beta_derivative_inm(n, m) == expected, (n, m)


def _beta_derivative_inm_reference(n, m):
    # the convolution folded one operator at a time
    coeff = ClosedForm.zero()
    for k in range(n + m + 1):
        d = n + m - k
        for i, f in enumerate(seriesring._ratio_slice(k)):
            if 0 <= n - i <= d and not f.is_zero:
                coeff = coeff + Fraction((-1) ** d * math.comb(d, n - i)) * f
    return Fraction(math.factorial(n) * math.factorial(m)) * coeff


def test_inm_equals_the_operator_fold_to_ceiling():
    for n in range(1, MAX_WEIGHT):
        for m in range(1, MAX_WEIGHT + 1 - n):
            assert beta_derivative_inm(n, m) == _beta_derivative_inm_reference(n, m), (n, m)


def test_inm_capacity():
    with pytest.raises(CapacityError, match=f"weight {MAX_WEIGHT + 1} above cap {MAX_WEIGHT} "):
        beta_derivative_inm(MAX_WEIGHT, 1)
    with pytest.raises(DomainError):
        beta_derivative_inm(0, 2)
