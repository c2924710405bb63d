import math
import re
from fnmatch import fnmatch
from fractions import Fraction

import pytest

from polylog.closedform import ClosedForm, LN2, PI, zeta_closed
from polylog.errors import CapacityError, DomainError
from polylog.lognm import (TABLE_WEIGHT, _relation_row, h_boundary_closed,
                           h_closed, h_pde_residual, h_star, i_closed,
                           i_pde_residual, i_star, lognm_numeric,
                           s_sigma_relation_residual, sigma_weight6_count,
                           truncated_exp_ln2)
from polylog.quadrature import ORACLE_TOL, integrate01, log1m
from polylog.seriesring import MAX_WEIGHT, beta_derivative_inm, kolbig_snp
from polylog.sigma import cf_num, sigma_tilde
from polylog.verify import expected_inm_table, run_suite

from conftest import pointwise


def _pi_pow(e, c):
    return ClosedForm.atom(PI, e, Fraction(c))


# -- i(n, m) ---------------------------------------------------------------


def test_i_closed_low_values():
    assert i_closed(1, 1) == ClosedForm.rational(2) + _pi_pow(2, Fraction(-1, 6))
    assert i_closed(1, 3) == (ClosedForm.rational(24) + _pi_pow(2, -1)
                              + _pi_pow(4, Fraction(-1, 15)) - 6 * zeta_closed(3))
    expected_33 = (ClosedForm.rational(720) + _pi_pow(2, -36) + _pi_pow(4, -1)
                   + _pi_pow(6, Fraction(-23, 420)) - 216 * zeta_closed(3)
                   - 144 * zeta_closed(5) + 12 * _pi_pow(2, 1) * zeta_closed(3)
                   + 36 * zeta_closed(3) * zeta_closed(3))
    assert i_closed(3, 3) == expected_33


def test_i_closed_full_table():
    for (n, m), cf in expected_inm_table().items():
        assert i_closed(n, m) == cf, (n, m)


def test_i_symmetry_and_beta_route():
    for n in range(1, 4):
        for m in range(1, 4):
            assert i_closed(n, m) == i_closed(m, n)
            assert i_closed(n, m) == beta_derivative_inm(n, m)


def test_i_matches_quadrature():
    for n in range(1, 4):
        for m in range(n, 4):
            closed_value = cf_num(i_closed(n, m))
            quad = lognm_numeric("INM", n, m)
            assert abs(closed_value - quad) <= 1e-9, (n, m)


def test_i_pde_residuals_vanish():
    for n in range(1, 6):
        for m in range(1, 6):
            if n + m <= 6:
                assert i_pde_residual(n, m).is_zero, (n, m)


def test_i_capacity_and_domain():
    # the table weight is applied by the series ceiling's one check
    msg = f"weight {TABLE_WEIGHT + 1} above cap {TABLE_WEIGHT} (ceiling MAX_WEIGHT = {MAX_WEIGHT})"
    with pytest.raises(CapacityError, match=re.escape(msg)):
        i_closed(4, 3)
    with pytest.raises(DomainError):
        i_closed(0, 2)


# -- h(n, m) ---------------------------------------------------------------


def test_h_known_values():
    expected_11 = (ClosedForm.rational(2) + ClosedForm.atom(LN2, 1, -2)
                   + _pi_pow(2, Fraction(-1, 12)))
    assert h_closed(1, 1) == expected_11
    expected_21 = (ClosedForm.rational(-6) + _pi_pow(2, Fraction(1, 6))
                   + Fraction(3, 2) * zeta_closed(3) + ClosedForm.atom(LN2, 1, 4))
    assert h_closed(2, 1) == expected_21


def test_h_12_sign():
    # integrand ln(x) ln^2(1+x) < 0 on (0,1), so h(1,2) must be negative
    cf = h_closed(1, 2)
    assert cf_num(cf) < 0
    quad = lognm_numeric("HNM", 1, 2)
    assert abs(cf_num(cf) - quad) <= 1e-11


def test_h_31_has_pi4_term():
    cf = h_closed(3, 1)
    from polylog.closedform import monomial
    assert cf.coefficient(monomial((PI, 4))) == Fraction(-7, 120)
    assert cf.coefficient(monomial((LN2, 4))) == 0


def test_h_matches_quadrature_weights_2_to_5():
    for n in range(1, 5):
        for m in range(1, 5):
            if not 2 <= n + m <= 5:
                continue
            closed_value = cf_num(h_closed(n, m))
            quad = lognm_numeric("HNM", n, m)
            assert abs(closed_value - quad) <= 1e-9, (n, m)


def test_h_weight6_carries_atoms_but_matches_quadrature():
    cf = h_closed(2, 4)
    assert cf.sigma_atoms()
    quad = lognm_numeric("HNM", 2, 4)
    assert abs(cf_num(cf) - quad) <= 1e-9


def test_h_pde_residuals_vanish():
    for n in range(1, 6):
        for m in range(1, 6):
            if n + m <= 6:
                assert h_pde_residual(n, m).is_zero, (n, m)


def test_h_boundary_condition():
    # h(0,1) = 2 ln 2 - 1 fixes the (-1)^m m! normalization
    assert h_boundary_closed(1) == ClosedForm.atom(LN2, 1, 2) - 1
    for m in range(1, 5):
        quad = lognm_numeric("HNM", 0, m)
        assert abs(cf_num(h_boundary_closed(m)) - quad) <= 1e-10, m


def test_truncated_exponential():
    e2 = truncated_exp_ln2(2)
    expected = (ClosedForm.one() + ClosedForm.atom(LN2, 1, -1)
                + ClosedForm.atom(LN2, 2, Fraction(1, 2)))
    assert e2 == expected


# -- the lattice-path sums folded one operator at a time, as references --------


def _truncated_exp_ln2_reference(m):
    out = ClosedForm.zero()
    for k in range(m + 1):
        coeff = Fraction((-1) ** k, math.factorial(k))
        out = out + (coeff if k == 0 else ClosedForm.atom(LN2, k, coeff))
    return out


def _i_star_reference(n, m):
    if n == 0 or m == 0:
        return ClosedForm.one()
    out = ClosedForm.rational(math.comb(n + m, n))
    for a in range(1, n + 1):
        for b in range(1, m + 1):
            out = out - Fraction(math.comb(n - a + m - b, n - a)) * kolbig_snp(a, b)
    return out


def _h_star_reference(n, m):
    if m == 0:
        return ClosedForm.one()
    if n == 0:
        return 2 * _truncated_exp_ln2_reference(m) - 1
    out = ClosedForm.rational(math.comb(n + m, n))
    for mu in range(1, m + 1):
        out = out + 2 * Fraction(math.comb(n + m - mu, n)) \
            * ClosedForm.atom(LN2, mu, Fraction((-1) ** mu, math.factorial(mu)))
    for nu in range(1, n + 1):
        for mu in range(1, m + 1):
            out = out + Fraction(math.comb(n - nu + m - mu, n - nu)) * sigma_tilde(nu, mu)
    return out


def test_lattice_sums_equal_the_operator_folds_to_the_table_weight():
    for m in range(TABLE_WEIGHT + 1):
        assert truncated_exp_ln2(m) == _truncated_exp_ln2_reference(m), m
    for n in range(TABLE_WEIGHT + 1):
        for m in range(TABLE_WEIGHT + 1 - n):
            assert i_star(n, m) == _i_star_reference(n, m), (n, m)
            assert h_star(n, m) == _h_star_reference(n, m), (n, m)
            if n and m:
                assert i_pde_residual(n, m) == (
                    _i_star_reference(n, m) - _i_star_reference(n, m - 1)
                    - _i_star_reference(n - 1, m) + kolbig_snp(n, m)), (n, m)
                assert h_pde_residual(n, m) == (
                    _h_star_reference(n, m) - _h_star_reference(n, m - 1)
                    - _h_star_reference(n - 1, m) - sigma_tilde(n, m)), (n, m)
                w = n + m
                rhs = ClosedForm.zero()
                for k, c in enumerate(_relation_row(n, m), start=1):
                    rhs = rhs + c * sigma_tilde(k, w - k)
                assert s_sigma_relation_residual(n, m) == (
                    Fraction((-1) ** w) * kolbig_snp(n, m) - rhs), (n, m)


# -- numeric oracle edge -------------------------------------------------------


def test_lognm_numeric_edges():
    assert lognm_numeric("INM", 0, 1) == pytest.approx(-1.0, abs=1e-12)
    assert lognm_numeric("INM", 1, 1) == pytest.approx(2 - math.pi ** 2 / 6, abs=1e-12)
    for tag, n, m in (("INM", 0, 0), ("HNM", -1, 2)):
        with pytest.raises(DomainError, match="need n, m >= 0 with n \\+ m >= 1"):
            lognm_numeric(tag, n, m)
    with pytest.raises(DomainError, match="unknown log-integral tag 'XNM'"):
        lognm_numeric("XNM", 1, 1)


def test_lognm_numeric_past_the_float_range_is_a_capacity_error():
    assert lognm_numeric("INM", 100, 1) == -3.6810701397980487e+127
    for tag, n, m in (("INM", 200, 1), ("HNM", 200, 1), ("INM", 1, 200), ("INM", 150, 1)):
        with pytest.raises(CapacityError, match=f"order {max(n, m)} "):
            lognm_numeric(tag, n, m)


# lognm_numeric at the 20 (tag, n, m) the lognm verify suite asks for, as computed
# before the oracle was memoized at the one precision ORACLE_TOL = 1e-12
_LOGNM_VALUES = {
    ("INM", 1, 1): 0.3550659331517736, ("INM", 1, 2): -0.3060180599843586,
    ("INM", 1, 3): 0.4241147776862465, ("INM", 2, 2): 0.14174900622629605,
    ("INM", 2, 3): -0.11486265417805633, ("INM", 3, 3): 0.05954121098392741,
    ("HNM", 1, 1): -0.20876139454400383, ("HNM", 1, 2): -0.0713087422985125,
    ("HNM", 1, 3): -0.029685358228167515, ("HNM", 1, 4): -0.013779445941861045,
    ("HNM", 2, 1): 0.22060814382739913, ("HNM", 2, 2): 0.05254388321684802,
    ("HNM", 2, 3): 0.016957888123348953, ("HNM", 3, 1): -0.34402140846567286,
    ("HNM", 3, 2): -0.056825597318827206, ("HNM", 4, 1): 0.7069601245885146,
    ("HNM", 0, 1): 0.38629436111989063, ("HNM", 0, 2): 0.1883173055966216,
    ("HNM", 0, 3): 0.10109738718799413, ("HNM", 0, 4): 0.0572806484141904,
}


def test_lognm_numeric_values_are_unchanged_and_memoized():
    lognm_numeric.cache_clear()
    for args, value in _LOGNM_VALUES.items():
        assert lognm_numeric(*args) == value, args
    assert lognm_numeric("HNM", 1, 2) == _LOGNM_VALUES[("HNM", 1, 2)]
    info = lognm_numeric.cache_info()
    assert (info.misses, info.hits) == (len(_LOGNM_VALUES), 1)


def test_lognm_numeric_equals_direct_integrand_bit_for_bit():
    # the integrands as written before the log columns were shared
    for tag, n, m in _LOGNM_VALUES:
        if tag == "INM":
            ev = lambda x, omx: log1m(omx, x) ** n * log1m(x, omx) ** m
        else:
            ev = lambda x, omx: log1m(omx, x) ** n * math.log1p(x) ** m
        direct = integrate01(pointwise(ev), ORACLE_TOL).value
        assert lognm_numeric(tag, n, m) == direct, (tag, n, m)


# -- the s <-> sigma~ network ---------------------------------------------------


def test_relation_residuals_vanish_through_weight5():
    for w in range(2, 6):
        for n in range(1, w):
            assert s_sigma_relation_residual(n, w - n).is_zero, (n, w - n)


def test_relation_residuals_weight6_are_atomic_but_numerically_zero():
    for (n, m) in ((1, 5), (2, 4), (3, 3)):
        res = s_sigma_relation_residual(n, m)
        assert res.sigma_atoms()
        assert abs(cf_num(res)) <= 1e-9


def test_weight6_rank_and_free_atoms():
    unknowns, rank, free = sigma_weight6_count()
    assert (unknowns, rank, free) == (5, 3, 2)


def test_relation_matrix_shape():
    rows = [_relation_row(n, 6 - n) for n in range(1, 4)]
    assert len(rows) == 3
    assert all(len(coeffs) == 5 for coeffs in rows)


def test_sigma_weight6_report():
    entries = [e for e in run_suite("lognm").entries
               if fnmatch(e.identity_id, "lognm.sigma-weight6-*")]
    assert all(e.status == "pass" for e in entries)
    ids = [e.identity_id for e in entries]
    assert "lognm.sigma-weight6-rank" in ids
