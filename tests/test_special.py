import itertools
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polylog import special, summation
from polylog.approx import s_minus_truncated, stirling1
from polylog.closedform import (Atom, ClosedForm, eta_factor_closed, li_half_atom, sigma_atom,
                                zeta_closed, zeta_odd_atom)
from polylog.errors import CapacityError, DomainError
from polylog.eulersums import (c_sum, jordan_even, jordan_nielsen, milgram, s_minus, s_plus,
                               sum_oracle)
from polylog.ipq import Family, ipq_final, ipq_numeric, ipq_series, r_value
from polylog.lognm import h_closed, h_pde_residual, i_closed, i_pde_residual, lognm_numeric
from polylog.quadrature import ORACLE_TOL, integrate01, log1m, nodes
from polylog.seriesring import (BivariateSeries, beta_derivative_inm, gamma_ratio_series,
                                kolbig_snp)
from polylog.sigma import sigma_tilde
from polylog.special import (_li_series, li_column, li_neg, li_pos, mpl2,
                             nielsen_num, outer_tail, polylog)
from polylog.summation import zeta_num

from conftest import clear_package_caches, eta_brute, li_half_brute, pointwise, zeta_brute


def _li_brute(p: int, x: float, terms: int = 2_000_000) -> float:
    # plain partial sum; adequate only away from |x| = 1
    total = 0.0
    powx = 1.0
    for k in range(1, terms + 1):
        powx *= x
        t = powx / k ** p
        total += t
        if abs(t) < 1e-18:
            break
    return total


# -- polylog ------------------------------------------------------------------


def test_polylog_order_one():
    assert abs(polylog(1, 0.5) - math.log(2)) < 1e-15
    assert abs(polylog(1, -1.0) + math.log(2)) < 1e-15
    with pytest.raises(DomainError):
        polylog(1, 1.0)


def test_polylog_endpoints():
    assert abs(polylog(2, 1.0) - zeta_brute(2)) < 1e-13
    assert abs(polylog(2, -1.0) + eta_brute(2)) < 1e-13
    assert abs(polylog(4, 0.5) - li_half_brute(4)) < 1e-15
    assert polylog(3, 0.0) == 0.0


def test_polylog_domain():
    with pytest.raises(DomainError):
        polylog(0, 0.5)
    with pytest.raises(DomainError):
        polylog(2, 1.5)
    with pytest.raises(DomainError):
        polylog(2, -1.01)


def test_polylog_past_the_float_range_of_the_factorial():
    # past p = 171, (p-1)! overflows a float and the log expansion cannot
    # run; the direct series, whose terms past x are below x 2^-p, gives x
    for p, x in ((172, 0.75), (200, 0.9), (200, -0.9), (400, 0.999999)):
        assert polylog(p, x) == x, (p, x)
    xs = nodes(3)[0]
    assert li_column(200, 1, 3) == xs
    assert li_column(200, -1, 3) == tuple(-x for x in xs)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
@pytest.mark.parametrize("x", [-0.999, -0.75, -0.51, -0.5, -0.1, 0.1, 0.49,
                               0.51, 0.75, 0.9, 0.999])
def test_polylog_against_series(p, x):
    assert abs(polylog(p, x) - _li_brute(p, x)) <= 1e-13 * max(1.0, abs(polylog(p, x)))


@given(st.integers(2, 6), st.floats(-0.999, 0.999))
def test_polylog_branch_seams(p, x):
    # derivative relation x Li_p'(x) = Li_{p-1}(x) via a tiny central step,
    # loose tolerance: catches branch mismatches, not roundoff
    h = 1e-6
    if abs(x) < 2 * h:
        return
    lhs = x * (polylog(p, x + h) - polylog(p, x - h)) / (2 * h)
    rhs = polylog(p - 1, x)
    assert abs(lhs - rhs) <= 5e-8 * max(1.0, abs(rhs))


def test_polylog_weight_raising_integral():
    # integral_0^1 Li_p(t)/t dt = zeta(p+1): exercises the derivative
    # structure of the ladder through quadrature
    for p in (1, 2, 3, 4):
        got = integrate01(pointwise(lambda x, omx, p=p: li_pos(p, x, omx) / x), 1e-12).value
        assert abs(got - zeta_brute(p + 1)) <= 1e-11, p


def test_near_one_helpers():
    omx = 1e-14
    x = 1.0 - omx
    # Li_2(x) ~ zeta(2) + ln(omx) omx + ...
    expected = zeta_brute(2) + omx * (math.log(omx) - 1.0)
    assert abs(li_pos(2, x, omx) - expected) < 1e-15
    # Li_2(-x) at x -> 1 tends to -eta(2)
    assert abs(li_neg(2, x, omx) + eta_brute(2)) < 1e-13


# -- Nielsen ------------------------------------------------------------------


def test_nielsen_examples():
    assert abs(nielsen_num(1, 1, 1.0) - zeta_brute(2)) <= 1e-11
    assert abs(nielsen_num(1, 2, 1.0) - zeta_brute(3)) <= 1e-11
    assert abs(nielsen_num(2, 1, -1.0) + 0.75 * zeta_brute(3)) <= 1e-11
    assert abs(nielsen_num(1, 1, -1.0) + eta_brute(2)) <= 1e-11


def test_nielsen_is_li_when_p_is_one():
    for n in (1, 2, 3):
        for z in (1.0, -1.0):
            assert abs(nielsen_num(n, 1, z) - polylog(n + 1, z)) <= 1e-11


def test_nielsen_num_equals_direct_integrand_bit_for_bit():
    # the integrands as written before the log columns were shared, at the
    # (n, p) the verify suites ask for
    for n, p in ((n, p) for n in range(1, 6) for p in range(1, 6) if n + p <= 6):
        pref = (-1.0) ** (n + p - 1) / (math.factorial(n - 1) * math.factorial(p))
        for z in (1.0, -1.0):
            if z == 1.0:
                ev = lambda x, omx: log1m(omx, x) ** (n - 1) * log1m(x, omx) ** p / x
            else:
                ev = lambda x, omx: log1m(omx, x) ** (n - 1) * math.log1p(x) ** p / x
            direct = pref * integrate01(pointwise(ev), ORACLE_TOL).value
            assert nielsen_num(n, p, z) == direct, (n, p, z)


def test_nielsen_num_far_beyond_the_tables():
    # the prefactor is an int/int quotient, so no factorial is converted to a
    # float; a log column past the float range is a CapacityError
    assert nielsen_num(100, 1, 1.0) == 1.0000000000000002
    assert nielsen_num(100, 1, -1.0) == -1.0000000000000002
    assert nielsen_num(1, 200, -1.0) == 0.0
    # an underflowed integral keeps the sign (-1)^{n+p-1} of the prefactor
    assert math.copysign(1.0, nielsen_num(1, 1501, -1.0)) == -1.0
    for z in (1.0, -1.0):
        with pytest.raises(CapacityError, match="order 199 "):
            nielsen_num(200, 1, z)


def test_nielsen_num_finishes_fast_at_any_order():
    # the integral comes before the factorials of the prefactor: an
    # overflowing log column fails at level 0, and a zero integral (every
    # node's ln^p(1 + x) underflows) returns before they are built
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="order 999999 "):
        nielsen_num(10 ** 6, 1, 1.0)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    assert nielsen_num(1, 10 ** 6, -1.0) == 0.0
    assert time.perf_counter() - start < 0.5


def test_nielsen_domain():
    # S_{n,p}(z) is asked for at z = +-1 only: s_{n,p} and sigma~_{n,p}
    for args in ((0, 1, 0.5), (1, 0, -1.0), (1, 1, 2.0), (2, 2, 0.0), (2, 2, 0.5),
                 (1, 1, -0.999)):
        with pytest.raises(DomainError):
            nielsen_num(*args)


# -- depth-2 multiple polylogarithms -------------------------------------------


def _mpl2_brute(mo, mi, xo, xi, K=4000):
    inner = 0.0
    powi = 1.0
    total = 0.0
    powo = 1.0
    for k in range(1, K):
        powo *= xo
        if k >= 2:
            total += powo * inner / k ** mo
        powi *= xi
        inner += powi / k ** mi
    return total


def test_mpl2_zeta21():
    # classical: sum_{k>j} 1/(k^2 j) = zeta(3); brute pair bound via K terms
    got = mpl2(2, 1, 1.0, 1.0)
    assert abs(got - zeta_brute(3)) <= 1e-9


def test_mpl2_zero_argument():
    # mpl2 is taken at unit arguments only
    for args in ((3, 2, 0.0, 1.0), (1, 2, 0.0, 0.5), (2, 1, 1.0, 0.0), (2, 2, 1.0, 0.5)):
        with pytest.raises(DomainError, match="must be 1 or -1"):
            mpl2(*args)


def test_mpl2_alternating_cases_match_brute():
    # alternating outer sums: brute partial sums converge after pairing
    for (mo, mi, xo, xi) in ((1, 2, -1.0, -1.0), (1, 2, -1.0, 1.0),
                             (2, 1, -1.0, 1.0), (2, 2, -1.0, -1.0),
                             (2, 1, -1.0, -1.0), (1, 3, -1.0, -1.0)):
        got = mpl2(mo, mi, xo, xi)
        b1 = _mpl2_brute(mo, mi, xo, xi, 20000)
        b2 = _mpl2_brute(mo, mi, xo, xi, 20001)
        assert abs(got - 0.5 * (b1 + b2)) <= 5e-7


def test_mpl2_unit_arguments_meet_the_stuffle_identity():
    # mpl2(a,b,x,y) + mpl2(b,a,y,x) + Li_{a+b}(xy) = Li_a(x) Li_b(y) with
    # x, y = +-1, where each weight 1 needs its argument -1
    for a, b, x, y in [(a, b, x, y) for a in range(1, 5) for b in range(1, 5)
                       for x in (1.0, -1.0) for y in (1.0, -1.0)
                       if (a >= 2 or x == -1.0) and (b >= 2 or y == -1.0)]:
        lhs = mpl2(a, b, x, y) + mpl2(b, a, y, x) + polylog(a + b, x * y)
        assert abs(lhs - polylog(a, x) * polylog(b, y)) <= 1e-14, (a, b, x, y)


def test_mpl2_divergent_configurations():
    with pytest.raises(DomainError):
        mpl2(1, 1, 1.0, 1.0)
    with pytest.raises(DomainError):
        mpl2(1, 2, 0.5, 1.0)
    with pytest.raises(DomainError):
        mpl2(2, 1, 1.5, 1.0)


def test_mpl2_fails_fast_past_the_float_range():
    # past m_outer = 1074 the largest term, 2^-m_outer, is below the smallest
    # subnormal; the tail's anchor and fixed-point width grew with m_outer
    for m in (1075, 20000):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"outer order {m} "):
            mpl2(m, 1, -1.0, 1.0)
        assert time.perf_counter() - start < 0.1, m
    assert mpl2(1074, 1, 1.0, -1.0) == -5e-324


def test_mpl2_integral_identities():
    # integral Li_p(t)/(1+t) dt = -mpl2(1, p, -1, -1)
    for p in (2, 3):
        quad = integrate01(pointwise(lambda x, omx, p=p: li_pos(p, x, omx) / (1 + x)), 1e-12).value
        assert abs(quad + mpl2(1, p, -1.0, -1.0)) <= 1e-9
    # integral [Li_p(t) - Li_p(1)]/(1-t) dt = -mpl2(p,1,1,1) - zeta(p+1)
    for p in (2, 3):
        quad = integrate01(
            pointwise(lambda x, omx, p=p: (li_pos(p, x, omx) - zeta_num(p)) / omx),
            1e-12).value
        assert abs(quad + mpl2(p, 1, 1.0, 1.0) + zeta_num(p + 1)) <= 1e-9


# mpl2 at the arguments the ipq.low-order.* verify entries ask for (p = 2..4),
# to 32 digits: the closed forms those entries compare with (zeta(p) ln 2 +
# I+-(p-1,1), Li_p(-1) ln 2 + I-(p-1,1), -I+(1,p-1) - zeta(p+1) and
# -I+-(1,p-1) + (1-2^-p) zeta(p+1)) and mpmath quadratures of their defining
# integrals, both at 45 digits, agree to 1e-45
_MPL2_LOW_ORDER = {
    (1, 2, -1.0, -1.0): -0.38889584616810632909974350804769,
    (1, 2, -1.0, 1.0): 0.26957647953152780738735538911831,
    (2, 1, 1.0, 1.0): 1.2020569031595942853997381615114,
    (2, 1, -1.0, 1.0): 0.15025711289494928567496727018893,
    (1, 3, -1.0, -1.0): -0.33954546908735986959066784846086,
    (1, 3, -1.0, 1.0): 0.28667575443853831023557074207706,
    (3, 1, 1.0, 1.0): 0.27058080842778454787900092413529,
    (3, 1, -1.0, 1.0): 0.087785671568655302036593294997762,
    (1, 4, -1.0, -1.0): -0.32135201207878197700381936288068,
    (1, 4, -1.0, 1.0): 0.29618652718537891387260905894056,
    (4, 1, 1.0, 1.0): 0.096551159989443734465645531428943,
    (4, 1, -1.0, 1.0): 0.048936397049969063360742748640876,
}


def test_mpl2_low_order_values_against_references():
    for args, ref in _MPL2_LOW_ORDER.items():
        assert abs(mpl2(*args) - ref) <= 1e-15 * abs(ref), args


def test_mpl2_weight_three_is_zeta3_to_an_ulp():
    # mpl2(2, 1, 1, 1) = zeta(2, 1) = zeta(3); its sum_tail tail is the
    # Euler-Maclaurin series of its term's expansion, not a truncated one
    assert abs(mpl2(2, 1, 1.0, 1.0) - _MPL2_LOW_ORDER[2, 1, 1.0, 1.0]) <= 2.3e-16


# mpl2(1, p, -1, -1) to 32 digits: -sum_k k^-p [psi((k+2)/2) - psi((k+1)/2)]/2
# summed at 40 digits by mpmath, and equal to the inner-first order there
_MPL2_DOUBLY_ALTERNATING = {
    2: -0.38889584616810632909974350804769,
    3: -0.33954546908735986959066784846086,
    4: -0.32135201207878197700381936288068,
}


def test_mpl2_doubly_alternating_against_references():
    for p, ref in _MPL2_DOUBLY_ALTERNATING.items():
        assert abs(mpl2(1, p, -1.0, -1.0) - ref) <= 2e-15 * abs(ref), p


# (ln^2 2 - pi^2/6)/2 = mpl2(1, 1, -1, -1), and the alternating outer tail
# V_1(x) = sum_{i>=0} (-1)^i / (x + i) = [psi((x+1)/2) - psi(x/2)]/2, to 32
# digits (mpmath at 40 digits)
_MPL2_WEIGHT_TWO = -0.58224052646501250590265632015968
_V1_REFERENCES = {
    31: 0.016389042868547467908687450562792,
    32: 0.015869021647581564349377065566240,
    1000: 0.00050024999987500024999893750774991,
    2 ** 20: 4.7683738557680044312866190219083e-7,
}


def test_mpl2_doubly_alternating_weight_one_against_reference():
    # thousands of 1/k^2 terms with the alternating tail V_1(k+1), whose
    # values at the integers are rounded once from their exact run-down
    assert abs(mpl2(1, 1, -1.0, -1.0) - _MPL2_WEIGHT_TWO) <= 1e-15 * abs(_MPL2_WEIGHT_TWO)
    for x, ref in _V1_REFERENCES.items():
        assert abs(outer_tail(1, -1.0, x) - ref) <= 2e-16 * ref, x


def test_outer_tail_matches_its_direct_sum_up_to_high_weight():
    # each block value is one correctly rounded division of fixed-point
    # integers.  The direct sum is a correctly rounded sum of rounded terms,
    # so within an ulp or so; the
    # subnormal values near the anchors at m = 120 have no digits to compare
    for m in (12, 120):
        for x in (1.0, -1.0):
            first = special._tail_series(m, x)[0]
            for y in range(1, first + 40, 7):
                ref = math.fsum(x ** i * (y + i) ** -m for i in range(4000))
                if abs(ref) > 1e-290:
                    assert abs(outer_tail(m, x, y) - ref) <= 1e-15 * abs(ref), (m, x, y)


def test_outer_tail_is_taken_at_positive_integers_only():
    # y = 0 would index the block's last value, T at the first anchor
    for y in (0, -3):
        with pytest.raises(DomainError, match=f"order {y} is below its least value 1"):
            outer_tail(2, 1.0, y)


@pytest.mark.parametrize("args, error", [
    ((3, 0.5, 2), DomainError),      # was 0.125, the first term of a series of 0.14885
    ((3, math.nan, 2), DomainError),  # was a ValueError
    ((1, 1.0, 2), DomainError),       # the harmonic tail diverges; was a ZeroDivisionError
    ((3000, 1.0, 1), CapacityError),  # took 2.9 s
    ((10000, 1.0, 1), CapacityError),  # ran past 20 s
], ids=["half", "nan", "divergent", "m3000", "m10000"])
def test_outer_tail_applies_the_mpl2_outer_rules_fast(args, error):
    clear_package_caches()
    start = time.perf_counter()
    with pytest.raises(error):
        outer_tail(*args)
    assert time.perf_counter() - start < 0.1


# in-domain values of outer_tail and mpl2, bit for bit as before the two
# shared one check of their outer arguments
_OUTER_TAIL_BITS = {
    (3, 1.0, 2): "0x1.9dd002780310ap-3", (2, 1.0, 1): "0x1.a51a6625307d3p+0",
    (1, -1.0, 5): "0x1.c1cc2a27c7a24p-4", (12, -1.0, 200): "0x1.3ec41b5152f9fp-93",
    (1074, 1.0, 1): "0x1.0000000000000p+0", (1074, -1.0, 3): "0x0.0p+0",
    (120, 1.0, 40): "0x1.5c9c17aec850cp-639",
}
_MPL2_BITS = {
    (2, 1, 1.0, 1.0): "0x1.33ba004f00621p+0", (1, 1, -1.0, -1.0): "-0x1.2a1b6e2725670p-1",
    (3, 2, -1.0, 1.0): "0x1.7be5d11fc8718p-4", (5, 3, 1.0, -1.0): "-0x1.291c5c3550bfcp-5",
    (1074, 1, 1.0, -1.0): "-0x0.0000000000001p-1022",
}


def test_outer_tail_and_mpl2_keep_their_bits():
    for args, bits in _OUTER_TAIL_BITS.items():
        assert outer_tail(*args).hex() == bits, args
    for args, bits in _MPL2_BITS.items():
        assert mpl2(*args).hex() == bits, args


def test_mpl2_expansion_matches_the_term_callable():
    # mpl2's term at x_inner = x_outer is F(k + 1) wherever T's series holds,
    # k + 1 at or above the first anchor, at the cutoffs sum_tail starts from
    checked = 0
    for x in (1.0, -1.0):
        for m_outer in range(2 if x == 1.0 else 1, 30):
            first = special._tail_series(m_outer, x)[0]
            for m_inner in range(1, 12):
                expansion = special._mpl2_expansion(m_outer, m_inner, x)
                for k in (64, 128):
                    if k + 1 < first:
                        continue
                    y = k + 1.0
                    f = math.fsum(u * y ** -p for p, u, _ in expansion)
                    term = outer_tail(m_outer, x, k + 1) * k ** -m_inner
                    assert abs(f - term) <= 1e-15 * term, (m_outer, m_inner, x, k)
                    checked += 1
    assert checked > 1000


def test_tail_series_is_the_written_formula():
    # c_j = (1, or 4^j - 1 at x = -1) C(m + 2j - 2, 2j - 1) B_2j/(2j), bit for
    # bit, and the first anchor is the least of 64, 80, ... where c_9 y^-17 is
    # below 1e-17 of the leading term
    b = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
         Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798))
    for m in range(2, 60):
        for x in (1.0, -1.0):
            c = [(1 if x == 1.0 else 4 ** j - 1) * math.comb(m + 2 * j - 2, 2 * j - 1)
                 * float(b[j - 1] / (2 * j)) for j in range(1, 10)]
            first = next(y for y in itertools.count(64, 16)
                         if abs(c[8]) * y ** -17.0 <= 1e-17 * (y / (m - 1) if x == 1.0 else 0.5))
            assert special._tail_series(m, x) == (first, tuple(c[:8])), (m, x)


def test_shared_series_caches_are_thread_safe():
    def work():
        return [mpl2(*args) for args in list(_MPL2_LOW_ORDER)[:4]]

    expected = work()
    results = [None] * 8

    def run(slot):
        results[slot] = work()

    interval = sys.getswitchinterval()
    for fn in (special._tail_series, special._tail_block, summation._cvz_weights):
        fn.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)


# -- cached columns and tables ---------------------------------------------------


def test_li_columns_equal_the_scalar_kernels_bit_for_bit():
    for grid in range(7):
        xs, omxs, _ = nodes(grid)
        for p in range(1, 9):
            assert li_column(p, 1, grid) == tuple(li_pos(p, x, omx)
                                                  for x, omx in zip(xs, omxs)), (grid, p)
            assert li_column(p, -1, grid) == tuple(li_neg(p, x, omx)
                                                   for x, omx in zip(xs, omxs)), (grid, p)


def _li_series_reference(p, x):
    # the loop as written before the powers k^-p were tabulated
    total = 0.0
    powx = 1.0
    for k in range(1, 400):
        powx *= x
        t = powx * float(k) ** (-p)
        total += t
        if abs(t) <= 2.2e-16 * abs(total) and k > 4:
            return total


def test_li_series_matches_reference_loop_bit_for_bit():
    for p in range(1, 12):
        for j in range(-50, 51):
            x = j / 100.0
            assert _li_series(p, x) == _li_series_reference(p, x), (p, x)


def test_table_driven_direct_terms_equal_the_term_callable(monkeypatch):
    # mpl2's series with x_inner x_outer = 1 hands sum_tail a head over the
    # outer tails' table; its terms below the cutoff must be the defining
    # term T(k+1) k^-m_inner, written here with outer_tail, bit for bit
    heads = []
    tail = summation.sum_tail

    def capturing(head, tail_expansion):
        heads.append(head)
        return tail(head, tail_expansion)

    monkeypatch.setattr(special, "sum_tail", capturing)
    cases = ((2, 1, 1.0, 1.0), (3, 1, 1.0, 1.0), (1, 2, -1.0, -1.0), (1, 1, -1.0, -1.0),
             (2, 3, -1.0, -1.0))
    for args in cases:
        mpl2(*args)
    assert len(heads) == len(cases)
    for (m_outer, m_inner, x_outer, _), head in zip(cases, heads):
        assert list(head(64)) == [outer_tail(m_outer, x_outer, k + 1) * k ** -m_inner
                                  for k in range(1, 64)], (m_outer, m_inner, x_outer)


# NaN arguments and tolerances that are not finite and positive
_QUIET = pointwise(lambda x, omx: 1.0)
_ALT = lambda k: (-1) ** k / k ** 2.0  # noqa: E731
_NAN = math.nan


@pytest.mark.parametrize("call", [
    lambda: polylog(2, _NAN),
    lambda: nielsen_num(1, 2, _NAN),
    lambda: mpl2(2, 1, _NAN, 0.5),
    lambda: mpl2(2, 1, 0.5, _NAN),
    lambda: integrate01(_QUIET, _NAN),
    lambda: integrate01(_QUIET, math.inf),
    lambda: integrate01(_QUIET, -1e-12),
    lambda: summation.sum_alternating(_ALT, _NAN),
    lambda: summation.sum_alternating(_ALT, math.inf),
    lambda: summation.sum_alternating(_ALT, -1.0),
], ids=["polylog-nan", "nielsen-nan", "mpl2-outer-nan", "mpl2-inner-nan",
        "integrate01-nan", "integrate01-inf", "integrate01-negative",
        "sum_alternating-nan", "sum_alternating-inf", "sum_alternating-negative"])
def test_nan_arguments_and_bad_tolerances_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


_SUM_TAGS = ("SPlus", "SMinus", "Jordan1", "Jordan2", "Milgram", "CSum")

# every order-taking name of polylog.__all__ with in-domain arguments: its
# int arguments are its orders (gamma_ratio_series takes them as a pair)
_ORDER_TAKING = {
    "stirling1": (stirling1, (3, 1)),
    "s_minus_truncated": (s_minus_truncated, (5, 3)),
    "zeta_closed": (zeta_closed, (3,)), "eta_factor_closed": (eta_factor_closed, (3,)),
    "s_plus": (s_plus, (3,)), "s_minus": (s_minus, (3,)), "c_sum": (c_sum, (3,)),
    "milgram": (milgram, (3,)), "jordan_even": (jordan_even, ("J1", 4)),
    "jordan_nielsen": (jordan_nielsen, ("J2", 3)), "sum_oracle": (sum_oracle, ("SPlus", 3)),
    "ipq_final": (ipq_final, (Family.MIXED, 2, 3)),
    "ipq_numeric": (ipq_numeric, (Family.MINUS, 2, 3)),
    "ipq_series": (ipq_series, (Family.PLUS, 2, 3)),
    "r_value": (r_value, (Family.MIXED, 2, 3)),
    "i_closed": (i_closed, (2, 3)), "h_closed": (h_closed, (2, 3)),
    "i_pde_residual": (i_pde_residual, (2, 3)), "h_pde_residual": (h_pde_residual, (2, 3)),
    "lognm_numeric": (lognm_numeric, ("HNM", 2, 3)),
    "beta_derivative_inm": (beta_derivative_inm, (2, 3)),
    "gamma_ratio_series": (lambda na, nb: gamma_ratio_series((na, nb)), (2, 3)),
    "kolbig_snp": (kolbig_snp, (2, 3)), "sigma_tilde": (sigma_tilde, (2, 3)),
    "BivariateSeries": (BivariateSeries, (2, 3)),
    "mpl2": (mpl2, (3, 2, 1.0, -1.0)), "nielsen_num": (nielsen_num, (2, 3, -1.0)),
    "polylog": (polylog, (3, 0.3)),
    # and the atom factories
    "zeta_odd_atom": (zeta_odd_atom, (5,)), "li_half_atom": (li_half_atom, (4,)),
    "sigma_atom": (sigma_atom, (2, 3)),
}


def _orders(args: tuple) -> list[int]:
    return [i for i, a in enumerate(args) if type(a) is int]


def _with(args: tuple, i: int, value) -> tuple:
    return args[:i] + (value,) + args[i + 1:]


def _bits(value):
    """What an integral float order must reproduce exactly: a closed form's
    JSON bytes, a float's bits, an atom's name, a dense series' coefficients."""
    if isinstance(value, ClosedForm):
        return value.to_json()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Atom):
        return value.name
    if isinstance(value, BivariateSeries):
        return [[c.to_json() for c in row] for row in value.c]
    return repr(value)


# (call, in-domain arguments, order positions, non-integral order) by id:
# each order-taking name at 2.5, inf and nan, and the named cases, which
# replace a generated case of the same id
_NON_INTEGRAL = {
    **{f"{name}-{bad}": (call, args, _orders(args), bad)
       for name, (call, args) in _ORDER_TAKING.items() for bad in (2.5, math.inf, _NAN)},
    "zeta_closed-3.5": (zeta_closed, (3,), [0], 3.5),
    "zeta_closed-nan": (zeta_closed, (3,), [0], _NAN),
    "li_half_atom-4.5": (li_half_atom, (4,), [0], 4.5),
    "li_half_atom-inf": (li_half_atom, (4,), [0], math.inf),
    "sigma_atom-n1.5": (sigma_atom, (1, 2), [0], 1.5),
    "sigma_atom-p2.5": (sigma_atom, (2, 2), [1], 2.5),
    "polylog-2.5-at-0.3": (polylog, (2, 0.3), [0], 2.5),
    "polylog-2.5-at-minus-0.3": (polylog, (2, -0.3), [0], 2.5),
    "polylog-2.5-at-0.7": (polylog, (2, 0.7), [0], 2.5),
    "polylog-inf": (polylog, (2, 0.5), [0], math.inf),
    "polylog-nan": (polylog, (2, 0.5), [0], _NAN),
    **{f"sum_oracle-{tag}-2.5": (sum_oracle, (tag, 2), [1], 2.5) for tag in _SUM_TAGS},
    "sum_oracle-inf": (sum_oracle, ("SPlus", 2), [1], math.inf),
    "sum_oracle-nan": (sum_oracle, ("SMinus", 2), [1], _NAN),
}


@pytest.mark.parametrize("call, args, positions, bad", _NON_INTEGRAL.values(),
                         ids=_NON_INTEGRAL.keys())
def test_non_integral_orders_raise_domain_error(call, args, positions, bad):
    # every order is checked where no cache hit can skip it: cold, and warm
    # with the in-domain result cached
    for warm in (False, True):
        clear_package_caches()
        if warm:
            call(*args)
        for i in positions:
            with pytest.raises(DomainError, match="is not an integer"):
                call(*_with(args, i, bad))


@pytest.mark.parametrize("name", _ORDER_TAKING)
def test_an_integral_float_order_is_accepted(name):
    # 3.0 is answered exactly as 3: cold, and warm with the int's result cached
    call, args = _ORDER_TAKING[name]
    clear_package_caches()
    expected = _bits(call(*args))
    floated = tuple(float(a) if type(a) is int else a for a in args)
    for warm in (False, True):
        clear_package_caches()
        if warm:
            call(*args)
        assert _bits(call(*floated)) == expected, warm
