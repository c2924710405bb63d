import math
import random
from fractions import Fraction

import pytest

from polylog import closedform
from polylog.closedform import (FLOAT_ORDER, ClosedForm, eta_rounded, li_half_rounded,
                                zeta_odd_atom, zeta_rounded)
from polylog.digamma import euler_gamma, psi
from polylog.errors import ConvergenceError, DomainError
from polylog.sigma import cf_num
from polylog.special import polylog
from polylog.summation import TAIL_CUTOFF, _cvz, eta_num, sum_alternating, sum_tail, zeta_num

from conftest import eta_brute, zeta_brute


def test_alternating_basic():
    got = sum_alternating(lambda k: (-1) ** k / k ** 2, 1e-12)
    assert abs(got + eta_brute(2)) <= 1e-12


def test_alternating_zero_terms():
    assert sum_alternating(lambda k: (-1) ** k * 0.0, 1e-12) == 0.0


def test_alternating_sminus3():
    # S-(3) against paired brute summation (pairs are O(k^-4): direct reach)
    g = euler_gamma()

    def h(k):
        return psi(k + 1.0) + g

    brute = math.fsum(-h(2 * j - 1) / (2 * j - 1) ** 3 + h(2 * j) / (2 * j) ** 3
                      for j in range(1, 120000))
    got = sum_alternating(lambda k: (-1) ** k * h(float(k)) * float(k) ** -3.0, 1e-12)
    assert abs(got - brute) <= 1e-10


# psi(z) ~ ln z + sum_n c_n z^-n, through B_10: c_1 = -1/2, c_2j = -B_2j/(2j)
_PSI_SERIES = ((1, -0.5), (2, -1 / 12), (4, 1 / 120), (6, -1 / 252), (8, 1 / 240),
               (10, -1 / 132))


def _psi_tail(scale, step, offset, shift, r):
    """The sum_tail tail of scale [psi(k + shift) - psi(shift)] (step k + offset)^-r
    with shift - offset/step = 0 or 1: psi(z + 1) = psi(z) + 1/z, z = y/step."""
    plus_one = shift - offset / step == 1.0
    expansion = [(r, scale * (-math.log(step) - psi(shift)), scale)]
    expansion += [(r + n, scale * (c + (n == 1 and plus_one)) * step ** n, 0.0)
                  for n, c in _PSI_SERIES]
    return step, offset, tuple(expansion)


def _power_tail(r):
    return 1, 0, ((r, 1.0, 0.0),)


def _tail_sum(term, tail):
    """sum_tail of a scalar term, through a head that maps it over 1..K-1."""
    return sum_tail(lambda K: map(term, range(1, K)), tail)


def test_tail_basic():
    assert abs(_tail_sum(lambda k: k ** -2.0, _power_tail(2)) - zeta_brute(2)) <= 1e-12


def test_tail_harmonic_weighted():
    g = euler_gamma()
    got = _tail_sum(lambda k: (psi(k + 1.0) + g) * k ** -2.0, _psi_tail(1.0, 1, 0, 1.0, 2))
    # Euler: sum H_k/k^2 = 2 zeta(3)
    assert abs(got - 2 * zeta_brute(3)) <= 1e-11


def test_tail_half_integer_digamma():
    # sum_{k>=0} [psi(k+1/2) - psi(1/2)] / (2(2k+1)^3), the odd-order case
    got = _tail_sum(lambda k: 0.5 * (psi(k + 0.5) - psi(0.5)) * (2 * k + 1.0) ** -3.0,
                    _psi_tail(0.5, 2, 1, 0.5, 3))
    ln2 = math.log(2.0)
    li4h = math.fsum(2.0 ** -j * j ** -4.0 for j in range(1, 80))
    expected = (23.0 * math.pi ** 4 / 5760.0 + math.pi ** 2 * ln2 ** 2 / 24.0
                - ln2 ** 4 / 24.0 - li4h)
    assert abs(got - expected) <= 1e-11


def test_tail_divergence_guard():
    # a power p <= 1 anywhere in the expansion means the sum may diverge
    for expansion in (((1, 1.0, 0.0),), ((0.5, 1.0, 0.0), (3, 1.0, 0.0)),
                      ((3, 1.0, 0.0), (1, 1.0, 1.0))):
        with pytest.raises(DomainError):
            _tail_sum(lambda k: 1.0 / k, (1, 0, expansion))


def test_tail_corrections_that_do_not_settle_raise():
    # at y = 65 the corrections of y^-150 shrink by about (150/(2 pi 65))^2
    # a step, so they are not below 2^-60 of the tail by B_20
    with pytest.raises(ConvergenceError):
        _tail_sum(lambda k: 0.0, (1, 1, ((150, 1.0, 0.0),)))


def test_tail_with_a_non_finite_term_fails_fast():
    # a NaN or an infinity among the direct terms ends the sum at once,
    # before the tail's corrections are asked to settle against it
    for bad in (math.nan, math.inf):
        with pytest.raises(ConvergenceError, match="not finite"):
            _tail_sum(lambda k, bad=bad: bad if k == 5 else k ** -2.0, _power_tail(2))


def test_alternating_vs_tail_cross_check():
    for r in range(2, 7):
        alt = sum_alternating(lambda k, r=r: (-1) ** k * float(k) ** -float(r), 1e-12)
        tail = _tail_sum(lambda k, r=r: k ** -float(r), _power_tail(r))
        assert abs(alt - (2.0 ** (1 - r) - 1.0) * tail) <= 1e-12


def test_zeta_eta_helpers():
    for s in (2, 3, 4, 6):
        assert abs(zeta_num(s) - zeta_brute(s)) <= 1e-13
        assert abs(eta_num(s) - eta_brute(s)) <= 1e-12
    with pytest.raises(DomainError):
        zeta_num(1)


# zeta(2..80), eta(1..80) and Li_k(1/2), k = 4..18, to 25 significant digits
# (mpmath at 50 digits); the float of each string is the correctly rounded value
_ZETA_25 = {
    2: "1.644934066848226436472415", 3: "1.202056903159594285399738",
    4: "1.082323233711138191516004", 5: "1.036927755143369926331365",
    6: "1.017343061984449139714518", 7: "1.008349277381922826839798",
    8: "1.004077356197944339378685", 9: "1.002008392826082214417853",
    10: "1.000994575127818085337146", 11: "1.000494188604119464558702",
    12: "1.000246086553308048298638", 13: "1.000122713347578489146752",
    14: "1.000061248135058704829259", 15: "1.000030588236307020493552",
    16: "1.000015282259408651871733", 17: "1.000007637197637899762274",
    18: "1.000003817293264999839856", 19: "1.000001908212716553938926",
    20: "1.000000953962033872796113", 21: "1.000000476932986787806463",
    22: "1.00000023845050272773299", 23: "1.000000119219925965311073",
    24: "1.00000005960818905125948", 25: "1.00000002980350351465228",
    26: "1.000000014901554828365041", 27: "1.000000007450711789835429",
    28: "1.000000003725334024788457", 29: "1.000000001862659723513049",
    30: "1.000000000931327432419668", 31: "1.000000000465662906503378",
    32: "1.000000000232831183367651", 33: "1.000000000116415501727005",
    34: "1.000000000058207720879027", 35: "1.000000000029103850444971",
    36: "1.000000000014551921891042", 37: "1.000000000007275959835057",
    38: "1.000000000003637979547379", 39: "1.000000000001818989650307",
    40: "1.000000000000909494784026", 41: "1.000000000000454747378304",
    42: "1.000000000000227373684582", 43: "1.000000000000113686840768",
    44: "1.000000000000056843419876", 45: "1.000000000000028421709769",
    46: "1.000000000000014210854828", 47: "1.000000000000007105427395",
    48: "1.000000000000003552713691", 49: "1.000000000000001776356844",
    50: "1.000000000000000888178421", 51: "1.00000000000000044408921",
    52: "1.000000000000000222044605", 53: "1.000000000000000111022303",
    54: "1.000000000000000055511151", 55: "1.000000000000000027755576",
    56: "1.000000000000000013877788", 57: "1.000000000000000006938894",
    58: "1.000000000000000003469447", 59: "1.000000000000000001734723",
    60: "1.000000000000000000867362", 61: "1.000000000000000000433681",
    62: "1.00000000000000000021684", 63: "1.00000000000000000010842",
    64: "1.00000000000000000005421", 65: "1.000000000000000000027105",
    66: "1.000000000000000000013553", 67: "1.000000000000000000006776",
    68: "1.000000000000000000003388", 69: "1.000000000000000000001694",
    70: "1.000000000000000000000847", 71: "1.000000000000000000000424",
    72: "1.000000000000000000000212", 73: "1.000000000000000000000106",
    74: "1.000000000000000000000053", 75: "1.000000000000000000000026",
    76: "1.000000000000000000000013", 77: "1.000000000000000000000007",
    78: "1.000000000000000000000003", 79: "1.000000000000000000000002",
    80: "1.000000000000000000000001",
}
_LI_HALF_25 = {
    4: "0.5174790616738993863307582", 5: "0.5084005792422687074591088",
    6: "0.5040953978039885506900465", 7: "0.5020145633247084945674893",
    8: "0.5009966590970519105573559", 9: "0.500494888105953610040486",
    10: "0.5002463206060067750096752", 11: "0.5001227915298679551870889",
    12: "0.5000612742269005787413338", 13: "0.5000305969395168324463084",
    14: "0.500015285161619803263525", 15: "0.5000076381652628317492217",
    16: "0.5000038176158497696306704", 17: "0.5000019083202532567455739",
    18: "0.5000009539978811007944711",
}
_ETA_25 = {
    1: "0.6931471805599453094172321", 2: "0.8224670334241132182362076",
    3: "0.9015426773696957140498036", 4: "0.9470328294972459175765032",
    5: "0.9721197704469093059356551", 6: "0.9855510912974351040984392",
    7: "0.9925938199228302826704257", 8: "0.9962330018526478992272893",
    9: "0.998094297541605330767783", 10: "0.9990395075982715656392218",
    11: "0.9995171434980607541440942", 12: "0.9997576851438581908531797",
    13: "0.999878542763265115492175", 14: "0.9999391703459797181709542",
    15: "0.9999695512130992380826329", 16: "0.9999847642149061064416828",
    17: "0.9999923782920410119769379", 18: "0.9999961878696101134796892",
    19: "0.9999980935081716751068565", 20: "0.9999990466115815221150508",
    21: "0.9999995232582155428163167", 22: "0.9999997616132308225478972",
    23: "0.9999998808013184395032238", 24: "0.9999999403988923946283614",
    25: "0.9999999701988569628344151", 26: "0.9999999850992319965687877",
    27: "0.9999999925495504849635159", 28: "0.9999999962747534001087275",
    29: "0.9999999981373694181121867", 30: "0.9999999990686822814539786",
    31: "0.9999999995343403314542175", 32: "0.9999999997671698959514908",
    33: "0.9999999998835848580460305", 34: "0.9999999999417923990453159",
    35: "0.9999999999708961895298095", 36: "0.9999999999854480914338848",
    37: "0.9999999999927240446065848", 38: "0.9999999999963620219331688",
    39: "0.9999999999981810108432087", 40: "0.9999999999990905053804789",
    41: "0.9999999999995452526765309", 42: "0.9999999999997726263336959",
    43: "0.9999999999998863131653248", 44: "0.9999999999999431565821547",
    45: "0.9999999999999715782909081", 46: "0.9999999999999857891453976",
    47: "0.99999999999999289457268", 48: "0.9999999999999964472863337",
    49: "0.9999999999999982236431648", 50: "0.9999999999999991118215817",
    51: "0.9999999999999995559107906", 52: "0.9999999999999997779553952",
    53: "0.9999999999999998889776976", 54: "0.9999999999999999444888488",
    55: "0.9999999999999999722444244", 56: "0.9999999999999999861222122",
    57: "0.9999999999999999930611061", 58: "0.999999999999999996530553",
    59: "0.9999999999999999982652765", 60: "0.9999999999999999991326383",
    61: "0.9999999999999999995663191", 62: "0.9999999999999999997831596",
    63: "0.9999999999999999998915798", 64: "0.9999999999999999999457899",
    65: "0.9999999999999999999728949", 66: "0.9999999999999999999864475",
    67: "0.9999999999999999999932237", 68: "0.9999999999999999999966119",
    69: "0.9999999999999999999983059", 70: "0.999999999999999999999153",
    71: "0.9999999999999999999995765", 72: "0.9999999999999999999997882",
    73: "0.9999999999999999999998941", 74: "0.9999999999999999999999471",
    75: "0.9999999999999999999999735", 76: "0.9999999999999999999999868",
    77: "0.9999999999999999999999934", 78: "0.9999999999999999999999967",
    79: "0.9999999999999999999999983", 80: "0.9999999999999999999999992",
}


def test_zeta_eta_and_li_half_are_correctly_rounded():
    # summed by the float CVZ, zeta and eta were up to 3 ulp off, and
    # polylog(k, 1/2) by the float series up to 2
    for s, digits in _ZETA_25.items():
        assert zeta_num(s) == zeta_rounded(s) == float(digits), s
    for s, digits in _ETA_25.items():
        assert eta_num(s) == eta_rounded(s) == float(digits), s
    for k, digits in _LI_HALF_25.items():
        assert polylog(k, 0.5) == li_half_rounded(k) == float(digits), k


def test_cvz_integer_weights_are_the_exact_scheme():
    # d_n = ((3 + sqrt 8)^n + (3 - sqrt 8)^n) / 2 and the b_k and c_k of
    # Cohen, Rodriguez Villegas and Zagier's Algorithm 1 are integers at n = 36
    weights, d = closedform._cvz_integer_weights()
    n = len(weights)
    # (3 + sqrt 8)^n = d + e sqrt 8 with d^2 - 8 e^2 = 1
    assert n == 36 and math.isclose(d, (3 + math.sqrt(8)) ** n / 2, rel_tol=1e-12)
    assert 8 * math.isqrt((d * d - 1) // 8) ** 2 == d * d - 1
    b, c, exact = Fraction(-1), Fraction(-d), []
    for k in range(n):
        c = b - c
        exact.append(c)
        b = b * (k + n) * (k - n) / (Fraction(2 * k + 1, 2) * (k + 1))
        assert b.denominator == 1
    assert list(weights) == exact


def test_alternating_factorial_terms_raise():
    from polylog.errors import ConvergenceError

    # factorial growth outruns the acceleration entirely: successive depths
    # can never agree, so the default budget runs out before the CVZ
    # divisor overflows a double
    with pytest.raises(ConvergenceError):
        sum_alternating(lambda k: (-1) ** k * math.factorial(min(k, 170)), 1e-12)


def test_sum_tail_evaluates_each_integer_once():
    seen, asked = {}, []

    def term(k):
        seen[k] = seen.get(k, 0) + 1
        return k ** -2.0

    def head(K):
        asked.append(K)
        return map(term, range(1, K))

    got = sum_tail(head, _power_tail(2))
    # one head call, at the one cutoff, 64, whose terms are read once
    assert asked == [TAIL_CUTOFF] == [64]
    assert set(seen.values()) == {1} and all(isinstance(k, int) for k in seen)
    # the terms below the cutoff; the expansion gives the rest
    assert sorted(seen) == list(range(1, 64))
    # the tail from the expansion leaves the sum within an ulp or so
    assert abs(got - math.pi ** 2 / 6) <= 4e-16


def _cvz_reference(a):
    # the loop that rebuilt the Chebyshev weights on every call, kept as the
    # reference the per-depth weights must reproduce bit for bit
    n = len(a)
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * a[k]
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d


def test_cvz_matches_reference_loop_bit_for_bit():
    rng = random.Random(20100)
    for n in range(1, 81):
        smooth = [(k + 1.0) ** -rng.uniform(1.0, 4.0) for k in range(n)]
        noisy = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
        for a in (smooth, noisy):
            assert _cvz(a) == _cvz_reference(a), n


def test_sum_alternating_evaluates_each_index_once():
    seen = {}

    def term(k):
        seen[k] = seen.get(k, 0) + 1
        return (-1) ** k * (k + 1.0) ** -1.5

    got = sum_alternating(term, 1e-14)
    assert set(seen.values()) == {1}
    last = max(seen)
    # at least one deepening happened, each adding only the new indices
    assert last > 12 and sorted(seen) == list(range(1, last + 1))
    # the same value as a fresh acceleration of the final depth's terms
    assert got == -_cvz([(-1) ** k * term(k) for k in range(1, last + 1)])


def test_zeta_and_eta_past_the_float_order():
    # every term past k = 1 underflows from FLOAT_ORDER on: an order past the
    # float range is read as one inside it, bit for bit, so a zeta atom of
    # any odd order has a value
    for order in (FLOAT_ORDER, 2001, 10 ** 400 + 1):
        assert (zeta_num(order), eta_num(order)) == (1.0, 1.0), order
    assert cf_num(ClosedForm.atom(zeta_odd_atom(10 ** 400 + 1))) == 1.0
