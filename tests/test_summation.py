import math
import random

import pytest

from polylog.digamma import euler_gamma, psi
from polylog.errors import ConvergenceError, DomainError
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
