import math
import random

import pytest
from hypothesis import given, strategies as st

from polylog.closedform import bernoulli_fraction
from polylog.digamma import _TAIL, euler_gamma, psi
from polylog.errors import DomainError

# gamma by brute force: H_n - ln(n) - 1/(2n) + 1/(12n^2) at large n
_N = 10 ** 6
_GAMMA_BRUTE = (math.fsum(1.0 / k for k in range(1, _N + 1))
                - math.log(_N) - 0.5 / _N + 1.0 / (12.0 * _N ** 2))


def test_psi_one():
    assert abs(psi(1.0) + _GAMMA_BRUTE) < 1e-13


def test_psi_half():
    assert abs(psi(0.5) - (-_GAMMA_BRUTE - 2 * math.log(2))) < 1e-13


def test_psi_two():
    assert abs(psi(2.0) - (1 - _GAMMA_BRUTE)) < 1e-13


def test_euler_gamma():
    assert abs(euler_gamma() - _GAMMA_BRUTE) < 1e-13


def test_recurrence_examples():
    for x in (0.5, 1.0, 2.5, 7.0):
        assert abs(psi(x + 1) - psi(x) - 1.0 / x) <= 1e-12


@given(st.floats(min_value=0.01, max_value=50.0))
def test_recurrence_property(x):
    assert abs(psi(x + 1) - psi(x) - 1.0 / x) <= 1e-12 * max(1.0, abs(psi(x)))


@given(st.floats(min_value=0.05, max_value=30.0))
def test_duplication(x):
    lhs = psi(2 * x)
    rhs = 0.5 * psi(x) + 0.5 * psi(x + 0.5) + math.log(2.0)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_large_argument_is_log_like():
    x = 1e12
    assert abs(psi(x) - (math.log(x) - 0.5 / x)) < 1e-13


def test_domain_errors():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            psi(bad)


def _psi_reference(x):
    # the Horner loop as written before it was unrolled
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_TAIL):
        tail = (tail + c) * y
    return acc + math.log(x) - 0.5 / x - tail


def test_tail_literals_are_the_bernoulli_quotients():
    # digamma keeps B_2j/2j as literals (deriving them at import is slower);
    # mpl2's outer tail reads them from closedform's exact Bernoulli numbers
    assert _TAIL == tuple(float(bernoulli_fraction(2 * j) / (2 * j)) for j in range(1, 9))


def test_psi_matches_reference_loop_bit_for_bit():
    rng = random.Random(20100)
    points = [k / 2.0 for k in range(1, 2001)] + [k + 0.5 for k in range(0, 5000, 7)]
    points += [rng.uniform(1e-3, 1e6) for _ in range(2000)] + [1e-300, 1e300]
    for x in points:
        assert psi(x) == _psi_reference(x), x
