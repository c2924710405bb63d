"""Polylogarithms, Nielsen functions, depth-2 multiple polylogarithms, and
the moments of Li_p(-t).

Evaluation strategy for Li_p(x):
  |x| <= 1/2           direct series (geometric convergence);
  1/2 < x < 1          expansion in mu = ln x, valid for |mu| < 2*pi;
  -1 < x < -1/2        square relation Li_p(x) = 2^{1-p} Li_p(x^2) - Li_p(-x),
                       which lands both evaluations on positive arguments.
Helpers threaded with 1-x allow full accuracy at quadrature nodes hugging
either endpoint.

The depth-2 sums at unit arguments reduce to one accelerated series each.
With x_inner = +-1 the inner partial sum splits into its limit and a smooth
tail; with both arguments -1 the outer index is summed first, so the series
is monotone and its alternating tail V_1(x) = [psi((x+1)/2) - psi(x/2)]/2 is
a digamma difference read through psi_point (an asymptotic series from
x = 32 on), not a CVZ run per term.

Values that do not depend on the caller are computed once per process:
the coefficients zeta(p - k) of the log expansion (_zeta_int, one float per
integer argument, none below -78 since k < 80), the powers k^-p of the
direct series (_inverse_powers, one tuple per order), the alternating tails
V_m(k+1) of the doubly alternating sums (alternating_tail_table, one tuple
per block of indices), and Li_p(+-x) at the quadrature nodes (li_column),
which every product integrand shares.  li_column holds one tuple per
(order, sign, grid); Li_p(-t) at t > 1/2 reads Li_p(t) from the plus
column, so li_pos meets each node once.  The grids are the fixed tanh-sinh
levels 0..11 of the whole interval and of its two halves, so the columns
are bounded by the orders asked for times that node set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from operator import mul, truediv

from .closedform import (ClosedForm, LN2, eta_factor_closed,
                         zeta_nonpositive_rational)
from .digamma import _TAIL, psi_point, psi_table
from .errors import ConvergenceError, DomainError
from .quadrature import ORACLE_TOL, Grid, integrate01, log_power, nodes
from .summation import _cvz, eta_num, sum_alternating, sum_tail, zeta_num

_EPS = 2.2e-16


@cache
def _zeta_int(s: int) -> float:
    if s >= 2:
        return zeta_num(s)
    if s == 1:
        raise DomainError("zeta(1) diverges")
    return float(zeta_nonpositive_rational(s))


@cache
def _inverse_powers(p: int) -> tuple[float, ...]:
    """k^-p for k = 1..399, the divisors of the direct series."""
    return tuple(float(k) ** (-p) for k in range(1, 400))


def _li_series(p: int, x: float) -> float:
    total = 0.0
    powx = 1.0
    for k, inv in enumerate(_inverse_powers(p), 1):
        powx *= x
        t = powx * inv
        total += t
        if abs(t) <= _EPS * abs(total) and k > 4:
            return total
    raise ConvergenceError("polylog series stalled", partial=total)


def _li_log_expansion(p: int, mu: float) -> float:
    # Li_p(e^mu) for mu < 0, |mu| < 2*pi; at p = 1 only the log term and the
    # nonpositive zeta tail survive.
    total = (mu ** (p - 1) / math.factorial(p - 1)) * (
        math.fsum(1.0 / i for i in range(1, p)) - math.log(-mu))
    powmu = 1.0
    small = 0
    for k in range(0, 80):
        if k:
            powmu *= mu / k
        if k != p - 1:
            t = _zeta_int(p - k) * powmu
            total += t
            if abs(t) <= _EPS * abs(total):
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
    return total


def li_pos(p: int, x: float, omx: float) -> float:
    """Li_p(x) for x in (0, 1), with 1-x supplied exactly."""
    if x <= 0.5:
        return _li_series(p, x)
    return _li_log_expansion(p, math.log1p(-omx))


def li_neg(p: int, t: float, omt: float, li_t: float | None = None) -> float:
    """Li_p(-t) for t in (0, 1], with 1-t supplied exactly.

    li_t, when known, is Li_p(t), which the square relation needs for t > 1/2.
    """
    if t == 1.0:
        return -eta_num(p)
    if t <= 0.5:
        return _li_series(p, -t)
    if li_t is None:
        li_t = li_pos(p, t, omt)
    tsq = t * t
    omtsq = omt * (1.0 + t)
    return 2.0 ** (1 - p) * li_pos(p, tsq, omtsq) - li_t


@cache
def li_column(p: int, sign: int, grid: Grid) -> tuple[float, ...]:
    """Li_p(sign * x) at every node x of a quadrature grid.

    The minus column reads Li_p(t) from the plus column; li_pos/li_neg
    remain the one evaluation route.
    """
    xs, omxs, _ = nodes(grid)
    if sign > 0:
        return tuple(map(li_pos, repeat(p), xs, omxs))
    return tuple(map(li_neg, repeat(p), xs, omxs, li_column(p, 1, grid)))


def polylog(p: int, x: float) -> float:
    """Li_p(x) for integer p >= 1 and -1 <= x <= 1 (x < 1 when p = 1)."""
    if p < 1:
        raise DomainError("polylog order must be >= 1")
    if not -1.0 <= x <= 1.0:
        raise DomainError("polylog argument must lie in [-1, 1]")
    if p == 1:
        if x == 1.0:
            raise DomainError("Li_1(1) diverges")
        return -math.log1p(-x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return zeta_num(p)
    if x < 0.0:
        return li_neg(p, -x, 1.0 + x)
    if x <= 0.5:
        return _li_series(p, x)
    return li_pos(p, x, 1.0 - x)


# ---------------------------------------------------------------------------
# Nielsen generalized polylogarithms, numerically
# ---------------------------------------------------------------------------


def nielsen_num(n: int, p: int, z: float) -> float:
    """S_{n,p}(z) by quadrature of its defining integral at ORACLE_TOL, |z| <= 1.

    S_{n,p}(z) = (-1)^{n+p-1} / ((n-1)! p!) *
                 integral_0^1 ln^{n-1}(x) ln^p(1 - z x) / x dx.
    """
    if n < 1 or p < 1:
        raise DomainError("Nielsen indices must be >= 1")
    if not -1.0 <= z <= 1.0:
        raise DomainError("Nielsen argument must lie in [-1, 1]")
    if z == 0.0:
        return 0.0
    pref = (-1.0) ** (n + p - 1) / (math.factorial(n - 1) * math.factorial(p))

    def values(grid: Grid):
        # ln^{n-1}(x) ln^p(1 - z x) / x; at z = -1, -z*x is x itself
        xs = nodes(grid)[0]
        if z == 1.0:
            lz = log_power("1-x", p, grid)
        elif z == -1.0:
            lz = log_power("1+x", p, grid)
        else:
            lz = map(pow, map(math.log1p, map(mul, repeat(-z), xs)), repeat(p))
        return map(truediv, map(mul, log_power("x", n - 1, grid), lz), xs)

    return pref * integrate01(values, ORACLE_TOL).value


# ---------------------------------------------------------------------------
# depth-2 multiple polylogarithms
# ---------------------------------------------------------------------------


def _hurwitz_tail(m: int, x: float) -> float:
    """sum_{i>=0} (x + i)^-m for m >= 2, x >= 1."""
    M = 64
    s = math.fsum((x + i) ** (-m) for i in range(M))
    y = x + M
    s += y ** (1 - m) / (m - 1) + 0.5 * y ** (-m) + m * y ** (-m - 1) / 12.0
    s -= m * (m + 1) * (m + 2) * y ** (-m - 3) / 720.0
    return s


# (4^k - 1) B_{2k} / (2k), k = 1..8: the asymptotic series of V_1
_V1, _V2, _V3, _V4, _V5, _V6, _V7, _V8 = (
    (4 ** k - 1) * c for k, c in enumerate(_TAIL, 1))
# from here on the series is below 4e-20 relative, and the digamma
# difference would lose digits to cancellation
_V1_ASYMPTOTIC = 32.0


def _alternating_tail(m: int, x: float) -> float:
    """V_m(x) = sum_{i>=0} (-1)^i (x + i)^-m for m >= 1, x >= 1.

    V_1(x) = [psi((x+1)/2) - psi(x/2)] / 2, read through psi_point, and for
    x >= 32 its asymptotic series 1/(2x) + sum_k (4^k - 1) B_{2k}/(2k) x^-2k;
    higher orders by a 40-term CVZ.
    """
    if m == 1:
        if x >= _V1_ASYMPTOTIC:
            y = 1.0 / (x * x)
            series = (((((((_V8 * y + _V7) * y + _V6) * y + _V5) * y + _V4) * y + _V3) * y
                       + _V2) * y + _V1) * y
            return 0.5 / x + series
        return 0.5 * (psi_point((x + 1) / 2) - psi_point(x / 2))
    return _cvz([(x + i) ** (-m) for i in range(40)])


@cache
def alternating_tail_table(m: int, start: int, stop: int) -> tuple[float, ...]:
    """V_m(k + 1) for k in range(start, stop): the weights of the doubly
    alternating series, one block per cutoff doubling."""
    return tuple(map(_alternating_tail, repeat(m), range(start + 1, stop + 1)))


def mpl2(m_outer: int, m_inner: int, x_outer: float, x_inner: float) -> float:
    """Depth-2 multiple polylogarithm
    sum_{k2 > k1 >= 1} x_outer^k2 x_inner^k1 / (k2^m_outer k1^m_inner).

    The heavier weight sits on the larger index k2 (the only reading under
    which the unit-argument cases converge); the sum is defined when
    m_outer >= 2, or when m_outer = 1 with x_outer = -1.

    For |x_inner| = 1 the inner partial sum is split into its limit plus a
    smooth tail, so the outer sum separates into a closed piece and a
    series that the tail/alternating accelerators handle directly.  When
    both arguments are -1 the outer index is summed first instead:
    mpl2(m_o, m_i, -1, -1) = -sum_{k>=1} k^-m_i V_{m_o}(k+1), with
    V_m(x) = sum_{i>=0} (-1)^i (x+i)^-m, one monotone series for sum_tail
    (V_1 is a digamma difference, see _alternating_tail).  The outer index
    is also summed first when |x_inner| < 1 = |x_outer| (_mpl2_outer_first).
    """
    for x in (x_outer, x_inner):
        if not -1.0 <= x <= 1.0:
            raise DomainError("multiple polylog arguments must lie in [-1, 1]")
    if m_outer < 1 or m_inner < 1:
        raise DomainError("multiple polylog weights must be >= 1")
    if x_outer == 0.0:
        return 0.0
    if m_outer == 1 and x_outer != -1.0:
        raise DomainError("outer weight 1 requires x_outer = -1 for convergence")

    # each correction sum gets an eighth of the oracle precision
    part_tol = ORACLE_TOL / 8.0
    if abs(x_outer) < 1.0:
        return _mpl2_direct(m_outer, m_inner, x_outer, x_inner)
    if abs(x_inner) < 1.0:
        return _mpl2_outer_first(m_outer, m_inner, x_outer, x_inner)

    if x_inner == 1.0 and m_inner == 1:
        # inner partial sum is the harmonic number, real-evaluable as is
        psi_one = psi_point(1.0)
        if x_outer == 1.0:
            return sum_tail(lambda k: (psi_point(k) - psi_one) * k ** (-m_outer),
                            part_tol, m_outer,
                            direct=(partial(psi_table, 0.0, 1.0), 1, 0, -m_outer))
        return sum_alternating(
            lambda k: (-1) ** k * (psi_point(float(k)) - psi_one) * float(k) ** (-m_outer),
            part_tol)

    if x_inner == 1.0:
        # partial sum = zeta(m_inner) - U(k), U smooth and positive
        limit = zeta_num(m_inner)
        outer_full = zeta_num(m_outer) if x_outer == 1.0 else -eta_num(m_outer)
        if x_outer == 1.0:
            corr = sum_tail(lambda k: _hurwitz_tail(m_inner, k) * k ** (-m_outer),
                            part_tol, m_outer + m_inner - 1)
        else:
            corr = sum_alternating(
                lambda k: (-1) ** k * _hurwitz_tail(m_inner, float(k)) * float(k) ** (-m_outer),
                part_tol)
        return limit * outer_full - corr

    # x_inner == -1
    if x_outer == -1.0:
        # outer index first: sum_{k2>k} (-1)^k2 k2^-m_outer = (-1)^{k+1} V(k+1),
        # whose sign cancels the inner (-1)^k, leaving a monotone series
        return -sum_tail(lambda k: k ** (-m_inner) * _alternating_tail(m_outer, k + 1),
                         part_tol, m_outer + m_inner,
                         direct=(partial(alternating_tail_table, m_outer), 1, 0, -m_inner))
    # x_outer == 1: partial sum = A - (-1)^k V(k), V smooth and positive
    corr = sum_alternating(
        lambda k: (-1) ** k * _alternating_tail(m_inner, float(k)) * float(k) ** (-m_outer),
        part_tol)
    return -eta_num(m_inner) * zeta_num(m_outer) - corr


def _mpl2_direct(m_outer: int, m_inner: int, x_outer: float, x_inner: float) -> float:
    total = 0.0
    inner = 0.0
    powi = 1.0
    powo = x_outer
    for k2 in range(2, 40000):
        powi *= x_inner
        inner += powi / float(k2 - 1) ** m_inner
        powo *= x_outer
        t = powo * inner / float(k2) ** m_outer
        total += t
        if abs(t) < ORACLE_TOL * 1e-3 and k2 > 30:
            return total
    raise ConvergenceError("multiple polylog direct sum stalled", partial=total)


def _mpl2_outer_first(m_outer: int, m_inner: int, x_outer: float, x_inner: float) -> float:
    """sum_{k>=1} x_inner^k k^-m_inner T(k+1) for |x_inner| < 1 = |x_outer|,
    with T(k+1) = sum_{k2>k} x_outer^k2 k2^-m_outer: a Hurwitz tail at
    x_outer = 1, (-1)^{k+1} V(k+1) at x_outer = -1.  |T| falls with k, so
    once a term is t the rest is at most |t| |x_inner| / (1 - |x_inner|)."""
    rest = abs(x_inner) / (1.0 - abs(x_inner))
    terms = []
    powi = 1.0
    for k in range(1, 40000):
        powi *= x_inner
        tail = (_hurwitz_tail(m_outer, k + 1.0) if x_outer == 1.0
                else (-1) ** (k + 1) * _alternating_tail(m_outer, k + 1.0))
        terms.append(powi * tail / float(k) ** m_inner)
        if abs(terms[-1]) * rest < ORACLE_TOL * 1e-3 and k > 30:
            return math.fsum(terms)
    raise ConvergenceError("multiple polylog outer-first sum stalled", partial=math.fsum(terms))


# ---------------------------------------------------------------------------
# moments of Li_p(-t)
# ---------------------------------------------------------------------------


def _harm(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def li_moment(p: int, k: int) -> ClosedForm:
    """integral_0^1 Li_p(-t) t^{k-1} dt, exactly.

    Repeated integration by parts gives
        (-1)^p / k^p [psi(k+1) - psi(k/2+1)]
        + sum_{mu=2}^{p} (-1)^{p-mu} / k^{p+1-mu} (2^{1-mu}-1) zeta(mu),
    with the mu-sum empty for p = 1.  The digamma difference collapses to
    harmonic numbers (plus 2 ln 2 when k is odd), so the result is exact.
    """
    if p < 1 or k < 1:
        raise DomainError("li_moment requires p >= 1 and k >= 1")
    if k % 2 == 0:
        diff = ClosedForm.rational(_harm(k) - _harm(k // 2))
    else:
        odd_sum = sum((Fraction(2, 2 * i - 1) for i in range(1, (k + 1) // 2 + 1)),
                      Fraction(0))
        diff = ClosedForm.rational(_harm(k) - odd_sum) + ClosedForm.atom(LN2, 1, 2)
    out = Fraction((-1) ** p, k ** p) * diff
    for mu in range(2, p + 1):
        out = out + Fraction((-1) ** (p - mu), k ** (p + 1 - mu)) * eta_factor_closed(mu)
    return out
