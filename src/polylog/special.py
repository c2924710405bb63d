"""Polylogarithms, and Nielsen functions and depth-2 multiple
polylogarithms at unit arguments.

Evaluation strategy for Li_p(x):
  |x| <= 1/2           direct series (geometric convergence);
  1/2 < x < 1          expansion in mu = ln x, valid for |mu| < 2*pi; past
                       p = 171, where (p-1)! overflows a float, the direct
                       series, whose terms past x are below x 2^-p;
  -1 < x < -1/2        square relation Li_p(x) = 2^{1-p} Li_p(x^2) - Li_p(-x),
                       which lands both evaluations on positive arguments.
Helpers threaded with 1-x allow full accuracy at quadrature nodes hugging
either endpoint.

The Nielsen functions S_{n,p}(z) are integrated at z = +-1 only, the s_{n,p}
and sigma~_{n,p} of the closed forms, over the shared log columns.

The depth-2 sums are taken at x_outer, x_inner = +-1 only, the arguments of
the low-order I(p,q) identities, as one series, outer index first:
mpl2 = x_o sum_k (x_i x_o)^k k^-m_i T(k+1), the outer tail
T(y) = sum_{i>=0} x_o^i (y+i)^-m_o read from its Euler-Maclaurin (x_o = 1)
or Boole (x_o = -1) asymptotic series at the first anchor (at least the
sum_tail cutoff), run down to the integers below it; past it, T is the series
at the integer y itself (outer_tail takes integer y only).  With x_i x_o = 1
the series is a sum_tail: its head, the terms below the cutoff, reads one
slice of T's block, and its tail is taken in closed form from the expansion
of its term (_mpl2_expansion).

Values that do not depend on the caller are computed once per process: the
coefficients zeta(p - k) of the log expansion (_zeta_int, one float per
integer argument, none below -78 since k < 80), the powers k^-p of the
direct series (_inverse_powers, one tuple per order), the outer tails'
series coefficients (_tail_series, one tuple per order and sign, from the
first nine B_2j/(2j) of digamma.bernoulli_quotients) and their values at
the integers (_tail_block, one tuple per order and sign, T at 1 up to the
first anchor), and Li_p(+-x) at the quadrature nodes (li_column), which
every product integrand shares.  li_column holds one tuple per (order, sign,
grid); Li_p(-t) at t > 1/2 reads Li_p(t) from the plus column, so li_pos
meets each node once.  The grids are the fixed tanh-sinh levels 0..11 of the
whole interval, so the columns are bounded by the orders asked for times
that node set.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import count, repeat
from operator import mul, truediv

from .closedform import _check_order, zeta_nonpositive_rational
from .digamma import bernoulli_quotients
from .errors import CapacityError, ConvergenceError, DomainError
from .quadrature import ORACLE_TOL, Grid, integrate01, log_power, nodes
from .summation import TAIL_CUTOFF, Expansion, eta_num, sum_alternating, sum_tail, zeta_num

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
    if x <= 0.5 or p > 171:
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
    p = _check_order(p, 1)
    if not -1.0 <= x <= 1.0:
        raise DomainError("polylog argument must lie in [-1, 1]")
    if p == 1:
        if x == 1.0:
            raise DomainError("Li_1(1) diverges")
        return -math.log1p(-x)
    if x == 1.0:
        return zeta_num(p)
    if x < 0.0:
        return li_neg(p, -x, 1.0 + x)
    return li_pos(p, x, 1.0 - x)


# ---------------------------------------------------------------------------
# Nielsen generalized polylogarithms, numerically
# ---------------------------------------------------------------------------


def nielsen_num(n: int, p: int, z: float) -> float:
    """S_{n,p}(z) at z = +-1 by quadrature of its defining integral at
    ORACLE_TOL: s_{n,p} = S_{n,p}(1) and sigma~_{n,p} = S_{n,p}(-1).

    S_{n,p}(z) = (-1)^{n+p-1} / ((n-1)! p!) *
                 integral_0^1 ln^{n-1}(x) ln^p(1 - z x) / x dx.

    The integral comes first: a log column past the float range fails at
    level 0, and a zero integral returns before the factorials are built.
    """
    n, p = _check_order(n, 1), _check_order(p, 1)
    if z not in (1.0, -1.0):
        raise DomainError("Nielsen argument must be 1 or -1")
    column = "1-x" if z == 1.0 else "1+x"  # 1 - z x; at z = -1, -z x is x itself

    def values(grid: Grid):
        # ln^{n-1}(x) ln^p(1 - z x) / x
        return map(truediv, map(mul, log_power("x", n - 1, grid), log_power(column, p, grid)),
                   nodes(grid)[0])

    value = integrate01(values, ORACLE_TOL).value
    if not value:
        return value if (n + p) % 2 else -value
    # int/int division is correctly rounded and never converts the factorials
    # to float, which overflows past n + p of about 171
    return (-1) ** (n + p - 1) / (math.factorial(n - 1) * math.factorial(p)) * value


# ---------------------------------------------------------------------------
# depth-2 multiple polylogarithms
# ---------------------------------------------------------------------------


@cache
def _tail_series(m: int, x_outer: float) -> tuple[int, tuple[float, ...]]:
    """First anchor and coefficients c_1..c_8 of the outer tail's asymptotic
    series T(y) ~ y^-m [a y + 1/2 + sum_j c_j y^(1-2j)]: Euler-Maclaurin at
    x_outer = 1 (a = 1/(m-1), c_j = B_2j/(2j)! (m)_(2j-1)), Boole at -1 (a = 0,
    c_j times 4^j - 1).  The first anchor is the least of TAIL_CUTOFF,
    TAIL_CUTOFF + 16, ... where the first dropped term c_9 y^-17 is below
    1e-17 of the leading term, so _tail_block holds every T a sum_tail head
    reads."""
    c = [(1 if x_outer == 1.0 else 4 ** j - 1) * math.comb(m + 2 * j - 2, 2 * j - 1) * b
         for j, b in enumerate(bernoulli_quotients()[:9], 1)]
    first = next(y for y in count(TAIL_CUTOFF, 16)
                 if abs(c[8]) * y ** -17.0 <= 1e-17 * (y / (m - 1) if x_outer == 1.0 else 0.5))
    return first, tuple(c[:8])


def _tail_correction(coefficients: tuple[float, ...], y: float) -> float:
    """sum_j c_j y^(1-2j), the part of y^m T(y) past a y + 1/2."""
    c1, c2, c3, c4, c5, c6, c7, c8 = coefficients
    z = 1.0 / (y * y)
    return (((((((c8 * z + c7) * z + c6) * z + c5) * z + c4) * z + c3) * z + c2) * z + c1) / y


def _tail_run(m: int, x_outer: float, anchor: int, low: int) -> tuple[float, ...]:
    """T at low..anchor: the series at the anchor (a y + 1/2 exact) run down
    by T(y) = y^-m + x_outer T(y+1) in 2^-scale fixed point, so each value is
    rounded once."""
    coefficients = _tail_series(m, x_outer)[1]
    scale = 117 + m * anchor.bit_length()  # a unit is 2^-64 ulp(anchor^-m) or less
    one = 1 << scale
    num, den = (2 * anchor + m - 1, 2 * (m - 1)) if x_outer == 1.0 else (1, 2)
    cn, cd = _tail_correction(coefficients, anchor).as_integer_ratio()
    acc = ((num * cd + cn * den) << scale) // (den * cd * anchor ** m)
    sign, accs = int(x_outer), [acc]
    for y in range(anchor - 1, low - 1, -1):
        accs.append(acc := one // y ** m + sign * acc)
    return tuple(map(truediv, reversed(accs), repeat(one)))


@cache
def _tail_block(m: int, x_outer: float) -> tuple[float, ...]:
    """T at 1..the first anchor, one tuple per order and sign."""
    return _tail_run(m, x_outer, _tail_series(m, x_outer)[0], 1)


def _check_outer(m: int, x_outer: float) -> int:
    """The outer index's rules, which mpl2 and outer_tail share: x_outer is 1
    or -1 and m an order >= 1, with m >= 2 at x_outer = 1 (else the sum
    diverges), else DomainError.  Past m = 1074 every term is below the
    smallest subnormal, a CapacityError.  Returns m as an int."""
    if x_outer not in (1.0, -1.0):
        raise DomainError("multiple polylog arguments must be 1 or -1")
    m = _check_order(m, 1)
    if m == 1 and x_outer != -1.0:
        raise DomainError("outer weight 1 requires x_outer = -1 for convergence")
    if m > 1074:
        raise CapacityError(f"outer order {m} is beyond the float oracle: the largest "
                            f"term, 2^-{m}, is below the smallest subnormal 2^-1074")
    return m


def outer_tail(m: int, x_outer: float, y: int) -> float:
    """T(y) = sum_{i>=0} x_outer^i (y + i)^-m for x_outer = +-1 at an integer
    y >= 1: read from its block, or past the first anchor the series at y.
    Its arguments follow mpl2's outer rules (_check_outer)."""
    m, y = _check_outer(m, x_outer), _check_order(y, 1)
    block = _tail_block(m, x_outer)
    return block[y - 1] if y <= len(block) else _tail_run(m, x_outer, y, y)[0]


def _mpl2_expansion(m_outer: int, m_inner: int, x_outer: float) -> Expansion:
    """F(y) = T(y) (y - 1)^-m_inner, the term of mpl2's series at
    x_inner = x_outer and y = k + 1, as sum_N f_N y^(1 - m_outer - m_inner - N):
    the series of T, y^-m [A y + 1/2 + sum_j c_j y^(1-2j)] (A = 1/(m - 1) at
    x_outer = 1, A = 0 at -1), times the binomial series of
    (1 - 1/y)^-m_inner, both to the order of c_8."""
    # t[n] is the coefficient of y^(1 - m - n) in T, n = 0..16
    t = [1.0 / (m_outer - 1) if x_outer == 1.0 else 0.0, 0.5] + [0.0] * 15
    t[2::2] = _tail_series(m_outer, x_outer)[1]
    lead = m_outer + m_inner - 1
    out = []
    for n in range(len(t)):
        f = math.fsum(t[i] * math.comb(m_inner + n - i - 1, n - i) for i in range(n + 1))
        if f:
            out.append((lead + n, f, 0.0))
    return tuple(out)


def mpl2(m_outer: int, m_inner: int, x_outer: float, x_inner: float) -> float:
    """Depth-2 multiple polylogarithm at unit arguments x_outer, x_inner = +-1,
    sum_{k2 > k1 >= 1} x_outer^k2 x_inner^k1 / (k2^m_outer k1^m_inner).

    The heavier weight sits on the larger index k2 (the only reading under
    which the unit-argument cases converge); the sum is defined when
    m_outer >= 2, or when m_outer = 1 with x_outer = -1.  It sums the outer
    index first,
        mpl2 = x_outer sum_{k>=1} (x_inner x_outer)^k k^-m_inner T(k+1)
    with T = outer_tail(m_outer, x_outer, .): by sum_tail when
    x_inner x_outer = 1, its head a slice of T's block and its tail from
    _mpl2_expansion, else by sum_alternating.  Past m_outer = 1074 every
    term is below the smallest subnormal, and it raises CapacityError
    (_check_outer)."""
    if x_inner not in (1.0, -1.0):
        raise DomainError("multiple polylog arguments must be 1 or -1")
    m_outer, m_inner = _check_outer(m_outer, x_outer), _check_order(m_inner, 1)
    if x_inner == x_outer:
        def head(stop: int):
            return (t * k ** -m_inner
                    for k, t in enumerate(_tail_block(m_outer, x_outer)[1:stop], 1))
        return x_outer * sum_tail(head, (1, 1, _mpl2_expansion(m_outer, m_inner, x_outer)))
    tol = ORACLE_TOL / 8.0  # keeps the sum's own error out of the entries it meets
    return x_outer * sum_alternating(
        lambda k: (-1) ** k * float(k) ** -m_inner * outer_tail(m_outer, x_outer, k + 1), tol)
