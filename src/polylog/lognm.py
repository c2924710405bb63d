"""Logarithmic integrals i(n,m) and h(n,m) and their Pascal-type difference
equations.

    i(n,m) = integral_0^1 ln^n(x) ln^m(1-x) dx = i(m,n)
    h(n,m) = integral_0^1 ln^n(x) ln^m(1+x) dx

Both solve a three-term partial difference equation in their starred
normalizations i*(n,m) = (-1)^{n+m} i(n,m)/(n! m!) (same for h*), which a
lattice-path (generating function) argument turns into explicit binomial
sums over s_{n,p} resp. sigma~_{n,p}.  lognm_numeric(tag, n, m) is their
quadrature oracle.  The second routes, the boundary value
h(0,m) = (-1)^m m! h*(0,m) and the reflection network relating s_{n,p} to
sigma~_{n,p}, are written in verify, next to the entries that check them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from operator import mul

from .closedform import ClosedForm, LN2, _check_order, _check_weight, monomial
from .errors import DomainError
from .quadrature import ORACLE_TOL, Grid, integrate01, log_power
from .seriesring import kolbig_snp
from .sigma import sigma_tilde

# the i/h tables end at this weight, below the weight ceiling MAX_WEIGHT
TABLE_WEIGHT = 6


# ---------------------------------------------------------------------------
# i(n, m)
# ---------------------------------------------------------------------------


@cache
def i_star(n: int, m: int) -> ClosedForm:
    """i*(n,m): lattice-path solution with unit boundary on both axes."""
    if n == 0 or m == 0:
        return ClosedForm.one()
    return ClosedForm.combination(
        [(math.comb(n + m, n), ClosedForm.one(), None)]
        + [(-math.comb(n - a + m - b, n - a), kolbig_snp(a, b), None)
           for a in range(1, n + 1) for b in range(1, m + 1)])


def i_closed(n: int, m: int) -> ClosedForm:
    """i(n,m) exactly, for n + m <= 6."""
    n, m = _check_order(n, 1), _check_order(m, 1)
    _check_weight(n + m, TABLE_WEIGHT)
    return (-1) ** (n + m) * math.factorial(n) * math.factorial(m) * i_star(n, m)


def i_pde_residual(n: int, m: int) -> ClosedForm:
    """i*(n,m) - i*(n,m-1) - i*(n-1,m) + s_{n,m}; zero when all is well."""
    n, m = _check_order(n, 1), _check_order(m, 1)
    _check_weight(n + m, TABLE_WEIGHT)
    return ClosedForm.combination([(1, i_star(n, m), None), (-1, i_star(n, m - 1), None),
                                   (-1, i_star(n - 1, m), None), (1, kolbig_snp(n, m), None)])


# ---------------------------------------------------------------------------
# h(n, m)
# ---------------------------------------------------------------------------


def truncated_exp_ln2(m: int) -> ClosedForm:
    """e_m(-ln 2) = sum_{k=0}^{m} (-ln 2)^k / k!, exact in powers of ln 2."""
    m = _check_order(m, 0)
    return ClosedForm({monomial((LN2, k)): Fraction((-1) ** k, math.factorial(k))
                       for k in range(m + 1)})


@cache
def h_star(n: int, m: int) -> ClosedForm:
    """h*(n,m): lattice-path solution with boundary h*(0,m) = -1 + 2 e_m(-ln 2)."""
    if m == 0:
        return ClosedForm.one()
    if n == 0:
        return 2 * truncated_exp_ln2(m) - 1
    f = math.factorial(m)  # the one denominator; m!/mu! = perm(m, m - mu)
    return ClosedForm.combination(
        [(f * math.comb(n + m, n), ClosedForm.one(), None)]
        + [(2 * (-1) ** mu * math.comb(n + m - mu, n) * math.perm(m, m - mu),
            ClosedForm.atom(LN2, mu), None) for mu in range(1, m + 1)]
        + [(f * math.comb(n - nu + m - mu, n - nu), sigma_tilde(nu, mu), None)
           for nu in range(1, n + 1) for mu in range(1, m + 1)], f)


def h_closed(n: int, m: int) -> ClosedForm:
    """h(n,m) exactly for n + m <= 6 (weight-6 values carry sigma~ atoms)."""
    n, m = _check_order(n, 1), _check_order(m, 1)
    _check_weight(n + m, TABLE_WEIGHT)
    return (-1) ** (n + m) * math.factorial(n) * math.factorial(m) * h_star(n, m)


def h_pde_residual(n: int, m: int) -> ClosedForm:
    """h*(n,m) - h*(n,m-1) - h*(n-1,m) - sigma~_{n,m}; zero when all is well."""
    n, m = _check_order(n, 1), _check_order(m, 1)
    _check_weight(n + m, TABLE_WEIGHT)
    return ClosedForm.combination([(1, h_star(n, m), None), (-1, h_star(n, m - 1), None),
                                   (-1, h_star(n - 1, m), None), (-1, sigma_tilde(n, m), None)])


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def lognm_numeric(tag: str, n: int, m: int) -> float:
    """i(n,m) (tag "INM") or h(n,m) (tag "HNM") by quadrature at ORACLE_TOL."""
    if tag not in ("INM", "HNM"):
        raise DomainError(f"unknown log-integral tag {tag!r}")
    n, m = _check_order(n, 0), _check_order(m, 0)
    if n + m < 1:
        raise DomainError(f"need n + m >= 1, got n = {n}, m = {m}")
    # ln^n(x) ln^m(1-x) for i(n,m), ln^n(x) ln^m(1+x) for h(n,m)
    arg = "1-x" if tag == "INM" else "1+x"

    def values(grid: Grid):
        return map(mul, log_power("x", n, grid), log_power(arg, m, grid))
    return integrate01(values, ORACLE_TOL).value

