"""Logarithmic integrals i(n,m) and h(n,m), their Pascal-type difference
equations, and the linear network relating s_{n,p} to sigma~_{n,p}.

    i(n,m) = integral_0^1 ln^n(x) ln^m(1-x) dx = i(m,n)
    h(n,m) = integral_0^1 ln^n(x) ln^m(1+x) dx

Both solve a three-term partial difference equation in their starred
normalizations i*(n,m) = (-1)^{n+m} i(n,m)/(n! m!) (same for h*), which a
lattice-path (generating function) argument turns into explicit binomial
sums over s_{n,p} resp. sigma~_{n,p}.  lognm_numeric(tag, n, m) is their
quadrature oracle, memoized per (tag, n, m).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from operator import mul

from .closedform import ClosedForm, LN2, _check_weight, monomial
from .errors import DomainError
from .quadrature import ORACLE_TOL, Grid, integrate01, log_power
from .seriesring import kolbig_snp
from .sigma import sigma_tilde

# the i/h tables end at this weight, below the weight ceiling MAX_WEIGHT
TABLE_WEIGHT = 6


def _check_table_weight(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise DomainError("closed forms need n, m >= 1")
    _check_weight(n + m, TABLE_WEIGHT)


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
    _check_table_weight(n, m)
    return (-1) ** (n + m) * math.factorial(n) * math.factorial(m) * i_star(n, m)


def i_pde_residual(n: int, m: int) -> ClosedForm:
    """i*(n,m) - i*(n,m-1) - i*(n-1,m) + s_{n,m}; zero when all is well."""
    _check_table_weight(n, m)
    return ClosedForm.combination([(1, i_star(n, m), None), (-1, i_star(n, m - 1), None),
                                   (-1, i_star(n - 1, m), None), (1, kolbig_snp(n, m), None)])


# ---------------------------------------------------------------------------
# h(n, m)
# ---------------------------------------------------------------------------


def truncated_exp_ln2(m: int) -> ClosedForm:
    """e_m(-ln 2) = sum_{k=0}^{m} (-ln 2)^k / k!, exact in powers of ln 2."""
    if m < 0:
        raise DomainError("truncation order must be >= 0")
    return ClosedForm({monomial((LN2, k)): Fraction((-1) ** k, math.factorial(k))
                       for k in range(m + 1)})


@cache
def h_star(n: int, m: int) -> ClosedForm:
    """h*(n,m): lattice-path solution with boundary h*(0,m) = -1 + 2 e_m(-ln 2)."""
    if m == 0:
        return ClosedForm.one()
    if n == 0:
        return 2 * truncated_exp_ln2(m) - 1
    return ClosedForm.combination(
        [(math.comb(n + m, n), ClosedForm.one(), None)]
        + [(Fraction(2 * (-1) ** mu * math.comb(n + m - mu, n), math.factorial(mu)),
            ClosedForm.atom(LN2, mu), None) for mu in range(1, m + 1)]
        + [(math.comb(n - nu + m - mu, n - nu), sigma_tilde(nu, mu), None)
           for nu in range(1, n + 1) for mu in range(1, m + 1)])


def h_closed(n: int, m: int) -> ClosedForm:
    """h(n,m) exactly for n + m <= 6 (weight-6 values carry sigma~ atoms)."""
    _check_table_weight(n, m)
    return (-1) ** (n + m) * math.factorial(n) * math.factorial(m) * h_star(n, m)


def h_pde_residual(n: int, m: int) -> ClosedForm:
    """h*(n,m) - h*(n,m-1) - h*(n-1,m) - sigma~_{n,m}; zero when all is well."""
    _check_table_weight(n, m)
    return ClosedForm.combination([(1, h_star(n, m), None), (-1, h_star(n, m - 1), None),
                                   (-1, h_star(n - 1, m), None), (-1, sigma_tilde(n, m), None)])


def h_boundary_closed(m: int) -> ClosedForm:
    """h(0,m) = integral_0^1 ln^m(1+x) dx = (-1)^m m! h*(0,m).

    The lattice boundary condition is stated for h*(0,m); undoing the star
    normalization restores the (-1)^m m! factor that direct evaluation of
    the integral shows (already at m = 1, where the integral is 2 ln 2 - 1).
    """
    if m < 1:
        raise DomainError("m >= 1 required")
    return (-1) ** m * math.factorial(m) * h_star(0, m)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


@cache
def lognm_numeric(tag: str, n: int, m: int) -> float:
    """i(n,m) (tag "INM") or h(n,m) (tag "HNM") by quadrature at ORACLE_TOL,
    memoized per (tag, n, m)."""
    if tag not in ("INM", "HNM"):
        raise DomainError(f"unknown log-integral tag {tag!r}")
    if n < 0 or m < 0 or n + m < 1:
        raise DomainError("need n, m >= 0 with n + m >= 1")
    # ln^n(x) ln^m(1-x) for i(n,m), ln^n(x) ln^m(1+x) for h(n,m)
    arg = "1-x" if tag == "INM" else "1+x"

    def values(grid: Grid):
        return map(mul, log_power("x", n, grid), log_power(arg, m, grid))
    return integrate01(values, ORACLE_TOL).value


# ---------------------------------------------------------------------------
# the s <-> sigma~ linear network
# ---------------------------------------------------------------------------


def _relation_row(n: int, m: int) -> list[Fraction]:
    """Coefficients of sigma~_{k, n+m-k}, k = 1..n+m-1, in the reflection
    relation for s_{n,m}:

    (-1)^{n+m} s_{n,m} = sum_{k=1}^{n} (-1)^k C(n+m-1-k, m-1) sigma~_{k,n+m-k}
                       + sum_{k=1}^{m} (-1)^k C(n+m-1-k, n-1) sigma~_{k,n+m-k}.
    """
    if n < 1 or m < 1:
        raise DomainError("indices must be >= 1")
    w = n + m
    row = [Fraction(0)] * (w - 1)
    for k in range(1, n + 1):
        row[k - 1] += Fraction((-1) ** k * math.comb(w - 1 - k, m - 1))
    for k in range(1, m + 1):
        row[k - 1] += Fraction((-1) ** k * math.comb(w - 1 - k, n - 1))
    return row


def s_sigma_relation_residual(n: int, m: int) -> ClosedForm:
    """Residual of the reflection network tying s_{n,m} to weight n+m sigma~:
    the left side of the relation in _relation_row minus its right side.

    Exactly zero whenever every needed sigma~ has a registered closed form
    (all weights <= 5); at weight 6 the surviving atomic combination is
    itself a checkable relation.
    """
    w = n + m
    return ClosedForm.combination(
        [((-1) ** w, kolbig_snp(n, m), None)]
        + [(-c, sigma_tilde(k, w - k), None) for k, c in enumerate(_relation_row(n, m), start=1)])


def _rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def sigma_weight6_count() -> tuple[int, int, int]:
    """(unknowns, relation rank, free atoms) for the weight-6 sigma~ block:
    one relation row per unordered pair {n, 6 - n}."""
    rows = [_relation_row(n, 6 - n) for n in range(1, 4)]
    rank = _rank(rows)
    unknowns = len(rows[0])
    return unknowns, rank, unknowns - rank
