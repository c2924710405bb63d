"""The three families of polylogarithm product integrals

    I+(p,q) = integral_0^1 Li_p(t) Li_q(t)  dt/t
    I-(p,q) = integral_0^1 Li_p(-t) Li_q(-t) dt/t
    I+-(p,q) = integral_0^1 Li_p(t) Li_q(-t) dt/t

with their difference-equation machinery, closed forms, infinite-series
representations, and quadrature oracles.  ipq_final builds each closed form
once, from the named-sum display, and memoizes it.  Its second routes, the
Nielsen display and the telescoping solution of the difference equation,
are written in verify, as the exact entries that check it.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from operator import mul, truediv

from .closedform import (ClosedForm, LN2, _check_order, _check_weight, eta_factor_closed,
                         zeta_closed)
from .errors import DomainError
from .eulersums import c_sum, jordan_nielsen, s_minus, s_plus, sum_oracle
from .quadrature import ORACLE_TOL, Grid, integrate01, nodes
from .special import li_column
from .summation import zeta_num


class Family(Enum):
    PLUS = "plus"
    MINUS = "minus"
    MIXED = "mixed"

    @classmethod
    def parse(cls, text: str) -> "Family":
        try:
            return cls(text.lower())
        except ValueError:
            raise DomainError(f"unknown family {text!r}; expected plus/minus/mixed")

    @property
    def symmetric(self) -> bool:
        return self is not Family.MIXED


# ---------------------------------------------------------------------------
# boundary products R(p, q)
# ---------------------------------------------------------------------------


def r_value(family: Family, p: int, q: int) -> ClosedForm:
    """R(p,q): the product of endpoint polylog values for the family.

    R+ = zeta(p) zeta(q); R- = Li_p(-1) Li_q(-1); R+- = zeta(p) Li_q(-1);
    eta-type slots admit the order-1 limit -ln 2, zeta-type slots do not.
    Its weight p+q is held to the weight ceiling MAX_WEIGHT.
    """
    p, q = _check_order(p, 1), _check_order(q, 1)
    _check_weight(p + q)
    if family is Family.PLUS:
        if p < 2 or q < 2:
            raise DomainError("R+ diverges when either order is 1")
        return zeta_closed(p) * zeta_closed(q)
    if family is Family.MINUS:
        return eta_factor_closed(p) * eta_factor_closed(q)
    if p < 2:
        raise DomainError("R+- diverges when the first order is 1")
    return zeta_closed(p) * eta_factor_closed(q)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


@cache
def ipq_numeric(family: Family, p: int, q: int, tol: float = ORACLE_TOL) -> float:
    """I(p,q) by tanh-sinh quadrature at ORACLE_TOL, memoized per (family,
    p, q); the Li values at the nodes are shared with every other integral
    through li_column.  Only perfbench's evaluation count passes its own tol."""
    p, q = _check_order(p, 1), _check_order(q, 1)
    sp = -1 if family is Family.MINUS else 1
    sq = 1 if family is Family.PLUS else -1

    def values(grid: Grid):
        return map(truediv, map(mul, li_column(p, sp, grid), li_column(q, sq, grid)),
                   nodes(grid)[0])
    return integrate01(values, tol).value


# ---------------------------------------------------------------------------
# final closed forms
# ---------------------------------------------------------------------------


@cache
def _mu_sum(family: Family, p: int, q: int) -> ClosedForm:
    """M(p) = (-1)^p sum_{mu=2}^{p} (-1)^mu R(mu, r+1-mu) at weight r = p+q:
    the sign-dense block of all three displays.

    Memoized, by the one-term recurrence M(p) = R(p, q+1) - M(p-1) at fixed r.
    """
    if p < 2:
        return ClosedForm.zero()
    return r_value(family, p, q + 1) - _mu_sum(family, p - 1, q + 1)


@cache
def _minus_named_part(r: int) -> ClosedForm:
    """The p-independent part of the minus family's display at weight r = p+q:
    2 [ln2 (2^-r - 1) zeta(r) + (1 - 2^{-r-1}) zeta(r+1)] + S-(r) - 2C(r) + 2J1(r)."""
    t = 2 ** r  # the one denominator
    return ClosedForm.combination([
        (2 - 2 * t, ClosedForm.atom(LN2), zeta_closed(r)), (2 * t - 1, zeta_closed(r + 1), None),
        (t, s_minus(r), None), (-2 * t, c_sum(r), None), (2 * t, jordan_nielsen("J1", r), None)], t)


@cache
def ipq_final(family: Family, p: int, q: int) -> ClosedForm:
    """Closed form of I(p,q), from the display in the named sums S+/S-/C/J1/M.

    Its weight p+q+1 is held to the weight ceiling MAX_WEIGHT.  The Nielsen
    display and (where one exists) the difference-equation reduction to R
    values or the diagonal are checked against it in verify.  sigma~ atoms
    survive exactly when the required alternating sum has no known closed
    form (odd p+q >= 5 in the mixed family).
    """
    p, q = _check_order(p, 1), _check_order(q, 1)
    r = p + q
    _check_weight(r + 1)
    if family is Family.MINUS:
        named, sign = _minus_named_part(r), (-1) ** p
    else:
        named, sign = (s_plus(r) if family is Family.PLUS else s_minus(r)), (-1) ** (p + 1)
    # two plain terms: one operator costs less than a combination
    mu_sum = _mu_sum(family, p, q)
    return mu_sum + named if sign > 0 else mu_sum - named


# ---------------------------------------------------------------------------
# infinite-series representations (third, fully numeric route)
# ---------------------------------------------------------------------------


def ipq_series(family: Family, p: int, q: int) -> float:
    """I(p,q) from the series displays, with every psi-sum taken from
    sum_oracle (never through the closed forms)."""
    p, q = _check_order(p, 1), _check_order(q, 1)
    r = p + q
    mu_sum = 0.0
    for mu in range(2, p + 1):
        if family is Family.PLUS:
            t = zeta_num(mu) * zeta_num(r + 1 - mu)
        elif family is Family.MIXED:
            t = zeta_num(mu) * (2.0 ** (mu - r) - 1.0) * zeta_num(r + 1 - mu)
        else:
            t = ((2.0 ** (1 - mu) - 1.0) * zeta_num(mu)
                 * (2.0 ** (mu - r) - 1.0) * zeta_num(r + 1 - mu))
        mu_sum += (-1.0) ** mu * t
    mu_sum *= (-1.0) ** p

    if family is Family.PLUS:
        return mu_sum + (-1.0) ** (p + 1) * sum_oracle("SPlus", r)
    s_alt = sum_oracle("SMinus", r)
    if family is Family.MIXED:
        return mu_sum + (-1.0) ** (p + 1) * s_alt

    prefix = (-1.0) ** p * 2.0 * (math.log(2.0) * (2.0 ** (-r) - 1.0) * zeta_num(r)
                                  + (1.0 - 2.0 ** (-r - 1)) * zeta_num(r + 1))
    # sum (psi(k+1)+gamma)/(2k)^r = 2 C(r); sum (psi(k+1/2)-psi(1/2))/(2k+1)^r = 2 J1(r)
    s_even = 2.0 * sum_oracle("CSum", r)
    s_half = 2.0 * sum_oracle("Jordan1", r)
    return prefix + mu_sum + (-1.0) ** p * (s_alt - s_even + s_half)
