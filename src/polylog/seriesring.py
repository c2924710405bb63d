"""Truncated bivariate power series with exact closed-form coefficients.

This is the machinery behind two generating-function routes:

* the Nielsen constants s_{n,p}, extracted from the expansion of
  (1/beta) * Gamma(1+alpha) Gamma(1+beta) / Gamma(1+alpha+beta);
* the log integrals i(n,m), extracted from the Beta function
  B(nu+1, mu+1) = Gamma(1+nu) Gamma(1+mu) / ((1+nu+mu) Gamma(1+nu+mu)).

The builders read the Gamma ratio one homogeneous weight at a time: the
slice F_w (the coefficients of a^i b^(w-i)) follows from the lower slices
by the Euler-operator recurrence w F_w = sum_k k G_k F_{w-k}, G_k the
weight-k slice of the log, each entry one combination of integer
numerators over w.  F_w is symmetric, so only its entries i <= w/2 are
built.  kolbig_snp reads the signed slice (-1)^(w+1) F_w, negated once per
weight.  Each slice is memoized once per process, and a weight-w query
builds nothing above weight w, at most MAX_WEIGHT = 18 (in closedform).

ln Gamma(1+z) is encoded with its Euler-gamma term included.  The dense
BivariateSeries route (gamma_ratio_series) builds the same ratio as a full
box by series exponentiation, asserts that gamma cancels in its log, and
is kept as the reference the graded slices are tested against.  Its box
reads zeta(k) up to k = na + nb, past MAX_WEIGHT, so _lngamma_coeff builds
zeta(k) from zeta_even_coefficient and zeta_odd_atom, not by the capped
zeta_closed.  The slices use the closed form of each log slice, in which
gamma is already gone.
"""

from __future__ import annotations

import math
from functools import cache

from .closedform import (MAX_WEIGHT, ClosedForm, GAMMA, PI, _check_order, _check_weight,
                         bind_orders, builder, zeta_closed, zeta_even_coefficient, zeta_odd_atom)
from .errors import DomainError, ShapeError


class BivariateSeries:
    """Dense truncated series sum c[i][j] * a^i * b^j, coefficients exact.
    Its truncation orders are orders >= 0 held to MAX_WEIGHT before the box
    is allocated; a ShapeError is only for operands of different shapes."""

    __slots__ = ("na", "nb", "c")

    @bind_orders(None, 0, 0)
    def __init__(self, na: int, nb: int,
                 coeffs: list[list[ClosedForm]] | None = None):
        _check_weight(max(na, nb))  # each order, as in gamma_ratio_series
        self.na, self.nb = na, nb
        if coeffs is None:
            self.c = [[ClosedForm.zero() for _ in range(nb + 1)]
                      for _ in range(na + 1)]
        else:
            self.c = coeffs

    @classmethod
    def constant(cls, na: int, nb: int, value: ClosedForm) -> "BivariateSeries":
        s = cls(na, nb)
        s.c[0][0] = value
        return s

    def _check_shape(self, other: "BivariateSeries") -> None:
        if self.na != other.na or self.nb != other.nb:
            raise ShapeError(
                f"order mismatch: ({self.na},{self.nb}) vs ({other.na},{other.nb})")

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_shape(other)
        out = BivariateSeries(self.na, self.nb)
        for i in range(self.na + 1):
            for j in range(self.nb + 1):
                out.c[i][j] = self.c[i][j] + other.c[i][j]
        return out

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_shape(other)
        out = BivariateSeries(self.na, self.nb)
        for i in range(self.na + 1):
            for j in range(self.nb + 1):
                out.c[i][j] = self.c[i][j] - other.c[i][j]
        return out

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_shape(other)
        out = BivariateSeries(self.na, self.nb)
        for i1 in range(self.na + 1):
            row = self.c[i1]
            for j1 in range(self.nb + 1):
                c1 = row[j1]
                if c1.is_zero:
                    continue
                for i2 in range(self.na + 1 - i1):
                    for j2 in range(self.nb + 1 - j1):
                        c2 = other.c[i2][j2]
                        if c2.is_zero:
                            continue
                        out.c[i1 + i2][j1 + j2] = out.c[i1 + i2][j1 + j2] + c1 * c2
        return out

    def scale(self, q) -> "BivariateSeries":
        out = BivariateSeries(self.na, self.nb)
        for i in range(self.na + 1):
            for j in range(self.nb + 1):
                out.c[i][j] = self.c[i][j] * q
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero for row in self.c for c in row)

    def exp(self) -> "BivariateSeries":
        """exp of a series with zero constant term."""
        if not self.c[0][0].is_zero:
            raise DomainError("series exponential requires a zero constant term")
        out = BivariateSeries.constant(self.na, self.nb, ClosedForm.one())
        power = BivariateSeries.constant(self.na, self.nb, ClosedForm.one())
        for k in range(1, self.na + self.nb + 1):
            power = power * self
            if power.is_zero():
                break
            out = out + power.scale(ClosedForm.one() / math.factorial(k))
        return out


def _lngamma_coeff(k: int) -> ClosedForm:
    # ln Gamma(1+z) = -gamma z + sum_{k>=2} (-1)^k zeta(k) z^k / k
    if k == 1:
        return ClosedForm.atom(GAMMA, 1, -1)
    if k % 2:
        return ClosedForm.atom(zeta_odd_atom(k), 1, -1) / k
    num, den = zeta_even_coefficient(k)
    return ClosedForm.atom(PI, k, num) / (den * k)


def _lngamma_ratio_log(na: int, nb: int) -> BivariateSeries:
    """ln Gamma(1+a) + ln Gamma(1+b) - ln Gamma(1+a+b), truncated."""
    s = BivariateSeries(na, nb)
    kmax = na + nb
    for k in range(1, kmax + 1):
        lg = _lngamma_coeff(k)
        if k <= na:
            s.c[k][0] = s.c[k][0] + lg
        if k <= nb:
            s.c[0][k] = s.c[0][k] + lg
        for i in range(max(0, k - nb), min(k, na) + 1):
            j = k - i
            s.c[i][j] = s.c[i][j] - math.comb(k, i) * lg
    return s


@cache
def gamma_ratio_series(orders: tuple[int, int]) -> BivariateSeries:
    """Series of Gamma(1+a) Gamma(1+b) / Gamma(1+a+b), as a dense box.

    Equals exp(sum_{k>=2} (-1)^k zeta(k)/k [a^k + b^k - (a+b)^k]); the
    gamma terms cancel in the log and the cancellation is asserted.  The
    builders read the graded slices instead; this box is their reference.
    Each order is held to MAX_WEIGHT (in BivariateSeries); the box reads zeta to na + nb.
    """
    na, nb = (_check_order(n, 1) for n in orders)
    logs = _lngamma_ratio_log(na, nb)
    for i in range(na + 1):
        for j in range(nb + 1):
            if GAMMA in logs.c[i][j].atoms():
                raise RuntimeError(
                    "Euler-gamma terms failed to cancel in the log-Gamma ratio")
    return logs.exp()


@cache
def _ratio_slice(w: int) -> tuple[ClosedForm, ...]:
    """Weight-w part F_w of Gamma(1+a) Gamma(1+b) / Gamma(1+a+b).

    Entry i is the coefficient of a^i b^(w-i).  The Euler operator
    a d/da + b d/db multiplies a weight-w term by w, and on F = exp(G) it
    gives E F = (E G) F, so w F_w = sum_k k G_k F_{w-k}.  The log slice G_k
    is -C(k,l) lg_k at a^l b^(k-l) for 0 < l < k and zero at both ends (so
    G_1, the Euler-gamma term, vanishes), with lg_k = (-1)^k zeta(k)/k.  So

        F_w[i] = sum_{k=2}^{w} sum_{0<l<k} C(k,l) g_k F_{w-k}[i-l],

    with g_k = (-k/w) lg_k = (-1)^(k+1) zeta(k)/w; each entry is one
    ClosedForm.combination of the numerators (-1)^(k+1) C(k,l) over w.  F is
    symmetric in a and b: only the entries i <= w/2 are built.
    """
    if w == 0:
        return (ClosedForm.one(),)
    g = {k: ((-1) ** (k + 1), zeta_closed(k), _ratio_slice(w - k)) for k in range(2, w + 1)}
    half = [ClosedForm.combination(((sign * math.comb(k, l), zk, lower[i - l])
                                    for k, (sign, zk, lower) in g.items()
                                    for l in range(max(1, i - w + k), min(k - 1, i) + 1)), w)
            for i in range(w // 2 + 1)]
    return (*half, *reversed(half[:(w + 1) // 2]))


@cache
def _snp_slice(w: int) -> tuple[ClosedForm, ...]:
    """s_{n,p} at weight w = n + p, indexed by p: F_w at odd w, -F_w at even w."""
    f = _ratio_slice(w)
    return f if w % 2 else tuple(-x for x in f)


@builder(1, 1)
def kolbig_snp(n: int, p: int, max_weight: int = MAX_WEIGHT) -> ClosedForm:
    """Nielsen constant s_{n,p} = S_{n,p}(1), exactly.

    The a^p b^n coefficient of the Gamma ratio (the 1/b prefactor in the
    generating identity shifts the b index by one), signed (-1)^(n+p+1):
    entry p of _snp_slice(n + p).  max_weight is a table's narrower cap.
    """
    _check_weight(n + p, max_weight)
    return _snp_slice(n + p)[p]


@builder(1, 1, weight=0)
def beta_derivative_inm(n: int, m: int) -> ClosedForm:
    """i(n,m) as the mixed Taylor coefficient of the Beta function route.

    B(a+1, b+1) is the Gamma ratio times 1/(1+a+b), whose weight-d slice
    is (-1)^d C(d, i); the a^n b^m coefficient convolves the two.
    """
    scale = math.factorial(n) * math.factorial(m)
    return ClosedForm.combination(
        ((-1) ** (n + m - k) * scale * math.comb(n + m - k, n - i), _ratio_slice(k)[i], None)
        for k in range(n + m + 1) for i in range(max(0, k - m), min(n, k) + 1))
