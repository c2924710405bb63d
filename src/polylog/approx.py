"""Stirling-number truncated approximation of alternating Euler sums.

Expanding Li_p(-t) about t = 1 inside the integral representation of S-(p)
gives

    S-(p) = sum_{k>=1} (-1)^{k+1} / (k * k!)
            * sum_{j=1}^{k} S_k^(j) (2^{1+j-p} - 1) zeta(p - j),

with S_k^(j) the signed Stirling numbers of the first kind.  Truncating at
k = k_t yields an exact closed form over {1, pi powers, zeta(odd), ln 2};
for j >= p - 1 the eta-type factor continues through -ln 2 (at p - j = 1)
and Bernoulli rationals (at p - j <= 0), which the deeper truncations the
approximation relies on do reach.
"""

from __future__ import annotations

import math
from functools import cache

from .closedform import (MAX_KT, ClosedForm, _check_order, builder, eta_factor_closed,
                         zeta_nonpositive_rational)
from .errors import CapacityError, DomainError

# MAX_KT (in closedform) is the deepest truncation and Stirling row served.
# The cost of the exact form grows steeply with kt; nine decimals at p = 5
# need only kt = 12, and 100 keeps any query within a fraction of a second.


def _check_kt(k: int) -> int:
    k = _check_order(k, 1)
    if k > MAX_KT:
        raise CapacityError(f"truncation depth {k} above cap MAX_KT = {MAX_KT}")
    return k


@cache
def _stirling_row(k: int) -> tuple[int, ...]:
    """S_k^(1..k) from S_k^(j) = S_{k-1}^(j-1) - (k-1) S_{k-1}^(j)."""
    if k == 1:
        return (1,)
    prev = (0, *_stirling_row(k - 1), 0)   # S_{k-1}^(0..k)
    return tuple(prev[j - 1] - (k - 1) * prev[j] for j in range(1, k + 1))


@builder(1, 1)
def stirling1(k: int, j: int) -> int:
    """Signed Stirling number of the first kind S_k^(j), exact, for k <= MAX_KT."""
    _check_kt(k)
    if j > k:
        raise DomainError(f"column {j} outside 1..{k}")
    return _stirling_row(k)[j - 1]


def _alt_zeta_closed(s: int) -> ClosedForm:
    """(2^{1-s} - 1) zeta(s) continued to every integer s."""
    if s >= 1:
        return eta_factor_closed(s)
    num, den = zeta_nonpositive_rational(s)
    return ClosedForm.rational((2 ** (1 - s) - 1) * num) / den


@cache
def _derivative_cf(p: int, k: int) -> ClosedForm:
    """[d^k Li_p(-t) / dt^k] at t = 1, exactly: sum_j S_k^(j) (2^{1+j-p} - 1)
    zeta(p - j), continued past j = p - 1 as in _alt_zeta_closed."""
    return ClosedForm.combination((stirling1(k, j), _alt_zeta_closed(p - j), None)
                                  for j in range(1, k + 1))


@builder(3, weight=1)
def s_minus_truncated(p: int, kt: int) -> ClosedForm:
    """Truncation at k = kt of the Stirling expansion of S-(p).

    Exact closed form in {1, pi powers, zeta(odd), ln 2}; accuracy improves
    with kt (nine decimals at p = 5, kt = 10); kt is held to MAX_KT.
    """
    kt = _check_kt(kt)
    weights = [k * math.factorial(k) for k in range(1, kt + 1)]
    den = math.lcm(*weights)  # the one denominator
    return ClosedForm.combination([((-1) ** (k + 1) * (den // w), _derivative_cf(p, k), None)
                                   for k, w in enumerate(weights, start=1)], den)
