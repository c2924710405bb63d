"""Accelerated summation of alternating and monotone series.

Alternating sums use the Chebyshev-polynomial scheme of Cohen, Rodriguez
Villegas and Zagier: n terms give roughly (3 + sqrt 8)^-n accuracy for
smoothly decaying magnitudes.  Monotone sums with a known power-law decay
use direct summation plus an Euler-Maclaurin tail whose integral part is
evaluated by the tanh-sinh rule; the term callable must therefore accept
real (not just integer) arguments beyond the cutoff.

sum_alternating and sum_tail raise ConvergenceError past their term budgets,
the module constants ALTERNATING_TERMS and TAIL_TERMS, and DomainError for a
tolerance that is not finite and positive.

Across calls, eta_num/zeta_num keep one float per integer order and the
CVZ weights are kept per depth n (_cvz_weights, at most ALTERNATING_TERMS
floats per depth asked for).  Within a call, sum_tail keeps its direct
terms across the doublings of its cutoff and sum_alternating its terms
across its deepenings, so each index is evaluated once.  A sum_tail caller
whose terms are weight(k) * base(k)^e passes them as ``direct``: each
doubling's direct terms are then one map over a per-index table of the
weights (digamma.psi_table, memoized per block; special.outer_tail_table,
sliced from memoized blocks) and one map(pow, ...) over the bases, and the
term callable is called only for the Euler-Maclaurin tail.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from functools import cache
from itertools import repeat
from operator import mul

from .errors import ConvergenceError, DomainError
from .quadrature import _check_tolerance, integrate01, nodes

_LOG_CVZ_BASE = math.log(3.0 + math.sqrt(8.0))
# the CVZ divisor (3 + sqrt 8)^n overflows a double past n = 402
ALTERNATING_TERMS = 400
TAIL_TERMS = 1 << 21


@cache
def _cvz_weights(n: int) -> tuple[tuple[float, ...], float]:
    """The n Chebyshev weights c_k of the CVZ scheme and their divisor d."""
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append(c)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return tuple(weights), d


def _cvz(a: list[float]) -> float:
    """sum_{j>=0} (-1)^j a_j for a smooth, eventually monotone magnitude a."""
    weights, d = _cvz_weights(len(a))
    s = 0.0
    for c, x in zip(weights, a):
        s += c * x
    return s / d


def sum_alternating(term: Callable[[int], float], tol: float) -> float:
    """sum_{k>=1} term(k) where term alternates in sign.

    The sign may sit inside ``term``; magnitudes must eventually decrease
    smoothly.  Two runs at different depths must agree within tol.
    """
    _check_tolerance(tol)
    n = max(12, int(math.log(max(4.0 / tol, 10.0)) / _LOG_CVZ_BASE) + 6)
    prev = None
    a: list[float] = []
    while n <= ALTERNATING_TERMS:
        # each deepening only adds the terms past the previous depth
        a.extend((-1) ** (j + 1) * term(j + 1) for j in range(len(a), n))
        value = -_cvz(a)
        if prev is not None and abs(value - prev) <= max(tol / 2, 4e-16 * (1.0 + abs(value))):
            return value
        prev = value
        n += max(10, n // 2)
    raise ConvergenceError("alternating-series acceleration did not settle", partial=prev)


Direct = tuple[Callable[[int, int], Iterable[float]], int, int, float]


def sum_tail(term: Callable[[float], float], tol: float, decay_exponent: float,
             direct: Direct | None = None) -> float:
    """sum_{k>=1} term(k) for term(k) = O(k^-s) with s = decay_exponent >= 2.

    Direct summation to a cutoff K plus the Euler-Maclaurin tail
    integral(K..inf) + term(K)/2 - term'(K)/12; K doubles until the total
    moves by less than tol/4.  Each integer k is evaluated once: a doubling
    extends the list of direct terms kept from the previous cutoff.

    direct = (weights, step, offset, e) gives the direct terms without
    calling term: for k in range(a, b) they are
    weights(a, b)[k - a] * (step*k + offset) ** e, which must equal term(k)
    bit for bit.
    """
    if decay_exponent < 2:
        raise DomainError("tail summation needs decay exponent >= 2 (sum may diverge)")
    _check_tolerance(tol)
    K = 256
    prev = None
    terms: list[float] = []
    while K <= TAIL_TERMS:
        # each doubling only adds the terms of the new k; fsum is correctly
        # rounded, so summing the whole list equals a fresh summation
        a = 1 + len(terms)
        if direct is None:
            terms.extend(map(term, range(a, K)))
        else:
            weights, step, offset, e = direct
            bases = range(step * a + offset, step * K + offset, step)
            terms.extend(map(mul, weights(a, K), map(pow, bases, repeat(e))))
        total = math.fsum(terms) + _em_tail(term, float(K), tol)
        if prev is not None and abs(total - prev) <= tol / 4:
            return total
        prev = total
        K *= 2
    raise ConvergenceError("tail summation did not settle within the term budget",
                           partial=prev)


def _em_tail(term: Callable[[float], float], m: float, tol: float) -> float:
    def transformed(u: float, omu: float) -> float:
        # integral_m^inf term(x) dx with x = m/u; written as x*term(x)/u to
        # survive u near the underflow edge.  Nodes this close to u = 0
        # carry double-exponentially small weights, so truncating is safe
        # for any term with the declared power-law decay.
        if u < 1e-290:
            return 0.0
        x = m / u
        return x * term(x) / u

    quad = integrate01(lambda g: map(transformed, *nodes(g)[:2]), max(1e-13, tol / 8.0))
    h = max(1e-4, 1e-6 * m)
    slope = (term(m + h) - term(m - h)) / (2.0 * h)
    return quad.value + term(m) / 2.0 - slope / 12.0


# ---------------------------------------------------------------------------
# zeta and friends, numeric
# ---------------------------------------------------------------------------

@cache
def eta_num(s: int) -> float:
    """eta(s) = sum_{k>=1} (-1)^{k-1} k^-s for s >= 1."""
    if s < 1:
        raise DomainError("eta_num requires s >= 1")
    return sum_alternating(lambda k: (-1) ** (k - 1) * float(k) ** (-s), 1e-15)


@cache
def zeta_num(s: int) -> float:
    """zeta(s) for integer s >= 2, via the alternating eta series."""
    if s < 2:
        raise DomainError("zeta_num requires s >= 2")
    return eta_num(s) / (1.0 - 2.0 ** (1 - s))
