"""Accelerated summation of alternating and monotone series.

Alternating sums use the Chebyshev-polynomial scheme of Cohen, Rodriguez
Villegas and Zagier: n terms give roughly (3 + sqrt 8)^-n accuracy for
smoothly decaying magnitudes.  Monotone sums add the terms below the cutoff
TAIL_CUTOFF, which the caller's head gives in one call, to an
Euler-Maclaurin tail taken in closed form from the caller's asymptotic
expansion of the term, t(k) ~ F(a*k + b) with
F(y) = sum (u + v ln y) y^-p over a finite tuple of (p, u, v).

sum_alternating raises ConvergenceError past its term budget, the module
constant ALTERNATING_TERMS, and DomainError for a tolerance that is not
finite and positive; sum_tail raises ConvergenceError for a head sum that
is not finite and for a tail whose Euler-Maclaurin corrections have not
settled by B_20 (EM_CORRECTIONS), and DomainError for a power p <= 1.

Across calls, eta_num/zeta_num keep one float per integer order and the
CVZ weights are kept per depth n (_cvz_weights, at most ALTERNATING_TERMS
floats per depth asked for).  Within a call, sum_alternating keeps its terms
across its deepenings, so each index is evaluated once.  The heads of the
production callers read per-index tables that are memoized where they live
(digamma.psi_table; special._tail_block, one block per order and sign).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from functools import cache

from .closedform import _check_order
from .digamma import bernoulli_quotients
from .errors import ConvergenceError, DomainError
from .quadrature import _check_tolerance

_LOG_CVZ_BASE = math.log(3.0 + math.sqrt(8.0))
# the CVZ divisor (3 + sqrt 8)^n overflows a double past n = 402
ALTERNATING_TERMS = 400
# sum_tail's head gives the terms below this index
TAIL_CUTOFF = 64
# the Euler-Maclaurin corrections run through B_2 .. B_2j for j up to this,
# the length of digamma.bernoulli_quotients
EM_CORRECTIONS = 10
# a piece of a tail below this fraction of the sum so far is dropped
_NEGLIGIBLE = 2.0 ** -60


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


Expansion = tuple[tuple[int, float, float], ...]
Tail = tuple[int, int, Expansion]


@cache
def _em_weights() -> tuple[float, ...]:
    """B_2j/(2j)! for j = 1..EM_CORRECTIONS, the Euler-Maclaurin weights."""
    return tuple(q / math.factorial(2 * j - 1) for j, q in enumerate(bernoulli_quotients(), 1))


def sum_tail(head: Callable[[int], Iterable[float]], tail: Tail) -> float:
    """sum_{k>=1} t(k) for terms t with the asymptotic expansion tail.

    head(K) gives the terms t(1) .. t(K-1) below the cutoff K = TAIL_CUTOFF,
    which are added up with fsum.  tail = (a, b, expansion): t(k) ~ F(a*k + b)
    for large k, where F(y) = sum (u + v ln y) y^-p over the (p, u, v) of
    expansion, in increasing p; the leading p must exceed 1.  The
    Euler-Maclaurin tail of F from K on is taken in closed form
    (_expansion_tail), its pieces settled to 2^-60 of the sum.
    """
    a, b, expansion = tail
    if min(p for p, _, _ in expansion) <= 1:
        raise DomainError("tail summation needs a leading power p > 1 (sum may diverge)")
    K = TAIL_CUTOFF
    total = math.fsum(head(K))
    if not math.isfinite(total):
        raise ConvergenceError(f"the sum of the head terms 1..{K - 1} is {total}: not finite")
    return total + _expansion_tail(float(a * K + b), a, expansion, total)


def _expansion_tail(y: float, a: int, expansion: Expansion, head: float) -> float:
    """sum_{k>=K} F(a*k + b) at y = a*K + b, by Euler-Maclaurin in closed form.

    Each (p, u, v) of F adds its integral from y on, half its value at y and
    the corrections B_2j/(2j)! a^(2j-1) (p)_(2j-1) y^(-p-2j+1)
    (u + v (ln y - sum_{i<2j-1} 1/(p+i))).  One stopping rule: a piece at or
    below 2^-60 of |head| + |the leading integral| is negligible.  A term
    whose integral and half value are negligible is dropped; a term's
    corrections end at the first negligible one, and a term whose
    corrections are not negligible by B_(2*EM_CORRECTIONS) raises
    ConvergenceError.
    """
    ln_y = math.log(y)
    p, u, v = expansion[0]
    floor = _NEGLIGIBLE * (abs(head) + abs(y ** (1 - p) * (u + v * ln_y) / (a * (p - 1))))
    step = (a / y) ** 2
    total = 0.0
    for p, u, v in expansion:
        power = y ** -p
        q = p - 1
        part = power * (y / (a * q) * (u + v * (ln_y + 1.0 / q)) + (u + v * ln_y) / 2.0)
        if abs(part) <= floor:
            continue
        # scale = a^(2j-1) (p)_(2j-1) y^(-p-2j+1), shift = sum_{i<2j-1} 1/(p+i)
        scale, shift, n = power * p * a / y, 1.0 / p, p + 1
        for weight in _em_weights():
            correction = weight * scale * (u + v * (ln_y - shift))
            part += correction
            if abs(correction) <= floor:
                break
            scale *= n * (n + 1) * step
            shift += 1.0 / n + 1.0 / (n + 1)
            n += 2
        else:
            raise ConvergenceError(f"the Euler-Maclaurin corrections of y^-{p} at y = {y} "
                                   f"did not settle by B_{2 * EM_CORRECTIONS}", partial=total)
        total += part
    return total


# ---------------------------------------------------------------------------
# zeta and friends, numeric
# ---------------------------------------------------------------------------

@cache
def eta_num(s: int) -> float:
    """eta(s) = sum_{k>=1} (-1)^{k-1} k^-s for s >= 1."""
    s = _check_order(s, 1)
    return sum_alternating(lambda k: (-1) ** (k - 1) * float(k) ** (-s), 1e-15)


@cache
def zeta_num(s: int) -> float:
    """zeta(s) for integer s >= 2, via the alternating eta series."""
    s = _check_order(s, 2)
    return eta_num(s) / (1.0 - 2.0 ** (1 - s))
