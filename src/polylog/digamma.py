"""Digamma function for positive real arguments.

Upward recurrence pushes the argument above 10, then an eight-term
asymptotic series finishes; relative error is below 1e-13 on (0, inf).

psi is the uncached kernel.  psi_point memoizes it for the series oracles
(sum_oracle, the harmonic branch of mpl2, and the alternating tail
V_1(x) = [psi((x+1)/2) - psi(x/2)]/2 of mpl2's doubly alternating sums),
whose terms all walk the same integers, half-integers and Euler-Maclaurin
tail nodes (halved, for V_1); its cache holds one float per point those
series reach.  psi itself stays uncached: a cache on
arbitrary floats would grow without bound for library callers.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import DomainError

# B_{2n} / (2n) for the asymptotic tail, n = 1..8.
_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

_THRESHOLD = 10.0


def psi(x: float) -> float:
    """Digamma psi(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"psi requires x > 0, got {x}")
    if math.isinf(x):
        return x
    acc = 0.0
    while x < _THRESHOLD:
        acc -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_TAIL):
        tail = (tail + c) * y
    return acc + math.log(x) - 0.5 / x - tail


@cache
def psi_point(x: float) -> float:
    """psi(x) memoized, for the points the series oracles share.

    The cache holds the integers, half-integers and tail nodes of sum_oracle
    and of mpl2's harmonic branch, and the halved points (x+1)/2 and x/2 of
    the V_1 tail in mpl2's doubly alternating branch.
    """
    return psi(x)


@cache
def euler_gamma() -> float:
    """Euler's constant, as -psi(1)."""
    return -psi(1.0)
