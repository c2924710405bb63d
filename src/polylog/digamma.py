"""Digamma function for positive real arguments.

Upward recurrence pushes the argument above 10, then an eight-term
asymptotic series, evaluated as an unrolled Horner scheme, finishes;
relative error is below 1e-13 on (0, inf).

psi is the uncached kernel.  psi_point memoizes it for the Euler-sum
series oracles (eulersums.sum_oracle), whose direct terms all walk the same
integers and half-integers; its cache holds one float per point those
series reach.  psi_table keeps their direct terms' digamma differences
psi(k + shift) - psi(shift) as one tuple per block of indices, read through
psi_point, so each point still meets the kernel once.
Neither serves special.mpl2, whose outer tails have an asymptotic series of
their own.  psi itself stays uncached: a cache on arbitrary floats would
grow without bound for library callers.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import DomainError

# B_{2n} / (2n) for the asymptotic tail, n = 1..8.
_TAIL = _B1, _B2, _B3, _B4, _B5, _B6, _B7, _B8 = (
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
    tail = (((((((_B8 * y + _B7) * y + _B6) * y + _B5) * y + _B4) * y + _B3) * y + _B2) * y
            + _B1) * y
    return acc + math.log(x) - 0.5 / x - tail


@cache
def psi_point(x: float) -> float:
    """psi(x) memoized, for the points the series oracles share.

    The cache holds the integers and half-integers of sum_oracle (psi_table
    reads its points through here) and the point 1 of euler_gamma.
    """
    return psi(x)


@cache
def psi_table(shift: float, start: int, stop: int) -> tuple[float, ...]:
    """psi(k + shift) - psi(shift) for k in range(start, stop), read through
    psi_point.  The series oracles ask for the blocks their cutoffs add."""
    origin = psi_point(shift)
    return tuple(psi_point(k + shift) - origin for k in range(start, stop))


@cache
def euler_gamma() -> float:
    """Euler's constant, as -psi(1)."""
    return -psi_point(1.0)
