"""Digamma function for positive real arguments.

Upward recurrence pushes the argument above 10, then an eight-term
asymptotic series, evaluated as an unrolled Horner scheme, finishes;
relative error is below 1e-13 on (0, inf).  The series' coefficients
B_2n/(2n) come from one cached table, bernoulli_quotients.

psi is the uncached kernel.  psi_point memoizes it for the Euler-sum
series oracles (eulersums.sum_oracle), whose terms all walk the same
integers and half-integers; its cache holds one float per point those
series reach.  psi_table keeps the digamma differences
psi(k + shift) - psi(shift) of their heads, the terms below sum_tail's
cutoff, as one tuple per shift, read through psi_point, so each point
still meets the kernel once.
Neither serves special.mpl2, whose outer tails have an asymptotic series of
their own.  psi itself stays uncached: a cache on arbitrary floats would
grow without bound for library callers.
"""

from __future__ import annotations

import math
from functools import cache

from .closedform import bernoulli_fraction
from .errors import DomainError


@cache
def bernoulli_quotients() -> tuple[float, ...]:
    """B_2n/(2n) for n = 1..10 as floats, from closedform's exact Bernoulli
    numbers, filled on first use.  psi's asymptotic series reads the first
    eight; summation's Euler-Maclaurin weights, the digamma series of
    eulersums and the outer tails of special share the table."""
    return tuple(float(bernoulli_fraction(2 * n) / (2 * n)) for n in range(1, 11))


_THRESHOLD = 10.0


def psi(x: float) -> float:
    """Digamma psi(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"psi requires x > 0, got {x}")
    acc = 0.0
    while x < _THRESHOLD:
        acc -= 1.0 / x
        x += 1.0
    b1, b2, b3, b4, b5, b6, b7, b8, _, _ = bernoulli_quotients()
    y = 1.0 / (x * x)
    tail = (((((((b8 * y + b7) * y + b6) * y + b5) * y + b4) * y + b3) * y + b2) * y + b1) * y
    return acc + math.log(x) - 0.5 / x - tail


@cache
def psi_point(x: float) -> float:
    """psi(x) memoized, for the points the series oracles share.

    The cache holds the integers and half-integers of sum_oracle (psi_table
    reads its points through here) and the point 1 of euler_gamma.
    """
    return psi(x)


@cache
def psi_table(shift: float, stop: int) -> tuple[float, ...]:
    """psi(k + shift) - psi(shift) for k in range(1, stop), read through
    psi_point: the digamma differences of a series oracle's head."""
    origin = psi_point(shift)
    return tuple(psi_point(k + shift) - origin for k in range(1, stop))


@cache
def euler_gamma() -> float:
    """Euler's constant, as -psi(1)."""
    return -psi_point(1.0)
