"""Quadrature over (0, 1) tolerant of logarithmic endpoint singularities.

The rule is double-exponential (tanh-sinh): nodes x = sigmoid(pi*sinh(t))
cluster at both endpoints, and weights decay fast enough to absorb any
power of log x or log(1-x).  Every node comes with both x and 1-x, each
computed without cancellation, so expressions like ln(1-x) stay accurate at
nodes within 1e-300 of an endpoint.

The rule is evaluated one grid at a time.  A grid is a refinement level
0..11 of the whole interval; its columns x, 1-x and w are cached (nodes).
An integrand is a grid function, values(grid) -> its values at the grid's
nodes in order; f(x, 1-x) reads lambda g: map(f, *nodes(g)[:2]).  The
production integrands combine cached per-grid columns, ln^n here (log_power)
and Li_p(+-x) in special.li_column, by C-level map pipelines, in the same
float operations as the pointwise expression, so each per-node quantity is
computed once per process.  The caches are bounded by the twelve levels.
A stalled rule raises ConvergenceError with its last value as the partial.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import cache
from itertools import repeat
from operator import mul

from .errors import CapacityError, ConvergenceError, DomainError

_T_MAX = 6.3          # |pi*sinh(t)| > 745 beyond this: nodes underflow
_MAX_LEVEL = 11
_MIN_TOL = 1e-13
# Relative roundoff of a level's sum: each node value carries its own
# rounding, n-fold under ln^n, so levels need not agree closer (36 ulp).
_SUM_ROUNDOFF = 8e-15
# The one precision of every quantity oracle (sum_oracle, ipq_numeric,
# lognm_numeric, nielsen_num, mpl2); verify tolerances only judge.
ORACLE_TOL = 1e-12

Grid = int  # a refinement level, 0.._MAX_LEVEL


def log1m(x: float, omx: float) -> float:
    """ln(1 - x) accurate at both endpoints.

    Near x = 0 the supplied 1-x rounds to 1.0 and would zero the logarithm,
    so the log1p channel takes over; near x = 1 the supplied distance is the
    exact one the node generator produced.  With the arguments swapped,
    log1m(1-x, x) is ln x, accurate at both endpoints in the same way.
    """
    return math.log1p(-x) if x < 0.5 else math.log(omx)


def _check_tolerance(tol: float) -> None:
    """Raise DomainError unless tol is finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance {tol} is not finite and positive")


QuadratureResult = namedtuple("QuadratureResult", "value error_estimate evaluations")


def _node(t: float) -> tuple[float, float, float]:
    """Abscissa pieces for the tanh-sinh map: (x, 1-x, weight/h)."""
    u = math.pi * math.sinh(t)
    e = math.exp(-abs(u))
    s = 1.0 / (1.0 + e)          # sigmoid(|u|)
    if u >= 0.0:
        x, omx = s, e * s
    else:
        x, omx = e * s, s
    w = math.pi * math.cosh(t) * x * omx
    return x, omx, w


# Level 0 holds all integer t in [-T_MAX, T_MAX]; level L >= 1 holds the
# odd multiples of 2^-L.
@cache
def nodes(level: Grid) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """The columns (x, 1-x, w) of a level."""
    h = 0.5 ** level
    n = int(_T_MAX / h)
    pts = []
    for k in range(-n, n + 1):
        if level and not k % 2:
            continue
        x, omx, w = _node(k * h)
        # nodes closer than 1e-300 to an endpoint carry weights below
        # any tolerance this module supports; dropping them keeps
        # downstream coordinate transforms clear of subnormals
        if x > 1e-300 and omx > 1e-300 and w > 0.0:
            pts.append((x, omx, w))
    xs, omxs, ws = zip(*pts)
    return xs, omxs, ws


@cache
def log_power(arg: str, n: int, grid: Grid) -> tuple[float, ...]:
    """ln^n of x, 1-x or 1+x (arg "x", "1-x", "1+x") at every node of a grid;
    each n != 1 raises the n = 1 column to the power n, node by node.  A power
    past the float range is a CapacityError naming the order."""
    if n != 1:
        try:
            return tuple(map(pow, log_power(arg, 1, grid), repeat(n)))
        except OverflowError as exc:
            raise CapacityError(f"ln^{n}({arg}) overflows a float at the quadrature "
                                f"nodes: order {n} is beyond the float oracle") from exc
    xs, omxs, _ = nodes(grid)
    if arg == "x":
        return tuple(map(log1m, omxs, xs))
    if arg == "1-x":
        return tuple(map(log1m, xs, omxs))
    if arg == "1+x":
        return tuple(map(math.log1p, xs))
    raise DomainError(f"unknown log column {arg!r}")


def integrate01(values: Callable[[Grid], Iterable[float]], tol: float) -> QuadratureResult:
    """Integrate over (0, 1) to absolute tolerance tol (tol >= 1e-13) the
    integrand whose values at the nodes of each grid are values(grid)."""
    _check_tolerance(tol)
    if tol < _MIN_TOL:
        raise DomainError(f"tolerance below supported floor {_MIN_TOL}")

    total_g = 0.0
    evals = 0
    prev_value = 0.0
    prev_delta = math.inf
    stalls = 0
    for level in range(_MAX_LEVEL + 1):
        ws = nodes(level)[2]
        evals += len(ws)
        total_g += math.fsum(map(mul, ws, values(level)))
        value = 0.5 ** level * total_g
        if level >= 2:
            delta = abs(value - prev_value)
            if delta <= max(tol, _SUM_ROUNDOFF * (1.0 + abs(value))):
                return QuadratureResult(value, max(delta, 2e-16 * abs(value)), evals)
            if delta >= prev_delta:
                stalls += 1
                if stalls >= 2:
                    break
            prev_delta = delta
        prev_value = value
    raise ConvergenceError("tanh-sinh refinement stalled before reaching tolerance",
                           partial=value)
