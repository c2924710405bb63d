"""Quadrature over (0, 1) tolerant of logarithmic endpoint singularities.

The rule is double-exponential (tanh-sinh): nodes x = sigmoid(pi*sinh(t))
cluster at both endpoints, and weights decay fast enough to absorb any
power of log x or log(1-x).  An integrand is an evaluator f(x, 1-x): it
receives both x and 1-x, each computed without cancellation, so
expressions like ln(1-x) stay accurate at nodes within 1e-300 of an
endpoint.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cache
from operator import itemgetter

from .errors import ConvergenceError, DomainError

_T_MAX = 6.3          # |pi*sinh(t)| > 745 beyond this: nodes underflow
_MAX_LEVEL = 11
_MIN_TOL = 1e-13
# The one precision of every quantity oracle (sum_oracle, ipq_numeric,
# lognm_numeric, nielsen_num, mpl2); verify tolerances only judge.
ORACLE_TOL = 1e-12


def log1m(x: float, omx: float) -> float:
    """ln(1 - x) accurate at both endpoints.

    Near x = 0 the supplied 1-x rounds to 1.0 and would zero the logarithm,
    so the log1p channel takes over; near x = 1 the supplied distance is the
    exact one the node generator produced.
    """
    return math.log1p(-x) if x < 0.5 else math.log(omx)


class QuadratureResult(tuple):
    __slots__ = ()
    value = property(itemgetter(0))
    error_estimate = property(itemgetter(1))
    evaluations = property(itemgetter(2))

    def __new__(cls, value: float, error_estimate: float, evaluations: int):
        return tuple.__new__(cls, (value, error_estimate, evaluations))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return (f"QuadratureResult(value={self.value!r}, "
                f"error_estimate={self.error_estimate!r}, evaluations={self.evaluations!r})")


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


# Node geometry is integrand-independent; cache it per level.
# Level 0 holds all integer t in [-T_MAX, T_MAX]; level L >= 1 holds the
# odd multiples of 2^-L.
@cache
def _level_nodes(level: int) -> tuple[tuple[float, float, float], ...]:
    h = 0.5 ** level
    n = int(_T_MAX / h)
    nodes = []
    for k in range(-n, n + 1):
        if level and not k % 2:
            continue
        x, omx, w = _node(k * h)
        # nodes closer than 1e-300 to an endpoint carry weights below
        # any tolerance this module supports; dropping them keeps
        # downstream coordinate transforms clear of subnormals
        if x > 1e-300 and omx > 1e-300 and w > 0.0:
            nodes.append((x, omx, w))
    return tuple(nodes)


def integrate01(ev: Callable[[float, float], float], tol: float,
                _allow_split: bool = True) -> QuadratureResult:
    """Integrate ev(x, 1-x) over (0, 1) to absolute tolerance tol (tol >= 1e-13)."""
    if tol < _MIN_TOL:
        raise DomainError(f"tolerance below supported floor {_MIN_TOL}")

    total_g = 0.0
    evals = 0
    prev_value = None
    prev_delta = math.inf
    stalls = 0
    value = 0.0
    for level in range(_MAX_LEVEL + 1):
        parts = [w * ev(x, omx) for x, omx, w in _level_nodes(level)]
        evals += len(parts)
        total_g += math.fsum(parts)
        h = 0.5 ** level
        value = h * total_g
        if prev_value is not None and level >= 2:
            delta = abs(value - prev_value)
            if delta <= max(tol, 4e-16 * (1.0 + abs(value))):
                return QuadratureResult(value, max(delta, 2e-16 * abs(value)), evals)
            if delta >= prev_delta:
                stalls += 1
                if stalls >= 2:
                    break
            prev_delta = delta
        prev_value = value

    if _allow_split:
        # Bisect at 1/2; each half keeps exact endpoint distances.
        left = integrate01(lambda u, omu: 0.5 * ev(0.5 * u, 1.0 - 0.5 * u),
                           max(tol / 2, _MIN_TOL), _allow_split=False)
        right = integrate01(lambda v, omv: 0.5 * ev(1.0 - 0.5 * v, 0.5 * v),
                            max(tol / 2, _MIN_TOL), _allow_split=False)
        return QuadratureResult(
            left.value + right.value,
            left.error_estimate + right.error_estimate,
            evals + left.evaluations + right.evaluations)

    raise ConvergenceError("tanh-sinh refinement stalled before reaching tolerance",
                           partial=value)
