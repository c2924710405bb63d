import math
import sys
import threading
import time
from operator import mul

import pytest
from hypothesis import given, strategies as st

from polylog import quadrature, special
from polylog.errors import ConvergenceError, DomainError
from polylog.ipq import Family, ipq_numeric
from polylog.lognm import lognm_numeric
from polylog.quadrature import QuadratureResult, integrate01, log1m, log_power, nodes
from polylog.special import li_column, mpl2, nielsen_num

from conftest import assert_frozen_value, clear_package_caches, pointwise, zeta_brute

# Expected values below come from elementary series or antiderivatives
# computed inline, never through the quadrature under test.


def test_constant():
    r = integrate01(pointwise(lambda x, omx: 1.0), 1e-12)
    assert abs(r.value - 1.0) <= 1e-14
    assert r.evaluations > 0


def test_result_is_a_frozen_value():
    r = integrate01(pointwise(lambda x, omx: x * x), 1e-12)
    twin = QuadratureResult(r.value, r.error_estimate, r.evaluations)
    assert twin is not r and twin == r and hash(twin) == hash(r)
    assert twin != QuadratureResult(r.value, r.error_estimate, r.evaluations + 1)
    assert_frozen_value(r, "evaluations")


def test_log_times_log():
    r = integrate01(pointwise(lambda x, omx: math.log(x) * math.log(omx)), 1e-12)
    expected = 2.0 - zeta_brute(2)
    assert abs(r.value - expected) <= 1e-12
    assert abs(r.value - expected) <= max(1e-12, r.error_estimate)


def test_log_power_singularities():
    # integral ln^n(x) dx = (-1)^n n!
    for n in (1, 2, 3, 5):
        r = integrate01(pointwise(lambda x, omx, n=n: math.log(x) ** n), 1e-12)
        assert abs(r.value - (-1.0) ** n * math.factorial(n)) <= 1e-11


def test_symmetric_pair():
    # integral ln(1-x) dx = -1, via the 1-x channel
    r = integrate01(pointwise(lambda x, omx: math.log(omx)), 1e-12)
    assert abs(r.value + 1.0) <= 1e-13


def test_one_minus_x_is_exact_near_endpoint():
    # f = ln(1-x)/(1-x)^0.5-free check: record that omx is not 1-x rounded
    seen = []

    def ev(x, omx):
        seen.append((x, omx))
        return 1.0

    integrate01(pointwise(ev), 1e-12)
    xs = [x for x, _ in seen]
    omxs = [omx for _, omx in seen]
    assert min(xs) < 1e-50 and min(omxs) < 1e-50  # nodes hug both endpoints
    # and away from the endpoints the pair agrees with plain subtraction
    for x, omx in seen:
        if 0.25 < x < 0.75:
            assert abs(omx - (1.0 - x)) <= 3e-16


def test_mixed_log_integrand():
    # integral ln^2(x) ln(1+x)/(1+x) dx: reference by termwise integration of
    # ln(1+x)/(1+x) = sum_{k>=1} (-1)^{k+1} H_k x^k; adjacent partial sums of
    # the alternating series are averaged to kill the oscillating remainder
    h = 0.0
    partial = 0.0
    prev = 0.0
    for k in range(1, 40001):
        h += 1.0 / k
        prev = partial
        partial += (-1.0) ** (k + 1) * h * (2.0 / (k + 1) ** 3)
    expected = 0.5 * (partial + prev)
    r = integrate01(pointwise(lambda x, omx: math.log(x) ** 2 * math.log1p(x) / (1 + x)), 1e-12)
    assert abs(r.value - expected) <= 1e-11


def test_tolerance_floor():
    with pytest.raises(DomainError):
        integrate01(pointwise(lambda x, omx: 1.0), 1e-14)


@given(st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(a, b):
    f = pointwise(lambda x, omx: math.log(x))
    g = pointwise(lambda x, omx: math.log(omx))
    combo = pointwise(lambda x, omx: a * math.log(x) + b * math.log(omx))
    rf = integrate01(f, 1e-12)
    rg = integrate01(g, 1e-12)
    rc = integrate01(combo, 1e-12)
    budget = abs(a) * rf.error_estimate + abs(b) * rg.error_estimate \
        + rc.error_estimate + 1e-13 * (1 + abs(a) + abs(b))
    assert abs(rc.value - (a * rf.value + b * rg.value)) <= budget


def test_determinism():
    f = pointwise(lambda x, omx: math.log(x) ** 2 * math.log(omx))
    r1 = integrate01(f, 1e-12)
    r2 = integrate01(f, 1e-12)
    assert r1.value == r2.value and r1.evaluations == r2.evaluations


def test_result_record():
    r = integrate01(pointwise(lambda x, omx: x * omx), 1e-12)
    assert isinstance(r, QuadratureResult)
    assert abs(r.value - 1.0 / 6.0) < 1e-13
    assert r.error_estimate >= 0.0


def test_discontinuous_integrand_raises_with_partial():
    # a jump at an irrational point defeats the double-exponential rule;
    # the error must carry a usable partial
    f = pointwise(lambda x, omx: 1.0 if x < 0.43721 else 0.0)
    with pytest.raises(ConvergenceError) as exc:
        integrate01(f, 1e-13)
    assert exc.value.partial is not None
    assert abs(exc.value.partial - 0.43721) < 1e-2


def test_non_finite_integrand_fails_fast():
    # a NaN or an infinity in the first level's sum ends the rule there,
    # instead of twelve levels of NaN ending as a stall
    for bad in (math.nan, math.inf):
        levels = []

        def values(level, bad=bad):
            levels.append(level)
            return (bad if x > 0.9 else 1.0 for x in nodes(level)[0])
        with pytest.raises(ConvergenceError, match="level 0 sum is .*not finite"):
            integrate01(values, 1e-12)
        assert levels == [0]


def test_stops_once_the_projected_change_is_below_an_ulp():
    # ln^2 x ln^2(1-x): level 3 moves level 2 by 8.8e-12, more than the
    # tolerance, but after a change of 1.3e-4 the next is projected at 6e-19,
    # below 2^-52 of the value, so the rule returns level 3 and never
    # computes level 4 (whose change is 0.0)
    levels = []

    def values(level):
        levels.append(level)
        return map(mul, log_power("x", 2, level), log_power("1-x", 2, level))
    r = integrate01(values, 1e-12)
    assert levels == [0, 1, 2, 3]
    assert r.evaluations == sum(len(nodes(level)[2]) for level in levels)
    assert r.error_estimate <= 2.0 ** -52 * abs(r.value)


@given(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))
def test_split_agrees_with_direct_on_log_class(a, b, c, d):
    # log-power integrand class: integrate directly and as two half-interval
    # problems (disjoint node sets); both must land on the same value
    from polylog.quadrature import log1m

    def f(x, omx):
        v = math.log(x) ** a * log1m(x, omx) ** b
        v /= (1.0 + x) ** c
        v *= omx ** (0.5 * d)
        return v

    whole = integrate01(pointwise(f), 1e-12).value
    left = integrate01(pointwise(lambda u, omu: 0.5 * f(0.5 * u, 1.0 - 0.5 * u)),
                       1e-12).value
    right = integrate01(pointwise(lambda v, omv: 0.5 * f(1.0 - 0.5 * v, 0.5 * v)),
                        1e-12).value
    scale = 1.0 + abs(whole)
    assert abs(whole - (left + right)) <= 5e-12 * scale


def test_level_cache_is_thread_safe():
    f = pointwise(lambda x, omx: math.log(x) * math.log(omx))
    expected = integrate01(f, 1e-12)
    results = [None] * 8

    def work(slot):
        results[slot] = integrate01(f, 1e-12)

    interval = sys.getswitchinterval()
    nodes.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
    assert integrate01(f, 1e-12) == expected


# -- the oracle integrals on the whole interval --------------------------------


def test_every_log_and_nielsen_integral_converges():
    # the high powers of ln(1-x) once stalled the whole-interval rule
    for tag in ("INM", "HNM"):
        for n in range(41):
            for m in range(max(0, 1 - n), 41 - n):
                assert math.isfinite(lognm_numeric(tag, n, m)), (tag, n, m)
    for n in range(1, 24):
        for p in range(1, 25 - n):
            assert math.isfinite(nielsen_num(n, p, 1.0)), (n, p)


# 30-digit values of i(n,m) = int ln^n(x) ln^m(1-x) dx and of S_{n,p}(1),
# from 40-digit quadratures split at 1/2
_HIGH_ORDER_REFERENCES = [
    (lambda: lognm_numeric("INM", 1, 13), 380726.150392953304919587329559),
    (lambda: lognm_numeric("INM", 4, 29), -9574896185.72106006938064656079),
    (lambda: lognm_numeric("INM", 1, 39), 1.8551766519133408806363655848e34),
    (lambda: nielsen_num(2, 13, 1.0), 6.13559735172321420296963037375e-5),
    (lambda: nielsen_num(3, 17, 1.0), 1.3055416197559905291517549075e-9),
]


@pytest.mark.parametrize("value, reference", _HIGH_ORDER_REFERENCES)
def test_high_order_integrals_match_references(value, reference):
    assert abs(value() - reference) <= 1e-14 * abs(reference)


# -- cached node columns ---------------------------------------------------------


def test_log_columns_equal_the_scalar_kernels_bit_for_bit():
    for level in range(quadrature._MAX_LEVEL + 1):
        xs, omxs, _ = nodes(level)
        assert log_power("x", 1, level) == tuple(map(log1m, omxs, xs))
        # the rounded x near 1 has lost low bits of 1-x; ln x = log1p(-(1-x))
        assert all(lx == math.log1p(-omx)
                   for lx, omx in zip(log_power("x", 1, level), omxs) if omx < 0.5)
        assert log_power("1-x", 1, level) == tuple(map(log1m, xs, omxs))
        assert log_power("1+x", 1, level) == tuple(map(math.log1p, xs))
        for n in range(4):
            assert log_power("1-x", n, level) == tuple(log1m(x, omx) ** n
                                                       for x, omx in zip(xs, omxs))
    with pytest.raises(DomainError):
        log_power("2-x", 1, 0)


def _kink(x, omx):
    return abs(x - 0.5) * log1m(omx, x)


def test_columns_integrand_equals_the_pointwise_one_bit_for_bit():

    def kink_columns(level):
        xs = nodes(level)[0]
        return (abs(x - 0.5) * lx for x, lx in zip(xs, log_power("x", 1, level)))

    # the kink at 1/2 stalls the whole-interval rule, and there is no split
    # to fall back on: both integrands raise with the same usable partial
    exact = -0.125 - 0.25 * math.log(2.0)  # antiderivatives of ln x and x ln x
    with pytest.raises(ConvergenceError) as direct:
        integrate01(pointwise(_kink), 1e-12)
    with pytest.raises(ConvergenceError) as columns:
        integrate01(kink_columns, 1e-12)
    assert columns.value.partial == direct.value.partial
    assert abs(direct.value.partial - exact) < 2e-8
    # a smooth integrand converges, to the same bits both ways
    smooth = integrate01(lambda level: map(mul, log_power("x", 1, level), nodes(level)[1]), 1e-12)
    assert smooth == integrate01(pointwise(lambda x, omx: log1m(omx, x) * omx), 1e-12)
    assert abs(smooth.value + 0.75) < 1e-13


@pytest.mark.parametrize("level", [-1, 2.5, 12, 19, math.nan, math.inf])
def test_nodes_refuse_a_level_outside_the_grid_fast(level):
    # nodes(-1) used to return 3 nodes, nodes(2.5) 34, and nodes(19) took 7 s
    # (8x per level); the columns built on nodes inherit the check
    clear_package_caches()
    for call in (lambda: nodes(level), lambda: log_power("x", 2, level),
                 lambda: li_column(2, -1, level)):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="is not an integer in 0..11"):
            call()
        assert time.perf_counter() - start < 0.1
    assert len(nodes(2)[0]) == 24 and nodes(2.0) == nodes(2)


def test_node_columns_are_thread_safe():

    def work():
        return [ipq_numeric.__wrapped__(Family.MIXED, 2, 3),
                lognm_numeric("HNM", 2, 2), nielsen_num(2, 2, -1.0),
                mpl2(1, 3, -1.0, -1.0), mpl2(3, 1, 1.0, 1.0)]

    expected = work()
    results = [None] * 8

    def run(slot):
        results[slot] = work()

    interval = sys.getswitchinterval()
    for fn in (nodes, log_power, li_column, special._inverse_powers,
               special._tail_series, special._tail_block):
        fn.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
