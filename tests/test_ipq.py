import math
from fnmatch import fnmatch
from fractions import Fraction

import pytest

from polylog import ipq, special
from polylog.closedform import ClosedForm, LN2, PI, eta_factor_closed, zeta_closed
from polylog.errors import CapacityError, DomainError
from polylog.eulersums import c_sum, jordan_nielsen, milgram, s_minus, s_plus
from polylog.ipq import Family, ipq_final, ipq_numeric, ipq_series, r_value
from polylog.quadrature import ORACLE_TOL, integrate01
from polylog.seriesring import MAX_WEIGHT, kolbig_snp
from polylog.sigma import cf_num, sigma_tilde
from polylog.special import li_neg, li_pos
from polylog.verify import (_nielsen_display, _r_sum, _recurrence_shift, _reduction_route,
                            run_suite)

from conftest import clear_package_caches, deadline, pointwise, sigma_atoms, zeta_brute


def _pi_pow(e, c):
    return ClosedForm.atom(PI, e, Fraction(c))


# -- R values -----------------------------------------------------------------


def test_r_values():
    assert r_value(Family.PLUS, 2, 3) == zeta_closed(2) * zeta_closed(3)
    assert r_value(Family.MINUS, 1, 1) == ClosedForm.atom(LN2, 2)
    expected = Fraction(-1, 6) * ClosedForm.atom(PI, 2) * ClosedForm.atom(LN2)
    assert r_value(Family.MIXED, 2, 1) == expected


def test_r_value_divergent_slots():
    with pytest.raises(DomainError):
        r_value(Family.PLUS, 1, 3)
    with pytest.raises(DomainError):
        r_value(Family.PLUS, 3, 1)
    with pytest.raises(DomainError):
        r_value(Family.MIXED, 1, 2)
    r_value(Family.MIXED, 2, 1)  # eta slot admits order 1
    r_value(Family.MINUS, 1, 1)


def test_r_value_is_held_to_the_weight_cap():
    # weight p+q above MAX_WEIGHT fails before any zeta value is built, also
    # through the R sum of a shift far beyond the cap
    assert 10 + 10 > MAX_WEIGHT
    for fam in Family:
        with pytest.raises(CapacityError):
            r_value(fam, 10, 10)
    with pytest.raises(CapacityError):
        _recurrence_shift(Family.PLUS, 2, 400, 300, zeta_closed(3))
    assert r_value(Family.PLUS, 2, MAX_WEIGHT - 2) == zeta_closed(2) * zeta_closed(MAX_WEIGHT - 2)


# -- quadrature oracle -----------------------------------------------------------


def test_numeric_examples():
    # antiderivative: I(1,2) families with equal signs are Li_2(+-1)^2 / 2
    assert ipq_numeric(Family.PLUS, 1, 2) == pytest.approx(
        0.5 * zeta_brute(2) ** 2, abs=1e-11)
    assert ipq_numeric(Family.MINUS, 1, 2) == pytest.approx(
        0.5 * (math.pi ** 2 / 12) ** 2, abs=1e-11)
    assert ipq_numeric(Family.PLUS, 2, 3) == pytest.approx(
        0.5 * zeta_brute(3) ** 2, abs=1e-11)
    # past p = 171, where (p-1)! overflows a float, Li_200(t) is t to the
    # last bit: I+(200,1) is the integral of -ln(1-t), 1
    assert ipq_numeric(Family.PLUS, 200, 1) == pytest.approx(1.0, abs=1e-11)


def test_numeric_symmetry():
    for fam in (Family.PLUS, Family.MINUS):
        for (p, q) in ((1, 2), (1, 4), (2, 3), (3, 4)):
            a = ipq_numeric(fam, p, q)
            b = ipq_numeric(fam, q, p)
            assert abs(a - b) <= 2e-11


# -- difference-equation machinery ---------------------------------------------


def test_recurrence_shift_single_step_is_the_basic_relation():
    base = ipq_final(Family.PLUS, 1, 4)
    shifted = _recurrence_shift(Family.PLUS, 1, 4, 1, base)
    # I(2,3) = R(2,4) - I(1,4)
    assert shifted == r_value(Family.PLUS, 2, 4) - base


def test_recurrence_shift_reaches_known_value():
    base = ipq_final(Family.PLUS, 1, 4)
    shifted = _recurrence_shift(Family.PLUS, 1, 4, 1, base)
    assert shifted == Fraction(1, 2) * r_value(Family.PLUS, 3, 3)


def test_closed_odd_examples():
    assert _reduction_route(Family.PLUS, 2, 3) == Fraction(1, 2) * r_value(Family.PLUS, 3, 3)
    expected = (Fraction(-1, 2) * r_value(Family.PLUS, 3, 3)
                + r_value(Family.PLUS, 2, 4))
    assert _reduction_route(Family.PLUS, 1, 4) == expected
    # I-(2,3) = (9/32) zeta(3)^2
    assert _reduction_route(Family.MINUS, 2, 3) == \
        Fraction(9, 32) * zeta_closed(3) * zeta_closed(3)


def test_final_closed_examples():
    assert ipq_final(Family.PLUS, 1, 2) == _pi_pow(4, Fraction(1, 72))
    assert ipq_final(Family.PLUS, 2, 3) == \
        Fraction(1, 2) * zeta_closed(3) * zeta_closed(3)
    # the weight-3 mixed value is the alternating sum S-(3), fully closed
    assert ipq_final(Family.MIXED, 1, 2) == s_minus(3)


def test_reduction_examples_weights_5_and_6():
    for fam in (Family.PLUS, Family.MINUS):
        assert ipq_final(fam, 1, 4) == \
            Fraction(-1, 2) * r_value(fam, 3, 3) + r_value(fam, 2, 4)
        assert ipq_final(fam, 2, 3) == Fraction(1, 2) * r_value(fam, 3, 3)
        assert ipq_final(fam, 1, 5) == \
            ipq_final(fam, 3, 3) + r_value(fam, 2, 5) - r_value(fam, 3, 4)
        assert ipq_final(fam, 2, 4) == -ipq_final(fam, 3, 3) + r_value(fam, 3, 4)


def test_pair_residual_is_exactly_zero():
    for fam in Family:
        for p in range(2, 5):
            for q in range(2, 5):
                res = (ipq_final(fam, p, q - 1) + ipq_final(fam, p - 1, q)
                       - r_value(fam, p, q))
                assert res.is_zero, (fam, p, q)


def test_reduction_route_equals_ipq_final_to_the_ceiling():
    # every I(p,q) of weight p+q+1 <= MAX_WEIGHT: the telescoping solution
    # exists except for the mixed family with q < p, and then equals ipq_final
    for fam in Family:
        for p in range(1, MAX_WEIGHT):
            for q in range(1, MAX_WEIGHT - p):
                route = _reduction_route(fam, p, q)
                assert (route is None) == (fam is Family.MIXED and q < p), (fam, p, q)
                if route is not None:
                    assert route == ipq_final(fam, p, q), (fam, p, q)


def _final_sum_form_reference(family, p, q):
    # the named-sum display summed directly: the mu-loop over every mu <= p,
    # and the minus family's prefix and bracket built per (p, q)
    r = p + q
    mu_sum = ClosedForm.zero()
    for mu in range(2, p + 1):
        term = zeta_closed(mu) * zeta_closed(r + 1 - mu)
        if family is not Family.PLUS:
            term = Fraction(1 - 2 ** (r - mu), 2 ** (r - mu)) * term
        if family is Family.MINUS:
            term = Fraction(1 - 2 ** (mu - 1), 2 ** (mu - 1)) * term
        mu_sum = mu_sum + Fraction((-1) ** mu) * term
    mu_sum = Fraction((-1) ** p) * mu_sum
    if family is Family.PLUS:
        return mu_sum + Fraction((-1) ** (p + 1)) * s_plus(r)
    if family is Family.MIXED:
        return mu_sum + Fraction((-1) ** (p + 1)) * s_minus(r)
    prefix = Fraction(2 * (-1) ** p) * (
        ClosedForm.atom(LN2) * Fraction(1 - 2 ** r, 2 ** r) * zeta_closed(r)
        + (1 - Fraction(1, 2 ** (r + 1))) * zeta_closed(r + 1))
    bracket = s_minus(r) - 2 * c_sum(r) + 2 * jordan_nielsen("J1", r)
    return prefix + mu_sum + Fraction((-1) ** p) * bracket


def test_ipq_final_equals_the_direct_mu_loop_to_the_ceiling():
    for fam in Family:
        for p in range(1, MAX_WEIGHT):
            for q in range(1, MAX_WEIGHT - p):
                assert ipq_final(fam, p, q) == _final_sum_form_reference(fam, p, q), (fam, p, q)


def _final_nielsen_form_reference(family, p, q):
    # the Nielsen display folded one operator at a time
    r = p + q
    sign = Fraction((-1) ** p)
    mu_sum = ipq._mu_sum(family, p, q)
    if family is Family.PLUS:
        return sign * (mu_sum * sign - zeta_closed(r + 1) - kolbig_snp(r - 1, 2))
    if family is Family.MIXED:
        return sign * (mu_sum * sign - Fraction(1 - 2 ** r, 2 ** r) * zeta_closed(r + 1)
                       - sigma_tilde(r - 1, 2))
    body = (mu_sum * sign
            + Fraction(2) * (ClosedForm.atom(LN2) * Fraction(1 - 2 ** r, 2 ** r) * zeta_closed(r))
            + Fraction(2) * (1 - Fraction(1, 2 ** (r + 1))) * zeta_closed(r + 1)
            + (1 - Fraction(1, 2 ** r)) * kolbig_snp(r - 1, 2)
            - zeta_closed(r + 1)
            - 2 * milgram(r))
    return sign * body


def test_nielsen_display_and_r_sums_equal_the_operator_folds_to_the_ceiling():
    for fam in Family:
        for p in range(1, MAX_WEIGHT):
            for q in range(1, MAX_WEIGHT - p):
                assert _nielsen_display(fam, p, q) == \
                    _final_nielsen_form_reference(fam, p, q), (fam, p, q)
                # the longest telescoping sum in reach, n = q - 1
                r_sum = ClosedForm.zero()
                for k in range(q - 1):
                    r_sum = r_sum + Fraction((-1) ** k) * r_value(fam, p + k + 1, q - k)
                assert _r_sum(fam, p, q, q - 1) == r_sum, (fam, p, q)


def test_grid_closed_vs_numeric():
    for fam in Family:
        for p in range(1, 5):
            for q in range(1, 5):
                closed_value = cf_num(ipq_final(fam, p, q))
                numeric = ipq_numeric(fam, p, q)
                assert abs(closed_value - numeric) <= 1e-8, (fam, p, q)


def test_sigma_atoms_appear_only_at_open_orders():
    assert sigma_atoms(ipq_final(Family.MIXED, 1, 2)) == []       # weight 3
    assert sigma_atoms(ipq_final(Family.MIXED, 2, 2)) == []       # even weight
    assert [a.name for a in sigma_atoms(ipq_final(Family.MIXED, 1, 4))] == ["sigma_4_2"]
    for p in range(1, 5):
        for q in range(1, 5):
            assert sigma_atoms(ipq_final(Family.PLUS, p, q)) == []
            assert sigma_atoms(ipq_final(Family.MINUS, p, q)) == []


def test_series_route():
    for fam in Family:
        for (p, q) in ((1, 2), (2, 2), (2, 3)):
            sv = ipq_series(fam, p, q)
            nv = ipq_numeric(fam, p, q)
            assert abs(sv - nv) <= 1e-9, (fam, p, q)


def test_low_order_extensions():
    # the q = 0 mixed/minus integrals, -I(p,0) = integral Li_p(+-t)/(1+t),
    # integrated by parts: Li_p(+-1) ln 2 + I(p-1,1) in the same family
    ln2 = ClosedForm.atom(LN2)
    for p in (2, 3, 4):
        direct = integrate01(pointwise(lambda x, omx, p=p: li_pos(p, x, omx) / (1 + x)),
                             1e-12).value
        closed = zeta_closed(p) * ln2 + ipq_final(Family.MIXED, p - 1, 1)
        assert abs(cf_num(closed) - direct) <= 1e-10
        direct = integrate01(pointwise(lambda x, omx, p=p: li_neg(p, x, omx) / (1 + x)),
                             1e-12).value
        closed = eta_factor_closed(p) * ln2 + ipq_final(Family.MINUS, p - 1, 1)
        assert abs(cf_num(closed) - direct) <= 1e-10


def test_shift_solution_matches_iteration_randomized():
    from hypothesis import given, strategies as st

    @given(st.sampled_from(list(Family)), st.integers(1, 3), st.integers(2, 4),
           st.integers(1, 3))
    def inner(family, p, q, n):
        if q - n < 1:
            return  # every R slot along the path then stays in range
        base = ipq_final(family, p, q)
        stepped = base
        for k in range(n):
            stepped = _recurrence_shift(family, p + k, q - k, 1, stepped)
        assert _recurrence_shift(family, p, q, n, base) == stepped

    inner()


def test_family_parse():
    assert Family.parse("PLUS") is Family.PLUS
    with pytest.raises(DomainError):
        Family.parse("other")


def test_low_order_report():
    entries = [e for e in run_suite("ipq").entries
               if fnmatch(e.identity_id, "ipq.low-order.*.p3")]
    assert [e.status for e in entries] == ["pass"] * 8


# -- shared node values --------------------------------------------------------

_GRID = [(fam, p, q) for fam in Family for p in range(1, 5) for q in range(1, 5)]


def test_ipq_numeric_equals_direct_integrand_bit_for_bit():
    # the integrand as written before the node values were shared
    for fam, p, q in _GRID:
        if fam is Family.PLUS:
            ev = lambda x, omx: li_pos(p, x, omx) * li_pos(q, x, omx) / x
        elif fam is Family.MINUS:
            ev = lambda x, omx: li_neg(p, x, omx) * li_neg(q, x, omx) / x
        else:
            ev = lambda x, omx: li_pos(p, x, omx) * li_neg(q, x, omx) / x
        assert ipq_numeric(fam, p, q) == integrate01(pointwise(ev), ORACLE_TOL).value, (fam, p, q)


def test_node_cache_holds_each_node_once_and_is_reused(monkeypatch):
    # the node cache is the Li columns: each (order, sign, grid) column is
    # built once, li_pos meets each node once (Li_p(-t) at t > 1/2 reads the
    # plus column), and the 48 integrals reuse the columns
    asked = []

    def recording(p, sign, grid):
        asked.append((p, sign, grid))
        return special.li_column(p, sign, grid)

    evaluated = []
    kernel = special.li_pos

    def counted(p, x, omx):
        evaluated.append((p, x, omx))
        return kernel(p, x, omx)

    monkeypatch.setattr(ipq, "li_column", recording)
    monkeypatch.setattr(special, "li_pos", counted)
    ipq_numeric.cache_clear()
    special.li_column.cache_clear()
    for fam, p, q in _GRID:
        ipq_numeric(fam, p, q)
    info = special.li_column.cache_info()
    assert info.misses == info.currsize >= len(set(asked))
    assert evaluated and len(evaluated) == len(set(evaluated))
    assert len(asked) >= 5 * len(set(asked))


# ipq_numeric on the grid above, row by row (p = 1..4, then q = 1..4), pinned
# bit for bit as tanh-sinh stops at the first level whose projected next
# change is below 2^-52 of its value, or whose change meets ORACLE_TOL
_GRID_VALUES = {
    "plus": [
        2.4041138063191885, 1.3529040421389227, 1.1334789151328137, 1.0578799592559687,
        1.3529040421389227, 0.8438254351644824, 0.7224703992168171, 0.6789725835963681,
        1.1334789151328137, 0.7224703992168171, 0.6220415309361205, 0.5857117911154675,
        1.0578799592559687, 0.6789725835963681, 0.5857117911154675, 0.5518761933074291,
    ],
    "minus": [
        0.3005142257898985, 0.33822601053473067, 0.36024660847834444, 0.37251368227238424,
        0.33822601053473067, 0.38124252288314153, 0.40638959955945964, 0.4204094279038063,
        0.36024660847834444, 0.40638959955945964, 0.4333810847581394, 0.4484355900727799,
        0.37251368227238424, 0.4204094279038063, 0.4484355900727799, 0.4640707888044533,
    ],
    "mixed": [
        -0.7512855644747463, -0.8592471579285905, -0.9231833733969403, -0.9591519425043182,
        -0.49365688421033205, -0.5597948893260318, -0.5986546211593695, -0.6203954412896745,
        -0.4288572858226162, -0.4850509776658561, -0.517991908926253, -0.5363918220462836,
        -0.4051242015705368, -0.4577686769731134, -0.48860381240578465, -0.505817724675834,
    ],
}


def test_ipq_numeric_values_are_unchanged_and_memoized():
    ipq_numeric.cache_clear()
    assert [ipq_numeric(fam, p, q) for fam, p, q in _GRID] == \
        [v for fam in Family for v in _GRID_VALUES[fam.value]]
    assert ipq_numeric(Family.MIXED, 2, 3) == _GRID_VALUES["mixed"][6]
    info = ipq_numeric.cache_info()
    assert (info.misses, info.hits) == (len(_GRID), 1)


# the same grid to 30 digits (mpmath quadratures of the defining integral at
# 55 digits, which agree with 45-digit ones to 3e-31).  The Li_p columns read
# correctly rounded zeta(k), so every cell is within 3e-16 relative; the
# quadrature of 30-digit integrand values at the same nodes is within 3e-17
# of each.
_GRID_REFERENCES = {
    "plus": (
        2.40411380631918857079947632302, 1.35290404213892273939500462068,
        1.13347891513281366079701101789, 1.05787995925596887754356383773,
        1.35290404213892273939500462068, 0.843825435164482457400074423599,
        0.722470399216817116956842539403, 0.678972583596368147769171440532,
        1.13347891513281366079701101789, 0.722470399216817116956842539403,
        0.622041530936120426385239733684, 0.585711791115467531304233055797,
        1.05787995925596887754356383773, 0.678972583596368147769171440532,
        0.585711791115467531304233055797, 0.551876193307429148775428811443,
    ),
    "minus": (
        0.300514225789898571349934540378, 0.338226010534730684848751155169,
        0.360246608478344502403168788804, 0.372513682272384244305703861582,
        0.338226010534730684848751155169, 0.381242522883141541920738251753,
        0.406389599559459628288223928414, 0.420409427903806279396404677468,
        0.360246608478344502403168788804, 0.406389599559459628288223928414,
        0.433381084758139347392427655612, 0.448435590072779828654803433344,
        0.372513682272384244305703861582, 0.420409427903806279396404677468,
        0.448435590072779828654803433344, 0.464070788804453218048655346075,
    ),
    "mixed": (
        -0.751285564474746428374836350945, -0.859247157928590615539909939476,
        -0.923183373396940242574912394913, -0.959151942504318157165421137482,
        -0.493656884210332123855094681201, -0.559794889326031846072901686201,
        -0.59865462115936958802243444251, -0.62039544128967449715854545363,
        -0.428857285822616213025641034541, -0.485050977665856087412829366595,
        -0.517991908926253005226564323809, -0.536391822046283552670497793839,
        -0.405124201570536909837373821972, -0.457768676973113425389244056853,
        -0.488603812405784627111910053805, -0.505817724675834038299638059964,
    ),
}


def test_ipq_numeric_grid_against_30_digit_references():
    references = (r for fam in Family for r in _GRID_REFERENCES[fam.value])
    for (fam, p, q), ref in zip(_GRID, references):
        # the worst cell is 3.0e-16 off; the I(2,2) were 1.14e-15 to 1.22e-15
        # off while the zeta(k) of the log expansion of Li_p were not
        # correctly rounded
        assert abs(ipq_numeric(fam, p, q) - ref) <= 1e-15 * abs(ref), (fam, p, q)


# -- orders past the caps and the float range --------------------------------


@pytest.mark.parametrize("family, p, q", [
    (Family.MINUS, 10 ** 5, 1),    # took 2.2 s
    (Family.PLUS, 10 ** 8, 3),     # ran past a 2 s alarm
    (Family.MIXED, 3, 10 ** 400),  # raised OverflowError
    (Family.PLUS, 9, 9),
], ids=["minus-1e5", "plus-1e8", "mixed-q1e400", "plus-weight19"])
def test_ipq_series_holds_its_weight_to_the_ceiling(family, p, q):
    # it evaluates ipq_final's display in floats, under ipq_final's cap
    clear_package_caches()
    with deadline(0.5, f"ipq_series{(family, p, q)}"), \
            pytest.raises(CapacityError, match=f"weight {p + q + 1} above cap {MAX_WEIGHT}"):
        ipq_series(family, p, q)


def test_ipq_numeric_past_the_float_order():
    # Li_p(t) is t from FLOAT_ORDER on: an order past the float range is read
    # as one inside it, bit for bit; I+(p, 3) is then the integral of Li_3
    for family in Family:
        assert ipq_numeric(family, 10 ** 400, 3) == ipq_numeric(family, 2000, 3), family
        assert ipq_numeric(family, 3, 10 ** 400) == ipq_numeric(family, 3, 2000), family
    assert ipq_numeric(Family.PLUS, 10 ** 400, 3) == pytest.approx(
        zeta_brute(3) - math.pi ** 2 / 6 + 1, abs=1e-12)
