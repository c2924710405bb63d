import math
from fractions import Fraction

import pytest

from polylog import digamma, eulersums, summation
from polylog.closedform import ClosedForm, LN2, PI, zeta_closed
from polylog.errors import DomainError
from polylog.eulersums import (c_sum, jordan_even, jordan_nielsen, milgram,
                               s_minus, s_plus, sum_oracle)
from polylog.seriesring import MAX_WEIGHT, kolbig_snp
from polylog.sigma import cf_num, sigma_tilde
from polylog.verify import _s_minus_decomposed

from conftest import li_half_brute, sigma_atoms, zeta_brute


def _pi_pow(e, c):
    return ClosedForm.atom(PI, e, Fraction(c))


def test_splus_values():
    assert s_plus(2) == 2 * zeta_closed(3)
    assert s_plus(3) == _pi_pow(4, Fraction(1, 72))
    assert s_plus(4) == 3 * zeta_closed(5) - zeta_closed(2) * zeta_closed(3)
    with pytest.raises(DomainError):
        s_plus(1)


def test_csum_values_and_dual():
    assert c_sum(2) == Fraction(1, 4) * zeta_closed(3)
    assert c_sum(3) == _pi_pow(4, Fraction(1, 1152))
    for r in range(2, 8):
        c_sum(r)  # the dual Nielsen display is asserted inside


def test_jordan_even_values():
    expected_j1 = (Fraction(-7, 16) * zeta_closed(3)
                   + ClosedForm.atom(LN2) * Fraction(3, 4) * zeta_closed(2))
    assert jordan_even("J1", 2) == expected_j1
    assert jordan_even("J2", 2) == Fraction(7, 16) * zeta_closed(3)
    with pytest.raises(DomainError):
        jordan_even("J1", 3)
    with pytest.raises(DomainError):
        jordan_even("JX", 2)


def test_milgram_values():
    expected = (Fraction(7, 8) * zeta_closed(3)
                - ClosedForm.atom(LN2) * Fraction(3, 4) * zeta_closed(2))
    assert milgram(2) == expected
    with pytest.raises(DomainError):
        milgram(1)
    for r in range(2, 9):
        milgram(r)  # simplified == unsimplified asserted inside


def test_jordan_odd_order3_closed_forms():
    ln2 = math.log(2.0)
    li4h = li_half_brute(4)
    j1 = (23 * math.pi ** 4 / 5760 + math.pi ** 2 * ln2 ** 2 / 24
          - ln2 ** 4 / 24 - li4h)
    j2 = (0.875 * ln2 * zeta_brute(3) - 53 * math.pi ** 4 / 5760
          - math.pi ** 2 * ln2 ** 2 / 24 + ln2 ** 4 / 24 + li4h)
    assert cf_num(jordan_nielsen("J1", 3)) == pytest.approx(j1, abs=1e-13)
    assert cf_num(jordan_nielsen("J2", 3)) == pytest.approx(j2, abs=1e-13)


def test_jordan_nielsen_matches_even():
    for which in ("J1", "J2"):
        for r in (2, 4, 6):
            assert jordan_nielsen(which, r) == jordan_even(which, r)


def test_sminus_values():
    assert s_minus(2) == Fraction(-5, 8) * zeta_closed(3)
    ln2 = math.log(2.0)
    expected3 = (1.75 * ln2 * zeta_brute(3) - 11 * math.pi ** 4 / 360
                 - math.pi ** 2 * ln2 ** 2 / 12 + ln2 ** 4 / 12
                 + 2 * li_half_brute(4))
    assert cf_num(s_minus(3)) == pytest.approx(expected3, abs=1e-13)
    # odd r >= 5 keeps the open sigma~ constant
    cf5 = s_minus(5)
    assert [a.name for a in sigma_atoms(cf5)] == ["sigma_4_2"]
    assert abs(cf_num(cf5) - sum_oracle("SMinus", 5)) <= 1e-10
    with pytest.raises(DomainError):
        s_minus(1)


def test_sminus_even_closed_route():
    # the Jordan decomposition through the even-order Jordan forms
    for r in (2, 4, 6, 8):
        cf = _s_minus_decomposed(r, jordan_even)
        assert not sigma_atoms(cf)
        assert cf == s_minus(r)
    for r in range(2, 9):
        assert _s_minus_decomposed(r, jordan_nielsen) == s_minus(r), r


def test_closed_vs_oracles():
    cases = [
        (s_plus, "SPlus"), (milgram, "Milgram"), (c_sum, "CSum"),
        (lambda r: jordan_nielsen("J1", r), "Jordan1"),
        (lambda r: jordan_nielsen("J2", r), "Jordan2"),
        (s_minus, "SMinus"),
    ]
    for fn, tag in cases:
        for r in (2, 3, 4):
            closed_value = cf_num(fn(r))
            oracle = sum_oracle(tag, r)
            assert abs(closed_value - oracle) <= 1e-10, (tag, r)


def test_decomposition_identity():
    for r in range(2, 9):
        lhs = sum_oracle("SMinus", r)
        rhs = (sum_oracle("Jordan2", r) - sum_oracle("Jordan1", r) + sum_oracle("CSum", r)
               - sum_oracle("Milgram", r)
               - (1 - 2.0 ** (-r - 1)) * zeta_brute(r + 1))
        assert abs(lhs - rhs) <= 1e-10, r


# -- the displays folded one operator at a time, as references -----------------


def _s_plus_reference(r):
    out = Fraction(r + 2, 2) * zeta_closed(r + 1)
    for mu in range(1, r - 1):
        out = out - Fraction(1, 2) * zeta_closed(mu + 1) * zeta_closed(r - mu)
    return out


def _jordan_even_reference(which, r):
    n = r // 2
    if which == "J1":
        out = Fraction(-1, 2) * (1 - Fraction(1, 2 ** (2 * n + 1))) * zeta_closed(2 * n + 1)
        out = out + ClosedForm.atom(LN2) \
            * (1 - Fraction(1, 2 ** (2 * n))) * zeta_closed(2 * n)
        for mu in range(1, n):
            out = out - Fraction(2 ** (2 * mu) - 1, 2 ** (2 * n + 1)) \
                * zeta_closed(2 * mu) * zeta_closed(2 * n + 1 - 2 * mu)
        return out
    out = Fraction(1, 2) * (1 - Fraction(1, 2 ** (2 * n + 1))) * zeta_closed(2 * n + 1)
    for mu in range(1, n):
        out = out - (Fraction(1, 2 ** (2 * mu)) - Fraction(1, 2 ** (2 * n + 1))) \
            * zeta_closed(2 * mu) * zeta_closed(2 * n + 1 - 2 * mu)
    return out


def _milgram_reference(r):
    out = Fraction(r, 2) * (1 - Fraction(1, 2 ** (r + 1))) * zeta_closed(r + 1) \
        - ClosedForm.atom(LN2) * (1 - Fraction(1, 2 ** r)) * zeta_closed(r)
    if r % 2:
        half = (r + 1) // 2
        if half >= 2:
            sq = (1 - Fraction(1, 2 ** half)) * zeta_closed(half)
            out = out - Fraction(1, 2) * sq * sq
    for mu in range(0, (r - 4 - r % 2) // 2 + 1):
        out = out - Fraction(2 ** (mu + 2) - 1, 2) \
            * zeta_closed(mu + 2) * (Fraction(1, 2 ** (mu + 1)) - Fraction(1, 2 ** r)) \
            * zeta_closed(r - 1 - mu)
    return out


def _jordan_nielsen_reference(which, r):
    s, sig = kolbig_snp(r - 1, 2), sigma_tilde(r - 1, 2)
    if which == "J1":
        return Fraction(1, 2) * (s - sig) - _milgram_reference(r)
    return Fraction(1, 2) * ((1 - Fraction(1, 2 ** r)) * s + sig)


def _s_minus_reference(r):
    return (Fraction(1, 2 ** r) - 1) * zeta_closed(r + 1) + sigma_tilde(r - 1, 2)


def test_sums_equal_the_operator_folds_to_the_ceiling():
    for r in range(2, MAX_WEIGHT):
        assert s_plus(r) == _s_plus_reference(r), r
        assert milgram(r) == _milgram_reference(r), r
        assert s_minus(r) == _s_minus_reference(r), r
        for which in ("J1", "J2"):
            assert jordan_nielsen(which, r) == _jordan_nielsen_reference(which, r), (which, r)
        if r % 2 == 0:
            j1, j2 = (_jordan_even_reference(which, r) for which in ("J1", "J2"))
            assert (jordan_even("J1", r), jordan_even("J2", r)) == (j1, j2), r
            assert _s_minus_decomposed(r, jordan_even) == (
                j2 - j1 + Fraction(1, 2 ** (r + 1)) * _s_plus_reference(r) - _milgram_reference(r)
                - (1 - Fraction(1, 2 ** (r + 1))) * zeta_closed(r + 1)), r


def test_even_closed_forms_vs_oracles():
    for r in (2, 4, 6):
        assert abs(cf_num(s_minus(r)) - sum_oracle("SMinus", r)) <= 1e-10
        for which, tag in (("J1", "Jordan1"), ("J2", "Jordan2")):
            assert abs(cf_num(jordan_even(which, r))
                       - sum_oracle(tag, r)) <= 1e-10


def test_sum_oracle_validates_and_memoizes():
    with pytest.raises(DomainError, match="order 1 is below its least value 2"):
        sum_oracle("SPlus", 1)
    with pytest.raises(DomainError, match="unknown sum tag 'Nope'"):
        sum_oracle("Nope", 3)
    # a repeated call finds the value cached under the same arguments
    sum_oracle("SMinus", 3)
    hits = sum_oracle.cache_info().hits
    sum_oracle("SMinus", 3)
    assert sum_oracle.cache_info().hits == hits + 1


def test_sminus_odd_general_vs_dropped_minus_one():
    # the general display keeps (2^-r - 1); dropping the -1 fails numerically
    oracle = sum_oracle("SMinus", 5)
    general = cf_num((Fraction(1, 32) - 1) * zeta_closed(6) + sigma_tilde(4, 2))
    variant = cf_num(Fraction(1, 32) * zeta_closed(6) + sigma_tilde(4, 2))
    assert abs(oracle - general) <= 1e-10
    assert abs(oracle - variant) > 1.0


# sum_oracle(tag, r) for r = 2..9 at ORACLE_TOL = 1e-12, pinned bit for bit
# as the sums are computed from 63 direct terms and the Euler-Maclaurin tail
# in closed form (the accuracy is checked against 30-digit references
# below).  The S- values come from the alternating acceleration, which that
# tail does not touch.
_ORACLE_VALUES = {
    "SPlus": [2.404113806319188, 1.3529040421389225, 1.1334789151328135, 1.0578799592559684,
              1.026705205699417, 1.0127278852975052, 1.0061786348715644, 1.0030322872352362],
    "SMinus": [-0.7512855644747463, -0.8592471579285903, -0.9231833733969401,
               -0.9591519425043179, -0.9786774861751244, -0.9890151059772536,
               -0.994392985052318, -0.9971564834064575],
    "Jordan1": [0.32923616284981694, 0.05944110386190105, 0.015687052544619478,
                0.004684241825317658, 0.0014750285940842434, 0.00047666952043205524,
                0.00015614597925012023, 5.153126868057102e-05],
    "Jordan2": [0.5258998951323224, 0.16227193947148333, 0.06972655477003625,
                0.032834634012450827, 0.015992725342619765, 0.00790042135818249,
                0.0039276322633898415, 0.0019583781963863167],
    "Milgram": [0.1966637322825054, 0.03195646456766354, 0.00812032892511785,
                0.0023846324138837353, 0.0007447686908100239, 0.0002396470916513964,
                7.831879884759425e-05, 2.5812689121708054e-05],
    "CSum": [0.3005142257898985, 0.08455650263368265, 0.03542121609790042,
             0.016529374363374507, 0.008021134419526696, 0.00395596830194338,
             0.0019651926462335243, 0.0009795237180031603],
}


def test_sum_oracle_values_are_unchanged_and_memoized():
    sum_oracle.cache_clear()
    for tag, values in _ORACLE_VALUES.items():
        assert [sum_oracle(tag, r) for r in range(2, 10)] == values, tag
    misses = sum_oracle.cache_info().misses
    assert [sum_oracle("SMinus", r) for r in range(2, 10)] == _ORACLE_VALUES["SMinus"]
    assert sum_oracle.cache_info().misses == misses


def test_sum_oracle_calls_the_psi_kernel_once_per_point(monkeypatch):
    kernel = digamma.psi
    assert not hasattr(kernel, "cache_info")  # the public kernel stays uncached
    calls = []

    def counted(x):
        calls.append(x)
        return kernel(x)

    digamma.euler_gamma()  # a cached constant, filled outside the count
    sum_oracle.cache_clear()
    digamma.psi_point.cache_clear()
    digamma.psi_table.cache_clear()
    monkeypatch.setattr(digamma, "psi", counted)
    for tag, values in _ORACLE_VALUES.items():
        assert [sum_oracle(tag, r) for r in range(2, 10)] == values, tag
    info = digamma.psi_point.cache_info()
    # one kernel call per distinct point, shared by every tag and order
    assert len(calls) == info.misses == len(set(calls))
    # the heads' digamma tables are built once and shared by every
    # order and by the tags with the same shift
    tables = digamma.psi_table.cache_info()
    assert tables.misses == tables.currsize
    assert tables.hits > 10 * tables.misses


def test_sum_oracle_direct_terms_equal_the_term_callable(monkeypatch):
    # each monotone sum hands sum_tail a head; its terms below the cutoff
    # must be the defining term, written here with the psi kernel, bit for bit
    heads = []
    tail = summation.sum_tail

    def capturing(head, tail_expansion):
        heads.append(head)
        return tail(head, tail_expansion)

    monkeypatch.setattr(eulersums, "sum_tail", capturing)
    sum_oracle.cache_clear()
    cases = [(tag, r) for tag in eulersums._MONOTONE for r in range(2, 10)]
    for tag, r in cases:
        assert sum_oracle(tag, r) == _ORACLE_VALUES[tag][r - 2], (tag, r)
    assert len(heads) == len(cases) == 5 * 8
    for (tag, r), head in zip(cases, heads):
        scale, shift, step, offset = eulersums._MONOTONE[tag]

        def term(k):
            y = step * k + offset
            return scale * (digamma.psi(k + shift) - digamma.psi(shift)) * y ** -float(r)
        assert list(head(64)) == [term(k) for k in range(1, 64)], (tag, r)


# the five monotone sums at r = 2, 3, 5, 9, 17 to 30 digits (mpmath at 50
# digits: direct terms, the integral of the tail by quadrature and the
# Euler-Maclaurin corrections from the polygamma derivatives; the S+ values
# equal Euler's closed form to every printed digit)
_ORACLE_ORDERS = (2, 3, 5, 9, 17)
_ORACLE_REFERENCES = {
    "SPlus": (2.40411380631918857079947632302, 1.35290404213892273939500462068,
              1.05787995925596887754356383773, 1.00303228723523658254841306744,
              1.00001145841267430202032049281),
    "Jordan1": (0.329236162849817068243549448583, 0.0594411038619010762765559288921,
                0.00468424182531766003951015078374, 0.0000515312686805710479631412839839,
                0.00000000774527869737229952817733999602),
    "Jordan2": (0.525899895132322499862385445661, 0.162271939471483390715359551808,
                0.0328346340124508464774531651598, 0.0019583781963863172239593290627,
                0.0000076294722328146049738812302523),
    "Milgram": (0.196663732282505431618835997078, 0.0319564645676635466446478856766,
                0.00238463241388373540850374968463, 0.0000258126891217080631617601525266,
                0.00000000387274923288621147875433953282),
    "CSum": (0.300514225789898571349934540378, 0.0845565026336826712121877887923,
             0.0165293743633745137116181849645, 0.000979523718003160725144934636167,
             0.00000381474097600049706276062199712),
}


def test_sum_oracle_monotone_sums_against_30_digit_references():
    for tag, references in _ORACLE_REFERENCES.items():
        for r, ref in zip(_ORACLE_ORDERS, references):
            assert abs(sum_oracle(tag, r) - ref) <= 1e-15 * ref, (tag, r)


def test_monotone_expansion_matches_the_term_callable():
    # term(k) = F(step*k + offset) at sum_tail's cutoff and at twice it; a
    # wrong sign or a wrong B_k(alpha) shows at the 1e-5 level or above
    for tag, (scale, shift, step, offset) in eulersums._MONOTONE.items():
        origin = digamma.psi_point(shift)
        for r in range(2, 18):
            expansion = eulersums._monotone_expansion(tag, r)
            for k in (64, 128):
                y = step * k + offset
                f = math.fsum((u + v * math.log(y)) * y ** -p for p, u, v in expansion)
                term = scale * (digamma.psi_point(k + shift) - origin) * y ** -float(r)
                assert abs(f - term) <= 1e-15 * term, (tag, r, k)
