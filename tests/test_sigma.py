import json
import math
import sys
import threading
from fractions import Fraction

import pytest

from polylog.cli import main
from polylog.closedform import (_TAGS, Atom, ClosedForm, GAMMA, LN2, PI,
                                eta_factor_closed, li_half_atom, sigma_atom,
                                zeta_closed, zeta_odd_atom)
from polylog.errors import DomainError
from polylog.seriesring import MAX_WEIGHT, kolbig_snp
from polylog.sigma import PROVENANCE, atom_value, cf_num, registry, sigma_tilde
from polylog.special import nielsen_num

from conftest import li_half_brute, zeta_brute


def test_li_column_is_closed():
    # sigma~_{n,1} = Li_{n+1}(-1)
    assert sigma_tilde(1, 1) == ClosedForm.atom(PI, 2, Fraction(-1, 12))
    assert cf_num(sigma_tilde(3, 1)) == pytest.approx(-7 * math.pi ** 4 / 720, abs=1e-14)
    assert cf_num(sigma_tilde(5, 1)) == pytest.approx(-31 * math.pi ** 6 / 30240, abs=1e-13)


# Li_{n+1}(-1) = -(1 - 2^-n) zeta(n+1), to 20 digits
_LI_AT_MINUS_ONE = {8: -0.99809429754160533077, 12: -0.99987854276326511549,
                    17: -0.99999618786961011348}


def test_li_column_is_closed_past_the_registry(capsys):
    # the registry lists sigma~_{n,1} to n = 7; sigma_tilde applies the rule at every n
    for n in range(1, MAX_WEIGHT):
        assert sigma_tilde(n, 1) == eta_factor_closed(n + 1), n
    assert all(sigma_tilde(n, 1) is registry().closed[(n, 1)] for n in range(1, 8))
    for n, value in _LI_AT_MINUS_ONE.items():
        assert main(["eval", "sigma-np", "--n", str(n), "--p", "1"]) == 0
        decimal = json.loads(capsys.readouterr().out)["decimal"]
        assert abs(decimal - value) <= 2e-15 * abs(value), n


def test_table_values_match_quadrature():
    for (n, p) in ((1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4), (2, 3),
                   (3, 2), (4, 1), (1, 5), (5, 1)):
        closed_value = cf_num(sigma_tilde(n, p))
        quad = nielsen_num(n, p, -1.0)
        assert abs(closed_value - quad) <= 1e-10, (n, p)


def test_decimals_keep_the_bits_of_float_coefficients():
    # evaluate divides integer numerators by one denominator; that is correctly
    # rounded, as float(Fraction) is, so every decimal keeps its bits
    reg = registry()
    forms = [kolbig_snp(n, p) for n in range(1, MAX_WEIGHT)
             for p in range(1, MAX_WEIGHT + 1 - n)]
    forms += list(reg.closed.values()) + [rhs for _, rhs in reg.relations]
    for cf in forms:
        parts = []
        for mono, c in cf.terms.items():
            v = float(c)
            for a, e in mono:
                v *= atom_value(a) ** e
            parts.append(v)
        assert cf.evaluate(atom_value) == math.fsum(parts), cf


def test_weight22_value():
    ln2 = math.log(2.0)
    expected = (-math.pi ** 4 / 48 - math.pi ** 2 * ln2 ** 2 / 12 + ln2 ** 4 / 12
                + 1.75 * ln2 * zeta_brute(3) + 2 * li_half_brute(4))
    assert cf_num(sigma_tilde(2, 2)) == pytest.approx(expected, abs=1e-12)


def test_open_entries_stay_atomic():
    for (n, p) in ((2, 4), (3, 3), (4, 2), (6, 2), (2, 6)):
        cf = sigma_tilde(n, p)
        assert cf == ClosedForm.atom(sigma_atom(n, p))
        assert cf.sigma_atoms() == [sigma_atom(n, p)]


def test_derived_odd_first_index_entries():
    # the even-order alternating-sum route extends the closed family
    for key in ((5, 2), (7, 2)):
        assert key in registry().closed
        cf = sigma_tilde(*key)
        assert not cf.sigma_atoms()
        assert abs(cf_num(cf) - nielsen_num(*key, -1.0)) <= 1e-10


def test_weight6_relations_in_registry():
    reg = registry()
    assert len(reg.relations) == 2
    for coeffs, rhs in reg.relations:
        lhs = math.fsum(float(c) * nielsen_num(n, p, -1.0)
                        for (n, p), c in coeffs.items())
        assert abs(lhs - cf_num(rhs)) <= 1e-10


def _registry_reference():
    """The registry's displays folded one operator at a time."""
    z3, z5, z7, z9 = (zeta_closed(n) for n in (3, 5, 7, 9))
    li4, li5, li6 = (ClosedForm.atom(li_half_atom(k)) for k in (4, 5, 6))
    pi2, pi4, pi6 = (ClosedForm.atom(PI, e) for e in (2, 4, 6))
    ln2 = [ClosedForm.atom(LN2, e) for e in range(7)]
    closed = {(n, 1): eta_factor_closed(n + 1) for n in range(1, 8)}
    closed[(1, 2)] = Fraction(1, 8) * z3
    closed[(1, 3)] = (Fraction(-1, 90) * pi4 - Fraction(1, 24) * pi2 * ln2[2]
                      + Fraction(1, 24) * ln2[4] + Fraction(7, 8) * ln2[1] * z3 + li4)
    closed[(2, 2)] = (Fraction(-1, 48) * pi4 - Fraction(1, 12) * pi2 * ln2[2]
                      + Fraction(1, 12) * ln2[4] + Fraction(7, 4) * ln2[1] * z3 + 2 * li4)
    closed[(1, 4)] = (z5 - Fraction(7, 16) * ln2[2] * z3 + Fraction(1, 36) * pi2 * ln2[3]
                      - Fraction(1, 30) * ln2[5] - ln2[1] * li4 - li5)
    closed[(2, 3)] = (Fraction(1, 12) * pi2 * z3 + Fraction(33, 32) * z5
                      - Fraction(7, 8) * ln2[2] * z3 + Fraction(1, 18) * pi2 * ln2[3]
                      - Fraction(1, 15) * ln2[5] - 2 * ln2[1] * li4 - 2 * li5)
    closed[(3, 2)] = Fraction(1, 12) * pi2 * z3 - Fraction(29, 32) * z5
    closed[(1, 5)] = (Fraction(-1, 945) * pi6 - Fraction(1, 96) * pi2 * ln2[4]
                      + Fraction(1, 72) * ln2[6] + Fraction(7, 48) * ln2[3] * z3
                      + Fraction(1, 2) * ln2[2] * li4 + ln2[1] * li5 + li6)
    closed[(5, 2)] = (Fraction(1, 12) * pi2 * z5 + Fraction(7, 720) * pi4 * z3
                      - Fraction(251, 128) * z7)
    closed[(7, 2)] = (Fraction(1, 12) * pi2 * z7 + Fraction(7, 720) * pi4 * z5
                      + Fraction(31, 30240) * pi6 * z3 - Fraction(1529, 512) * z9)
    rel1_rhs = (Fraction(-53, 15120) * pi6 - Fraction(1, 24) * pi2 * ln2[4]
                + Fraction(1, 18) * ln2[6] + Fraction(7, 12) * ln2[3] * z3
                - Fraction(1, 2) * z3 * z3 + 2 * ln2[2] * li4 + 4 * ln2[1] * li5 + 4 * li6)
    rel2_rhs = Fraction(1, 1512) * pi6 - Fraction(1, 2) * z3 * z3
    relations = [({(2, 4): Fraction(2), (4, 2): Fraction(-1)}, rel1_rhs),
                 ({(3, 3): Fraction(2), (4, 2): Fraction(-3)}, rel2_rhs)]
    return closed, relations


def test_registry_equals_the_operator_folds():
    closed, relations = _registry_reference()
    reg = registry()
    assert reg.closed.keys() == closed.keys()
    for key, cf in closed.items():
        assert reg.closed[key] == cf, key
    assert reg.relations == relations


def test_sigma_tilde_domain():
    with pytest.raises(DomainError):
        sigma_tilde(0, 1)


def test_context_values_and_provenance():
    assert atom_value(PI) == math.pi
    assert atom_value(LN2) == math.log(2.0)
    assert abs(atom_value(GAMMA) - 0.5772156649015329) < 1e-14
    assert abs(atom_value(zeta_odd_atom(3)) - zeta_brute(3)) < 1e-13
    assert abs(atom_value(li_half_atom(4)) - li_half_brute(4)) < 1e-14
    # every atom kind has a value, and says how it is made
    assert set(PROVENANCE) == set(_TAGS)
    assert PROVENANCE[PI.tag] == "builtin"
    assert PROVENANCE[zeta_odd_atom(3).tag] == "series"
    # sigma atoms resolve through quadrature
    assert PROVENANCE[sigma_atom(2, 4).tag] == "quadrature"
    assert atom_value(sigma_atom(2, 4)) == nielsen_num(2, 4, -1.0)


def test_context_reproducibility():
    atoms = [PI, LN2, GAMMA, zeta_odd_atom(17), li_half_atom(8), sigma_atom(3, 3)]
    first = [atom_value(a) for a in atoms]
    assert [atom_value(a) for a in atoms] == first
    # a recomputed value is bit for bit the cached one
    atom_value.cache_clear()
    assert [atom_value(a) for a in atoms] == first


def test_context_unknown_atom():
    # an unknown atom kind is refused at construction, so no atom reaches
    # atom_value without a route
    with pytest.raises(DomainError, match="mystery"):
        Atom("mystery")


def test_atom_values_are_thread_safe():
    # atom_value is shared by the whole process: concurrent first lookups
    # must agree with a single-threaded run
    forms = list(registry().closed.values())
    free = [sigma_atom(2, 4), sigma_atom(3, 3), sigma_atom(4, 2)]

    def values():
        return [cf_num(cf) for cf in forms] + [atom_value(a) for a in free]

    atom_value.cache_clear()
    expected = values()
    results = [None] * 8

    def work(slot):
        results[slot] = values()

    interval = sys.getswitchinterval()
    atom_value.cache_clear()
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
    assert results == [expected] * 8
