import math
from fractions import Fraction

import pytest

from polylog.closedform import ClosedForm, PI, sigma_atom
from polylog.errors import DomainError, EvaluationError
from polylog.sigma import (build_context, cf_num, registered_keys,
                           registry, sigma_tilde)
from polylog.special import nielsen_num

from conftest import li_half_brute, zeta_brute


def test_li_column_is_closed():
    # sigma~_{n,1} = Li_{n+1}(-1)
    assert sigma_tilde(1, 1) == ClosedForm.atom(PI, 2, Fraction(-1, 12))
    assert cf_num(sigma_tilde(3, 1)) == pytest.approx(-7 * math.pi ** 4 / 720, abs=1e-14)
    assert cf_num(sigma_tilde(5, 1)) == pytest.approx(-31 * math.pi ** 6 / 30240, abs=1e-13)


def test_table_values_match_quadrature():
    for (n, p) in ((1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4), (2, 3),
                   (3, 2), (4, 1), (1, 5), (5, 1)):
        closed_value = cf_num(sigma_tilde(n, p))
        quad = nielsen_num(n, p, -1.0)
        assert abs(closed_value - quad) <= 1e-10, (n, p)


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


def test_sigma_tilde_domain():
    with pytest.raises(DomainError):
        sigma_tilde(0, 1)


def test_registry_is_deterministic():
    assert registered_keys() == registered_keys()


def test_context_values_and_provenance():
    ctx = build_context()
    from polylog.closedform import GAMMA, LN2, li_half_atom, zeta_odd_atom
    assert ctx.value(PI) == math.pi
    assert ctx.value(LN2) == math.log(2.0)
    assert abs(ctx.value(GAMMA) - 0.5772156649015329) < 1e-14
    assert abs(ctx.value(zeta_odd_atom(3)) - zeta_brute(3)) < 1e-13
    assert abs(ctx.value(li_half_atom(4)) - li_half_brute(4)) < 1e-14
    assert ctx.provenance[PI] == "builtin"
    assert ctx.provenance[zeta_odd_atom(3)] == "series"
    # sigma atoms resolve through quadrature and are recorded as such
    v = ctx.value(sigma_atom(2, 4))
    assert ctx.provenance[sigma_atom(2, 4)] == "quadrature"
    assert abs(v - nielsen_num(2, 4, -1.0)) <= 1e-11


def test_context_reproducibility():
    a, b = build_context(), build_context()
    for atom, value in a.atom_values.items():
        assert b.value(atom) == value
    # lazily resolved atoms are cached, so repeat lookups are identical
    ctx = build_context()
    first = ctx.value(sigma_atom(3, 3))
    assert ctx.value(sigma_atom(3, 3)) == first


def test_context_unknown_atom():
    from polylog.closedform import opaque_atom
    ctx = build_context()
    with pytest.raises(EvaluationError):
        ctx.value(opaque_atom("mystery"))
