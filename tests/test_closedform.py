import copy
import json
import math
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polylog import closedform, seriesring
from polylog.closedform import (Atom, ClosedForm, LN2, PI, GAMMA, UNIT,
                                bernoulli_fraction,
                                eta_factor_closed, li_half_atom, monomial,
                                monomial_name, sigma_atom,
                                zeta_closed, zeta_nonpositive_rational,
                                zeta_odd_atom)
from polylog.errors import CapacityError, DomainError
from polylog.ipq import Family, ipq_final
from polylog.seriesring import MAX_WEIGHT, kolbig_snp
from polylog.sigma import registry

from conftest import (assert_frozen_value, build_exact_catalogue, clear_package_caches,
                      deadline, package_cache_misses, zeta_brute)


# -- strategies --------------------------------------------------------------

_ATOMS = [PI, LN2, GAMMA, zeta_odd_atom(3), zeta_odd_atom(5), li_half_atom(4),
          sigma_atom(2, 4)]

_monomials = st.lists(
    st.tuples(st.sampled_from(_ATOMS), st.integers(1, 3)), max_size=3
).map(lambda pairs: monomial(*pairs))

_coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))

_term_maps = st.dictionaries(_monomials, _coeffs, max_size=4)

_closed_forms = _term_maps.map(ClosedForm)


# evaluate() reads atom values through any callable: here a fixed table
_value = {
    PI: math.pi,
    LN2: math.log(2.0),
    GAMMA: 0.5772156649015329,
    zeta_odd_atom(3): 1.2020569031595943,
    zeta_odd_atom(5): 1.0369277551433699,
    li_half_atom(4): 0.5174790616738994,
    sigma_atom(2, 4): 0.1,
}.__getitem__


# -- atoms and monomials ------------------------------------------------------


def test_atom_ordering_is_total():
    atoms = [sigma_atom(1, 2), li_half_atom(5), zeta_odd_atom(3), GAMMA, LN2, PI,
             zeta_odd_atom(5), li_half_atom(4)]
    ordered = sorted(atoms)
    assert ordered == [PI, LN2, GAMMA, zeta_odd_atom(3), zeta_odd_atom(5),
                       li_half_atom(4), li_half_atom(5), sigma_atom(1, 2)]


def test_atom_validation():
    with pytest.raises(DomainError):
        zeta_odd_atom(4)
    with pytest.raises(DomainError):
        zeta_odd_atom(1)
    with pytest.raises(DomainError):
        li_half_atom(3)
    with pytest.raises(DomainError):
        sigma_atom(0, 1)


def test_atom_is_a_frozen_value():
    a, b = zeta_odd_atom(3), Atom("zeta_odd", (3,))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != zeta_odd_atom(5) and a != li_half_atom(4)
    assert (a.tag, a.args) == ("zeta_odd", (3,))
    assert Atom("pi") == PI and PI.args == ()
    assert repr(a) == "Atom(zeta3)"
    assert_frozen_value(a, "tag")
    assert_frozen_value(sigma_atom(2, 4), "args")


def test_atom_names_are_distinct():
    # serialized monomials name their atoms, so no two atoms may share a name
    atoms = _ATOMS + [zeta_odd_atom(17), li_half_atom(8), sigma_atom(1, 21),
                      sigma_atom(12, 1), sigma_atom(1, 2), sigma_atom(2, 1)]
    assert len({a.name for a in atoms}) == len(set(atoms)) == len(atoms)


def test_monomial_normalization():
    m = monomial((LN2, 1), (PI, 2), (LN2, 1))
    assert m == monomial((PI, 2), (LN2, 2))
    assert monomial_name(m) == "pi^2*ln2^2"
    assert monomial_name(UNIT) == "1"
    assert ClosedForm({m: 1}) * ClosedForm.one() == ClosedForm({m: 1})


def test_an_exponent_has_one_representation():
    # monomial() binds each exponent by the order rule: 2.0 is the int 2 in
    # every output, whichever of the two a cache saw first, and 2.5, nan,
    # inf and -1 are refused
    clear_package_caches()
    pi2 = '{"terms":[{"den":"1","monomial":[["pi",2]],"num":"1"}]}'
    assert ClosedForm.atom(PI, 2.0).to_json() == pi2
    assert ClosedForm.atom(PI, 2).to_json() == pi2
    assert zeta_closed(2).to_json() == _dumps(zeta_closed(2))
    assert ClosedForm.atom(PI, 2.0) == ClosedForm.atom(PI, 2)
    assert [type(e) for _, e in monomial((PI, 2.0), (LN2, 1.0))] == [int, int]
    for bad in (2.5, math.nan, math.inf, -1):
        with pytest.raises(DomainError):
            ClosedForm.atom(PI, bad)
        with pytest.raises(DomainError):
            monomial((PI, bad))


def test_the_constructor_keys_each_monomial_once():
    # a term map's keys are canonicalized, and coefficient() reads the same
    # key: order, a repeated atom or a float exponent makes no second
    # monomial, and keys that agree add up
    pi2_ln2 = ClosedForm.atom(PI, 2) * ClosedForm.atom(LN2)
    for key in (((LN2, 1), (PI, 2)), ((PI, 1), (LN2, 1), (PI, 1)), ((PI, 2.0), (LN2, 1))):
        cf = ClosedForm({key: 1})
        assert cf == pi2_ln2 and (cf - pi2_ln2).is_zero
        assert pi2_ln2.coefficient(key) == 1
    assert ClosedForm({((PI, 1), (PI, 1)): 1}) == ClosedForm.atom(PI, 2)
    assert ClosedForm({((PI, 1), (PI, 1)): Fraction(1, 3),
                       ((PI, 2),): Fraction(2, 3)}) == ClosedForm.atom(PI, 2)
    assert ClosedForm({((PI, 1), (PI, 1)): 1, ((PI, 2),): -1}).is_zero
    assert ClosedForm({((LN2, 0),): 5}) == 5
    assert pi2_ln2.coefficient(((PI, 2),)) == 0


# -- arithmetic ---------------------------------------------------------------


def test_addition_examples():
    # pi^2/6 + pi^2/12 = pi^2/4
    a = ClosedForm.atom(PI, 2, Fraction(1, 6))
    b = ClosedForm.atom(PI, 2, Fraction(1, 12))
    assert a + b == ClosedForm.atom(PI, 2, Fraction(1, 4))
    # X + 0 = X
    x = ClosedForm.rational(7) + ClosedForm.atom(LN2, 3, Fraction(-2, 5))
    assert x + ClosedForm.zero() == x
    # cancellation: (2 - pi^2/6) + pi^2/6 = 2
    y = ClosedForm.rational(2) - zeta_closed(2)
    assert y + zeta_closed(2) == ClosedForm.rational(2)


def test_multiplication_examples():
    ln2 = ClosedForm.atom(LN2)
    assert ln2 * ln2 == ClosedForm.atom(LN2, 2)
    z3 = zeta_closed(3)
    assert z3 * z3 == ClosedForm.atom(zeta_odd_atom(3), 2)
    prod = zeta_closed(2) * z3
    assert prod == ClosedForm({monomial((PI, 2), (zeta_odd_atom(3), 1)): Fraction(1, 6)})


def test_scalar_operations():
    x = zeta_closed(2)
    assert 3 * x == x * 3 == x + x + x
    assert x / 2 == Fraction(1, 2) * x
    assert (x - x).is_zero
    assert x ** 2 == x * x
    with pytest.raises(DomainError):
        x ** -1


@given(_closed_forms, _closed_forms)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(_closed_forms, _closed_forms, _closed_forms)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(_coeffs | st.integers(-30, 30))
def test_rational_forms_hash_like_the_numbers_they_equal(q):
    cf = ClosedForm.rational(q)
    assert cf == q and hash(cf) == hash(q)
    assert len({cf, q, Fraction(q)}) == 1
    assert hash(ClosedForm.zero()) == hash(0) and {ClosedForm.one(), 1} == {1}


@given(_closed_forms)
def test_normalization_idempotent(a):
    assert ClosedForm(a.terms) == a
    assert all(coeff != 0 for coeff in a.terms.values())


@given(_closed_forms, _closed_forms)
def test_numeric_consistency(a, b):
    va, vb = a.evaluate(_value), b.evaluate(_value)
    scale = 1.0 + abs(va) + abs(vb) + abs(va * vb)
    assert abs((a + b).evaluate(_value) - (va + vb)) <= 1e-12 * scale
    assert abs((a * b).evaluate(_value) - va * vb) <= 1e-12 * scale


def test_division_by_zero_and_fractional_powers_are_domain_errors():
    z3 = zeta_closed(3)
    for divisor in (0, Fraction(0)):
        with pytest.raises(DomainError):
            z3 / divisor
    for exp in (Fraction(1, 2), Fraction(2), 0.5):
        with pytest.raises(DomainError):
            z3 ** exp
    assert z3 / Fraction(-2, 3) == Fraction(-3, 2) * z3


def test_coefficients_that_are_not_int_or_fraction_are_refused():
    # no quiet conversion: 0.1 is not 3602879701896397/36028797018963968, a
    # string is not parsed, and nan and inf fail as every bad coefficient does
    for coeff in (0.1, 1.0, "1/3", math.nan, math.inf):
        with pytest.raises(DomainError, match="not an int or a Fraction"):
            ClosedForm.rational(coeff)
        with pytest.raises(DomainError, match="not an int or a Fraction"):
            ClosedForm.atom(LN2, 1, coeff)
    assert ClosedForm.rational(Fraction(1, 3)).terms == {UNIT: Fraction(1, 3)}


# -- the dict-of-Fraction arithmetic, as the reference for the integer layout --


class _FractionForm:
    """A ClosedForm kept as {monomial: Fraction}, one Fraction per coefficient."""

    def __init__(self, terms):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, _FractionForm) else _FractionForm({UNIT: x})

    def __add__(self, other):
        acc = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
            acc[m] = acc[m] + c if m in acc else c
        return _FractionForm(acc)

    __radd__ = __add__

    def __neg__(self):
        return _FractionForm({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        acc = {}
        o = self._coerce(other)
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = monomial(*m1, *m2)
                acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
        return _FractionForm(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, exp):
        out = _FractionForm({UNIT: 1})
        for _ in range(exp):
            out = out * self
        return out

    def __hash__(self):
        if self.terms.keys() <= {UNIT}:
            return hash(self.terms.get(UNIT, 0))
        return hash(frozenset(self.terms.items()))


def _assert_canonical(cf):
    # keyed by monomial id: an int that indexes the intern table
    assert all(type(i) is int and closedform._IDS[closedform._MONOMIALS[i]] == i for i in cf._num)
    assert cf._den > 0 and all(type(c) is int and c for c in cf._num.values())
    assert math.gcd(cf._den, *cf._num.values()) == 1


@given(_term_maps, _term_maps, _coeffs | st.integers(-30, 30), st.integers(0, 3))
def test_arithmetic_matches_the_fraction_reference(ta, tb, s, k):
    a, b = ClosedForm(ta), ClosedForm(tb)
    ra, rb = _FractionForm(ta), _FractionForm(tb)
    pairs = [(a, ra), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a * b, ra * rb),
             (a ** k, ra ** k), (a + s, ra + s), (s + a, s + ra), (a - s, ra - s),
             (s - a, s - ra), (a * s, ra * s), (s * a, s * ra)]
    if s:
        pairs.append((a / s, ra / s))
    for new, ref in pairs:
        assert new.terms == ref.terms
        assert hash(new) == hash(ref)
        _assert_canonical(new)


# -- the combination kernel against the operator fold --------------------------

_triples = st.lists(st.tuples(_coeffs | st.integers(-30, 30), _closed_forms,
                              st.none() | _closed_forms), max_size=6)


@given(_triples, st.booleans(), st.integers(1, 2 ** 70))
def test_combination_equals_the_operator_fold(terms, cancel, den):
    if cancel:
        # every term again with the opposite sign: the sum is exactly zero
        terms = terms + [(-c, a, b) for c, a, b in terms]
    fold = ClosedForm.zero()
    for c, a, b in terms:
        fold = fold + (c * a if b is None else c * a * b)
    out = ClosedForm.combination(iter(terms))
    assert (out._num, out._den) == (fold._num, fold._den)
    _assert_canonical(out)
    assert out.is_zero or not cancel
    # over a common denominator: the fold divided by den, canonical
    over = ClosedForm.combination(iter(terms), den)
    assert over.terms == {m: c / den for m, c in fold.terms.items()}
    _assert_canonical(over)


def test_combination_denominator_follows_the_order_rule():
    terms = [(3, zeta_closed(3), None), (1, zeta_closed(2), None)]
    for den in (0, -2, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            ClosedForm.combination(terms, den)
    halved, by_float = ClosedForm.combination(terms, 2), ClosedForm.combination(terms, 2.0)
    assert (by_float._num, by_float._den) == (halved._num, halved._den)
    assert halved.terms == {monomial((zeta_odd_atom(3), 1)): Fraction(3, 2),
                            monomial((PI, 2)): Fraction(1, 12)}


def test_combination_of_nothing_is_zero():
    for terms in ([], [(0, zeta_closed(3), None)],
                  [(Fraction(1, 3), ClosedForm.zero(), zeta_closed(3))]):
        out = ClosedForm.combination(terms)
        assert (out._num, out._den) == ({}, 1)


def test_exact_catalogue_builds_with_few_reductions(monkeypatch):
    # a cold build of every exact-highweight closed form (the benchmark's
    # catalogue to weight 12) folds each display with one reduction, not one
    # per operator: 704 forms made by _canonical, where operator folds made 2,935
    clear_package_caches()
    count = 0
    canonical = vars(ClosedForm)["_canonical"].__func__

    def counted(cls, num, den):
        nonlocal count
        count += 1
        return canonical(cls, num, den)
    monkeypatch.setattr(ClosedForm, "_canonical", classmethod(counted))
    assert build_exact_catalogue() == 282
    assert count <= 1000


# the misses of each functools.cache that a cold build of the exact
# catalogue fills, by module and name; a change that moves one names the
# count, old and new, in CHANGES.md
_CATALOGUE_CACHE_MISSES = {
    "closedform._monomial_product": 98, "closedform.bernoulli_fraction": 6,
    "closedform.zeta_closed": 11, "closedform.eta_factor_closed": 7,
    "eulersums.s_plus": 8, "eulersums.c_sum": 8, "eulersums.milgram": 8,
    "eulersums.jordan_nielsen": 16, "eulersums.s_minus": 8,
    "ipq._mu_sum": 108, "ipq._minus_named_part": 8, "ipq.ipq_final": 108,
    "lognm.i_star": 25, "lognm.h_star": 25,
    "seriesring._ratio_slice": 13, "seriesring._snp_slice": 11, "sigma.registry": 1,
}


def test_cold_exact_catalogue_work_counts(monkeypatch):
    # Fraction constructions are bounded, not pinned, in
    # test_cold_exact_catalogue_constructs_few_fractions: the count moves
    # with the Python version
    clear_package_caches()
    combinations = []
    combination = vars(ClosedForm)["combination"].__func__

    def counted(cls, *args):
        combinations.append(1)
        return combination(cls, *args)
    monkeypatch.setattr(ClosedForm, "combination", classmethod(counted))
    assert build_exact_catalogue() == 282
    misses = {name: n for name, n in package_cache_misses().items() if n}
    assert len(combinations) == 164
    assert misses == _CATALOGUE_CACHE_MISSES  # 469 in all


# -- zeta / eta closed forms ---------------------------------------------------


def test_bernoulli_values():
    expected = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
                Fraction(-1, 30), Fraction(0), Fraction(1, 42)]
    assert [bernoulli_fraction(n) for n in range(7)] == expected


def _fraction_constructions(fn) -> int:
    new = vars(Fraction)["__new__"]
    count = 0

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        fn()
    finally:
        Fraction.__new__ = new
    return count


def test_normalization_constructs_no_fractions():
    # a term map is normalized once, in the constructor; building a form from
    # Fractions, or adding forms with disjoint monomials, only re-keys them
    third = Fraction(1, 3)
    assert _fraction_constructions(lambda: ClosedForm.rational(third)) == 0
    assert _fraction_constructions(lambda: ClosedForm.atom(PI, 2, third)) == 0
    terms = {monomial((PI, 2)): Fraction(1, 6), monomial((LN2, 1)): Fraction(-3, 4)}
    x = ClosedForm(terms)
    y = ClosedForm({monomial((zeta_odd_atom(3), 1)): Fraction(5, 7)})
    assert _fraction_constructions(lambda: ClosedForm(terms)) == 0
    assert _fraction_constructions(lambda: x + y) == 0
    assert (x + y).terms == {**terms, **y.terms}


def test_snp_builds_to_weight_12_construct_few_fractions():
    # coefficients are integers over one denominator, so a cold build of every
    # s_{n,p} to weight 12 makes Fractions only for its rational inputs
    for memo in (seriesring._ratio_slice, closedform.zeta_closed,
                 closedform._monomial_product, bernoulli_fraction):
        memo.cache_clear()
    build = lambda: [kolbig_snp(n, p) for n in range(1, 12) for p in range(1, 13 - n)]
    assert _fraction_constructions(build) <= 600


def test_cold_exact_catalogue_constructs_few_fractions():
    # each display passes integer numerators over its one denominator, so a
    # cold catalogue makes Fractions only in its memoized once-per-process
    # sites (Bernoulli, the sigma~ registry, eta and zeta factors, e_m(-ln 2)):
    # 99 on Python 3.10 and 3.11, where per-coefficient Fractions made 332.
    # An upper bound: 3.12 and later build arithmetic results without
    # Fraction.__new__ (87 there)
    clear_package_caches()
    assert _fraction_constructions(build_exact_catalogue) <= 99


def _bernoulli_reference(count):
    # the recurrence sum_{j<=n} C(n+1, j) B_j = 0 that built the table before
    # the tangent numbers, kept as the reference they must reproduce
    table = [Fraction(1)]
    for n in range(1, count):
        table.append(Fraction(-sum(math.comb(n + 1, j) * table[j] for j in range(n)), n + 1))
    return table


def test_bernoulli_numbers_equal_the_sum_recurrence():
    bernoulli_fraction.cache_clear()
    assert [bernoulli_fraction(n) for n in range(61)] == _bernoulli_reference(61)


def test_a_cold_bernoulli_number_builds_one_fraction():
    # the tangent numbers are integers, so B_2m is one Fraction; the sum
    # recurrence built every B_j below it first
    bernoulli_fraction.cache_clear()
    assert [_fraction_constructions(lambda n=n: bernoulli_fraction(n)) for n in (60, 18, 2)] \
        == [1, 1, 1]


def test_threads_interning_the_same_new_monomials_get_one_id_each():
    # sigma~_{k,89} is in no other test, so every monomial here is new to
    # the intern table, and 8 threads, started together, race to intern each
    # one; an unlocked table gives some monomial two ids in most runs
    atoms = [sigma_atom(k, 89) for k in range(1, 1001)]
    assert not any(monomial((a, 1)) in closedform._IDS for a in atoms)
    build = lambda: [ClosedForm.atom(a, 2) * ClosedForm.atom(b) - ClosedForm.atom(b, 3)
                     for a, b in zip(atoms, atoms[1:])]
    results = [None] * 8

    start = threading.Barrier(8)

    def work(slot):
        start.wait()
        results[slot] = build()

    interval = sys.getswitchinterval()
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
    table = closedform._MONOMIALS
    assert len(set(table)) == len(table) == len(closedform._IDS)
    assert all(closedform._IDS[m] == i for i, m in enumerate(table))
    assert all(r == results[0] for r in results) and results[0] == build()


def test_a_form_rebuilt_after_the_caches_are_cleared_is_equal():
    # clearing the memo caches leaves the intern table, whose ids the
    # forms built before still hold
    build = lambda: [kolbig_snp(3, 4), ipq_final(Family.MIXED, 3, 4), zeta_closed(6),
                     *registry().values()]
    clear_package_caches()
    first = build()
    clear_package_caches()
    again = build()
    assert all(a is not b and a == b and a.to_json() == b.to_json()
               for a, b in zip(first, again))


def test_bernoulli_table_is_thread_safe():
    expected = [bernoulli_fraction(n) for n in range(81)]
    results = [None] * 8

    def work(slot):
        results[slot] = [bernoulli_fraction(n) for n in range(81)]

    interval = sys.getswitchinterval()
    bernoulli_fraction.cache_clear()
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
    assert [bernoulli_fraction(n) for n in range(81)] == expected


def test_zeta_closed_even():
    assert zeta_closed(2) == ClosedForm.atom(PI, 2, Fraction(1, 6))
    assert zeta_closed(4) == ClosedForm.atom(PI, 4, Fraction(1, 90))
    assert zeta_closed(6) == ClosedForm.atom(PI, 6, Fraction(1, 945))
    assert zeta_closed(8) == ClosedForm.atom(PI, 8, Fraction(1, 9450))


def test_zeta_closed_odd_is_atomic():
    assert zeta_closed(3) == ClosedForm.atom(zeta_odd_atom(3))
    assert zeta_closed(7) == ClosedForm.atom(zeta_odd_atom(7))


def test_zeta_closed_domain():
    with pytest.raises(DomainError):
        zeta_closed(1)
    with pytest.raises(DomainError):
        zeta_closed(0)


def test_zeta_even_matches_series():
    for n in (2, 4, 6, 8):
        assert abs(zeta_closed(n).evaluate(_value) - zeta_brute(n)) <= 1e-12


def test_zeta_nonpositive():
    assert zeta_nonpositive_rational(0) == Fraction(-1, 2)
    assert zeta_nonpositive_rational(-1) == Fraction(-1, 12)
    assert zeta_nonpositive_rational(-2) == 0
    assert zeta_nonpositive_rational(-3) == Fraction(1, 120)


def test_eta_factor_closed():
    assert eta_factor_closed(1) == ClosedForm.atom(LN2, 1, -1)
    assert eta_factor_closed(2) == ClosedForm.atom(PI, 2, Fraction(-1, 12))
    assert eta_factor_closed(3) == Fraction(-3, 4) * zeta_closed(3)
    with pytest.raises(DomainError):
        eta_factor_closed(0)


def test_eta_factor_closed_checks_the_weight_before_building_two_powers():
    # 2^(n-1) was built before zeta_closed(n) checked the weight: n = 10**8
    # took 0.93 s, n = 10**9 11 s and 250 MB, n = 10**12 a MemoryError
    for n in (MAX_WEIGHT + 1, 10 ** 8):
        clear_package_caches()
        with deadline(0.5, f"eta_factor_closed({n})"), \
                pytest.raises(CapacityError, match=f"weight {n} above cap {MAX_WEIGHT}"):
            eta_factor_closed(n)


def test_eta_factor_closed_is_memoized():
    # every cache, not eta's alone: the sigma~ registry holds eta's forms
    clear_package_caches()
    first = [eta_factor_closed(n) for n in range(1, 9)]
    assert all(eta_factor_closed(n) is f for n, f in zip(range(1, 9), first))
    info = eta_factor_closed.cache_info()
    assert (info.hits, info.misses) == (8, 8)


# -- evaluation ----------------------------------------------------------------


def test_evaluate_examples():
    assert abs(zeta_closed(2).evaluate(_value) - zeta_brute(2)) < 1e-12
    half = Fraction(-1, 2) * zeta_closed(2)
    assert abs(half.evaluate(_value) + zeta_brute(2) / 2) < 1e-12
    assert ClosedForm.zero().evaluate(_value) == 0.0


# -- serialization ----------------------------------------------------------------


def _terms_by_name(obj: dict) -> dict:
    return {tuple((n, e) for n, e in t["monomial"]): Fraction(int(t["num"]), int(t["den"]))
            for t in obj["terms"]}


@given(_closed_forms)
def test_json_round_trip(a):
    # the serialized terms are exactly the term map, under the atom names
    assert _terms_by_name(json.loads(a.to_json())) == \
        {tuple((x.name, e) for x, e in m): c for m, c in a.terms.items()}


def test_json_shape():
    cf = ClosedForm.rational(2) - zeta_closed(2)
    obj = cf.to_obj()
    assert obj == {"terms": [
        {"monomial": [], "num": "2", "den": "1"},
        {"monomial": [["pi", 2]], "num": "-1", "den": "6"},
    ]}


def test_json_big_integers_exact():
    big = Fraction(10 ** 40 + 1, 10 ** 39 + 7)
    cf = ClosedForm.atom(LN2, 1, big)
    assert _terms_by_name(cf.to_obj()) == {(("ln2", 1),): big}


def _dumps(cf: ClosedForm) -> str:
    return json.dumps(cf.to_obj(), sort_keys=True, separators=(",", ":"))


# every atom tag, with its arguments drawn where the family has them
_any_atoms = st.one_of(
    st.sampled_from([PI, LN2, GAMMA]),
    st.integers(1, 40).map(lambda k: zeta_odd_atom(2 * k + 1)),
    st.integers(4, 40).map(li_half_atom),
    st.builds(sigma_atom, st.integers(1, 40), st.integers(1, 40)),
)
_wide_forms = st.dictionaries(
    st.lists(st.tuples(_any_atoms, st.integers(1, 6)), max_size=4).map(lambda p: monomial(*p)),
    st.builds(Fraction, st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 40))
    | st.integers(-10 ** 60, 10 ** 60),
    max_size=6,
).map(ClosedForm)


@given(_wide_forms)
def test_json_writer_matches_json_dumps(cf):
    assert cf.to_json() == _dumps(cf)


def test_json_writer_matches_json_dumps_on_the_catalogue():
    assert ClosedForm.zero().to_json() == _dumps(ClosedForm.zero()) == '{"terms":[]}'
    forms = [*registry().values()]
    forms += [ipq_final(fam, p, q) for fam in Family
              for p in range(1, 8) for q in range(1, 9 - p)]
    forms += [kolbig_snp(n, w - n) for w in range(2, MAX_WEIGHT + 1) for n in range(1, w)]
    for cf in forms:
        assert cf.to_json() == _dumps(cf)


def test_a_form_pickles_by_monomial_across_processes():
    # the child interns other monomials first, so its ids are not ours; the
    # pickle carries monomials, so the form unpickles equal here
    env = dict(os.environ, PYTHONPATH=str(Path(closedform.__file__).parents[1]))
    code = ("import pickle; from fractions import Fraction; "
            "from polylog.closedform import ClosedForm, LN2, sigma_atom, zeta_closed; "
            "from polylog.seriesring import kolbig_snp; "
            "[ClosedForm.atom(sigma_atom(k, 97), 3) for k in range(1, 40)]; "
            "cf = kolbig_snp(2, 3) * zeta_closed(3) + ClosedForm.atom(LN2, 2, Fraction(1, 3)); "
            "print(pickle.dumps(cf).hex(), *sorted(cf._num))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30, check=True)
    payload, *ids = proc.stdout.split()
    cf = kolbig_snp(2, 3) * zeta_closed(3) + ClosedForm.atom(LN2, 2, Fraction(1, 3))
    assert sorted(cf._num) != [int(i) for i in ids]
    for twin in (pickle.loads(bytes.fromhex(payload)), pickle.loads(pickle.dumps(cf)),
                 copy.copy(cf), copy.deepcopy(cf)):
        assert type(twin) is ClosedForm
        assert twin == cf and hash(twin) == hash(cf) and twin.to_json() == cf.to_json()


def test_pretty():
    cf = ClosedForm.rational(2) - zeta_closed(2)
    assert cf.pretty() == "2 - 1/6*pi^2"
    assert ClosedForm.zero().pretty() == "0"
