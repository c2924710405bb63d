"""Identity verification suites.

Every deterministic identity the package exposes is registered here as a
row that a suite generator yields once its work is done.  _entries, the
only place a report entry is built, turns each row into one entry (an
identity id, the symbolic value when one exists, the oracle and closed
values, the absolute error, the tolerance, and pass/fail) before it asks
for the next row.  Exact (term-map) rows carry tolerance 0.
Every oracle value is computed at the one precision ORACLE_TOL.

The suites only measure: each numeric row carries its default tolerance,
and an entry's status is derived from its error and tolerance whenever it
is read.  run_suite alone applies the tolerance policy, once, after the
suites return: it scales every nonzero tolerance and replaces the default
of exactly the entry each override names.  An override key that names no
numeric entry of the run (a typo, an exact entry, an entry of another
suite) is a DomainError.

Each builder takes one production route, and every route that only a
check reads is written here once, next to its rows: the Nielsen display,
the telescoping shift and the diagonal reduction of I(p,q), the full
Milgram sum, the Jordan decomposition of S- (through either Jordan route,
so also the even-order route to the tabulated sigma~ values), the
derivatives of Li_p(-t) at t = 1, the boundary value h(0,m), the
s <-> sigma~ reflection network and the two weight-6 sigma~ relations.

No two numeric entries compare the same pair of computations: the swapped
twins of the symmetric I(p,q) families take the integration-by-parts value
as their numeric leg, and the closed weight-6 sigma~ endpoints the
alternating series of sigma~, while the registry entries keep its
quadrature.

Checks that certify a correction to a commonly printed value carry a
``note`` naming the independent routes that pin the corrected value down.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Iterator
from functools import cache
from itertools import repeat
from operator import add, mul, sub, truediv

from .approx import _derivative_cf, s_minus_truncated
from .closedform import (ClosedForm, LN2, PI, eta_factor_closed, li_half_atom,
                         sigma_atom, zeta_closed, zeta_odd_atom)
from .errors import DomainError
from .eulersums import (c_sum, jordan_even, jordan_nielsen, milgram, s_minus, s_plus,
                        sum_oracle)
from .ipq import Family, _mu_sum, ipq_final, ipq_numeric, ipq_series, r_value
from .lognm import (h_closed, h_pde_residual, h_star, i_closed, i_pde_residual,
                    lognm_numeric)
from .quadrature import ORACLE_TOL, Grid, integrate01, log_power, nodes
from .seriesring import beta_derivative_inm, kolbig_snp
from .sigma import atom_value, cf_num, registry, sigma_tilde
from .special import li_column, mpl2, nielsen_num, polylog
from .summation import ALTERNATING_TERMS, sum_alternating, zeta_num


class CheckEntry:
    __slots__ = ("identity_id", "source", "symbolic", "oracle_value",
                 "closed_value", "abs_error", "tolerance", "note")

    def __init__(self, identity_id: str, source: str, symbolic: str | None,
                 oracle_value: float | None, closed_value: float | None,
                 abs_error: float, tolerance: float, note: str = ""):
        self.identity_id = identity_id
        self.source = source
        self.symbolic = symbolic
        self.oracle_value = oracle_value
        self.closed_value = closed_value
        self.abs_error = abs_error
        self.tolerance = tolerance
        self.note = note

    @property
    def status(self) -> str:
        return "pass" if self.abs_error <= self.tolerance else "fail"

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in (*CheckEntry.__slots__, "status")}


class VerificationReport:
    __slots__ = ("entries",)

    def __init__(self, entries: list[CheckEntry] | None = None):
        self.entries = [] if entries is None else entries

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if e.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for e in self.entries if e.status == "fail")

    def to_obj(self) -> dict:
        return {
            "entries": [e.to_obj() for e in self.entries],
            "summary": {"pass": self.passed, "fail": self.failed},
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=indent)


_ZERO_JSON = ClosedForm.zero().to_json()


def _entries(rows: Iterable[tuple]) -> list[CheckEntry]:
    """Build one CheckEntry per row as soon as the row is yielded, so each
    entry's work runs after the previous entry is built and before its own.

    A row is (identity_id, source, oracle, closed, tolerance[, note]).  At
    tolerance 0 the sides are exact and the entry passes on ==: form sides
    record the zero form, or on a failure their difference, and a bool
    verdict (against True) records no symbolic value.  A numeric row's
    ClosedForm closed side is recorded and evaluated by cf_num; a tuple
    oracle holds float routes whose spread, closed side included, is the
    error.
    """
    out = []
    for identity_id, source, oracle, closed, tol, *note in rows:
        symbolic = None
        if not tol:
            same = oracle == closed
            if not isinstance(oracle, bool):
                symbolic = _ZERO_JSON if same else (oracle - closed).to_json()
            oracle = closed = None
            error = 0.0 if same else math.inf
        else:
            if isinstance(closed, ClosedForm):
                closed, symbolic = cf_num(closed), closed.to_json()
            if isinstance(oracle, tuple):
                # max and min skip a NaN that is not first, so a NaN route is caught here
                routes, oracle = (*oracle, closed), oracle[0]
                error = math.nan if any(map(math.isnan, routes)) else max(routes) - min(routes)
            else:
                error = abs(oracle - closed)
        out.append(CheckEntry(identity_id, source, symbolic, oracle, closed, error, tol,
                              *note))
    return out


# ---------------------------------------------------------------------------
# sums suite
# ---------------------------------------------------------------------------


def _rows_sums() -> Iterator[tuple]:
    # each named sum: its closed-form builder and the tag of its defining series
    for name, fn, tag in (("splus", s_plus, "SPlus"),
                          ("jordan1", lambda r: jordan_nielsen("J1", r), "Jordan1"),
                          ("jordan2", lambda r: jordan_nielsen("J2", r), "Jordan2"),
                          ("milgram", milgram, "Milgram"),
                          ("csum", c_sum, "CSum"),
                          ("sminus", s_minus, "SMinus")):
        for r in range(2, 7):
            cf = fn(r)
            yield (f"sums.closed-vs-oracle.{name}.r{r}",
                   f"{name}({r}) closed form vs defining series",
                   sum_oracle(tag, r), cf, 1e-10)
    for r in range(2, 8):
        nielsen = (zeta_closed(r + 1) + kolbig_snp(r - 1, 2)) / 2 ** (r + 1)
        yield (f"sums.csum-dual-forms.r{r}", f"C({r}): S+ multiple vs Nielsen form",
               c_sum(r), nielsen, 0.0)
    for which in ("J1", "J2"):
        for r in (2, 4, 6, 8):
            yield (f"sums.jordan-nielsen-equals-even.{which}.r{r}",
                   f"{which}({r}): Nielsen form vs even-order closed form",
                   jordan_nielsen(which, r), jordan_even(which, r), 0.0)
    for r in range(2, 10):
        yield (f"sums.milgram-full-vs-simplified.r{r}",
               f"M({r}): full mu-sum vs simplified display", _milgram_full(r), milgram(r), 0.0)
    for r in range(2, 9):
        yield (f"sums.sminus-direct-vs-decomposed.r{r}",
               f"S-({r}): (2^-r - 1) zeta(r+1) + sigma~ vs Jordan decomposition",
               s_minus(r), _s_minus_decomposed(r, jordan_nielsen), 0.0)
    for r in range(2, 9):
        lhs = sum_oracle("SMinus", r)
        rhs = (sum_oracle("Jordan2", r) - sum_oracle("Jordan1", r) + sum_oracle("CSum", r)
               - sum_oracle("Milgram", r)
               - (1 - 2.0 ** (-r - 1)) * zeta_num(r + 1))
        yield (f"sums.sminus-decomposition.r{r}",
               f"S-({r}) sum decomposition, every term from its own oracle", lhs, rhs, 1e-10)
    # order-3 closed forms vs integrals that no other entry pairs them with:
    # S-(3) = -1/2 integral ln^2(x) ln(1+x) / (x(1+x)) is its generating function
    s_minus3 = -0.5 * integrate01(_log2_integrand(
        "1+x", lambda g: map(mul, nodes(g)[0], _one_plus_x(g))), ORACLE_TOL).value
    for name, label, cf, oracle, route in (
            ("jordan-odd-order3.J1", "J1", jordan_nielsen("J1", 3),
             _jordan_order3_integral("J1"), "integral representation"),
            ("jordan-odd-order3.J2", "J2", jordan_nielsen("J2", 3),
             _jordan_order3_integral("J2"), "integral representation"),
            ("sminus3-closed", "S-", s_minus(3), s_minus3,
             "harmonic generating-function integral")):
        yield f"sums.{name}", f"{label}(3) closed form vs its {route}", oracle, cf, 1e-10
    # which specialization of S-(odd) holds: general (2^-r - 1) vs 2^-r variant
    oracle = sum_oracle("SMinus", 5)
    general = cf_num((1 - 2 ** 5) * zeta_closed(6) / 2 ** 5 + sigma_tilde(4, 2))
    variant = cf_num(zeta_closed(6) / 2 ** 5 + sigma_tilde(4, 2))
    yield ("sums.sminus-odd-general-form.r5", "S-(5) = (2^-5 - 1) zeta(6) + sigma~_{4,2}",
           oracle, general, 1e-9,
           f"the 2^-r zeta(r+1) variant (without -1) misses by {abs(oracle - variant):.3e}")


def _milgram_full(r: int) -> ClosedForm:
    """M(r) as the full mu-sum that the simplified display condenses, its
    integer numerators over 2^(r+2) (r-1)."""
    out = (r - 1) * r * (2 ** (r + 1) - 1) * zeta_closed(r + 1) \
        - 4 * (r - 1) * (2 ** r - 1) * ClosedForm.atom(LN2) * zeta_closed(r)
    for mu in range(0, r - 2):
        out = out - 2 * (mu + 1) * (2 ** (mu + 2) - 1) * (2 ** (r - 1 - mu) - 1) \
            * zeta_closed(mu + 2) * zeta_closed(r - 1 - mu)
    return out / (2 ** (r + 2) * (r - 1))


def _s_minus_decomposed(r: int, jordan: Callable[[str, int], ClosedForm]) -> ClosedForm:
    """S-(r) = J2 - J1 + C - M - (1 - 2^{-r-1}) zeta(r+1) over 2^(r+1), its
    Jordan sums from jordan: jordan_nielsen, or at even r jordan_even, a
    zeta/ln2 polynomial that never touches sigma~."""
    top = 2 ** (r + 1)  # the one denominator
    return ClosedForm.combination([
        (top, jordan("J2", r), None), (-top, jordan("J1", r), None), (top, c_sum(r), None),
        (-top, milgram(r), None), (1 - top, zeta_closed(r + 1), None)], top)


# ---------------------------------------------------------------------------
# appendix suite
# ---------------------------------------------------------------------------


def _rows_appendix() -> Iterator[tuple]:
    pi, ln2 = math.pi, math.log(2.0)
    z3 = zeta_num(3)
    li4h = atom_value(li_half_atom(4))
    # integral_0^1 ln^2(x) f(x) dx: the kind, f, its integrand, the closed value
    for kind, f, ev, closed in (
            ("mm", "ln(1-x)/(1-x)", _log2_integrand("1-x", _one_minus_x),
             -pi ** 4 / 180.0),
            ("pm", "ln(1+x)/(1-x)", _log2_integrand("1+x", _one_minus_x),
             3.5 * ln2 * z3 - 19 * pi ** 4 / 720.0),
            ("mp", "ln(1-x)/(1+x)", _log2_integrand("1-x", _one_plus_x),
             pi ** 4 / 90.0 + pi ** 2 * ln2 ** 2 / 6.0 - ln2 ** 4 / 6.0 - 4 * li4h),
            ("pp", "ln(1+x)/(1+x)", _log2_integrand("1+x", _one_plus_x),
             4 * li4h - pi ** 4 / 24.0 - pi ** 2 * ln2 ** 2 / 6.0 + ln2 ** 4 / 6.0
             + 3.5 * ln2 * z3)):
        note = ("pi^4/24 term: the weight-4 power of pi is forced by dimensional "
                "consistency and confirmed by quadrature" if kind == "pp" else "")
        yield (f"appendix.log2-integral.{kind}", f"integral ln^2(x) {f} vs closed form",
               integrate01(ev, ORACLE_TOL).value, closed, 1e-10, note)
    # odd-order Jordan integral representations, n = 1 (order 3)
    for which in ("J1", "J2"):
        oracle = sum_oracle("Jordan1" if which == "J1" else "Jordan2", 3)
        yield (f"appendix.jordan-integral-rep.{which}",
               f"{which}(3) integral representation vs series",
               _jordan_order3_integral(which), oracle, 1e-9)
    # C(r) integral representation
    for r in (2, 3):

        def values(g: Grid, r=r):
            # ln^{r-1}(x) ln(1-x) / (x (1-x))
            xs, omxs, _ = nodes(g)
            return map(truediv, map(mul, log_power("x", r - 1, g), log_power("1-x", 1, g)),
                       map(mul, xs, omxs))
        quad = integrate01(values, ORACLE_TOL).value
        quad *= (-1.0) ** r / (2 ** (r + 1) * math.factorial(r - 1))
        yield (f"appendix.csum-integral-rep.r{r}",
               f"C({r}) integral representation vs closed form", quad, cf_num(c_sum(r)), 1e-9)
    # truncated alternating sums
    display = _expected_truncation_display()
    yield ("appendix.truncation-display-exact.p5kt10",
           "S-(5) truncation at kt=10 vs its printed rationals",
           s_minus_truncated(5, 10), display, 0.0)
    oracle5 = sum_oracle("SMinus", 5)
    yield ("appendix.truncation-nine-decimals.p5kt10",
           "S-(5) truncation at kt=10 against the series oracle",
           oracle5, cf_num(s_minus_truncated(5, 10)), 5e-10,
           "the kt=10 truncation is exactly its published value but "
           "sits 3.39e-9 from S-(5); the stated nine-decimal accuracy "
           "is first reached at kt=12 (3.5e-10)")
    errs = [abs(cf_num(s_minus_truncated(5, kt)) - oracle5) for kt in range(3, 11)]
    yield ("appendix.truncation-monotone.p5", "S-(5) truncation error decreases for kt = 3..10",
           not any(b > a for a, b in zip(errs, errs[1:])), True, 0.0)
    # derivative values vs one-sided finite differences (domain ends at t = 1)
    for (p, k) in ((5, 1), (5, 2), (4, 1)):
        exact = cf_num(_derivative_cf(p, k))
        fd = _li_derivative_fd(p, k)
        yield (f"appendix.li-derivative-fd.p{p}k{k}",
               f"d^{k} Li_{p}(-t)/dt^{k} at t=1 vs finite differences", fd, exact, 1e-6)


@cache
def _jordan_order3_integral(which: str) -> float:
    """J1(3) or J2(3) from the order-3 integral representation
    1/(4*2!) integral ln^2(x) (ln(1+x) - ln(1-x)) (1/(1-x) -+ 1/(1+x))."""
    sgn = -1.0 if which == "J1" else 1.0

    def values(g: Grid):
        logs = map(sub, log_power("1+x", 1, g), log_power("1-x", 1, g))
        weights = map(add, map(truediv, repeat(1.0), _one_minus_x(g)),
                      map(truediv, repeat(sgn), _one_plus_x(g)))
        return map(mul, map(mul, log_power("x", 2, g), logs), weights)
    quad = integrate01(values, ORACLE_TOL).value
    return quad / (4.0 * math.factorial(2))


def _one_minus_x(g: Grid):
    return nodes(g)[1]


def _one_plus_x(g: Grid):
    return map(add, repeat(1.0), nodes(g)[0])


def _log2_integrand(arg: str, den: Callable[[Grid], Iterable[float]]):
    """ln^2(x) ln(arg) / den(x) as a grid integrand."""
    return lambda g: map(truediv, map(mul, log_power("x", 2, g), log_power(arg, 1, g)), den(g))


def _li_derivative_fd(p: int, k: int) -> float:
    f = lambda t: polylog(p, -t)
    if k == 1:
        h = 1e-4
        return (3 * f(1.0) - 4 * f(1.0 - h) + f(1.0 - 2 * h)) / (2 * h)
    h = 2e-3
    return (2 * f(1.0) - 5 * f(1.0 - h) + 4 * f(1.0 - 2 * h) - f(1.0 - 3 * h)) / h ** 2


def _expected_truncation_display() -> ClosedForm:
    from fractions import Fraction
    return (ClosedForm.rational(Fraction(-24387227, 1741824000))
            + ClosedForm.atom(PI, 2, Fraction(-358039, 11197440))
            + ClosedForm.atom(PI, 4, Fraction(-1968329, 130636800))
            + ClosedForm.atom(zeta_odd_atom(3), 1, Fraction(2152309, 3456000))
            + ClosedForm.atom(LN2, 1, Fraction(1874237, 14515200)))


# ---------------------------------------------------------------------------
# ipq suite
# ---------------------------------------------------------------------------


def _ipq_oracle(family: Family, p: int, q: int) -> tuple[float, str]:
    """I(p,q) and the name of its numeric route: quadrature, or for a
    symmetric family with p > q integration by parts on the Li_q factor, so
    the swapped twin is a computation of its own:
    I(p,q) = Li_{q+1}(s) Li_p(s) - I(q+1, p-1), s = +-1, which at p = q+1
    is Li_p(s)^2 / 2."""
    if not family.symmetric or p <= q:
        return ipq_numeric(family, p, q), "quadrature"
    s = 1.0 if family is Family.PLUS else -1.0
    if p == q + 1:
        return 0.5 * polylog(p, s) ** 2, "by parts"
    return polylog(q + 1, s) * polylog(p, s) - ipq_numeric(family, q + 1, p - 1), "by parts"


def _rows_ipq() -> Iterator[tuple]:
    for family in Family:
        for p in range(1, 5):
            for q in range(1, 5):
                cf = ipq_final(family, p, q)
                nv, leg = _ipq_oracle(family, p, q)
                yield (f"ipq.grid.{family.value}.p{p}q{q}",
                       f"I[{family.value}]({p},{q}) closed vs {leg}", nv, cf, 1e-8)
                yield (f"ipq.nielsen-display.{family.value}.p{p}q{q}",
                       f"I[{family.value}]({p},{q}): named-sum vs Nielsen display",
                       cf, _nielsen_display(family, p, q), 0.0)
                reduction = _reduction_route(family, p, q)
                if reduction is not None:
                    yield (f"ipq.reduction-route.{family.value}.p{p}q{q}",
                           f"I[{family.value}]({p},{q}) vs its difference-equation reduction",
                           cf, reduction, 0.0)
    for family in (Family.PLUS, Family.MINUS):
        for p in range(1, 4):
            for q in range(p + 1, 5):
                # the series route sums different mu-terms at (p,q) and (q,p)
                yield (f"ipq.symmetry.{family.value}.p{p}q{q}",
                       f"I[{family.value}] order symmetry of the series route",
                       ipq_series(family, p, q), ipq_series(family, q, p), 1e-9)
        # odd/even reduction examples at weights 5 and 6
        for p, q, combination in (
                (1, 4, r_value(family, 2, 4) - r_value(family, 3, 3) / 2),
                (2, 3, r_value(family, 3, 3) / 2),
                (1, 5, ipq_final(family, 3, 3) + r_value(family, 2, 5) - r_value(family, 3, 4)),
                (2, 4, -ipq_final(family, 3, 3) + r_value(family, 3, 4))):
            yield (f"ipq.reduction-examples.{family.value}.{p}q{q}",
                   f"I[{family.value}]({p},{q}) vs its R-combination",
                   ipq_final(family, p, q), combination, 0.0)
    for family in Family:
        for p in range(2, 5):
            for q in range(2, 5):
                res = (ipq_final(family, p, q - 1) + ipq_final(family, p - 1, q)
                       - r_value(family, p, q))
                yield (f"ipq.pair-residual.{family.value}.p{p}q{q}",
                       f"I[{family.value}]({p},{q-1}) + I[{family.value}]({p-1},{q}) "
                       f"- R({p},{q})", res, 0, 0.0)
    # n-step shift solution vs single steps
    for (family, p, q, n) in ((Family.PLUS, 1, 4, 2), (Family.MINUS, 1, 4, 3),
                              (Family.MIXED, 2, 4, 2), (Family.PLUS, 2, 3, 1)):
        base = ipq_final(family, p, q)
        stepped = base
        for k in range(n):
            stepped = _recurrence_shift(family, p + k, q - k, 1, stepped)
        yield (f"ipq.shift-solution.{family.value}.p{p}q{q}n{n}",
               f"I[{family.value}] {n}-step shift: closed solution vs iteration",
               _recurrence_shift(family, p, q, n, base), stepped, 0.0)
    # three routes
    for family in Family:
        for p in range(1, 4):
            for q in range(1, 4):
                nv, leg = _ipq_oracle(family, p, q)
                yield (f"ipq.three-routes.{family.value}.p{p}q{q}",
                       f"I[{family.value}]({p},{q}): {leg} vs series vs closed",
                       (nv, ipq_series(family, p, q)), cf_num(ipq_final(family, p, q)), 1e-8)
    for p in (2, 3, 4):
        yield from _low_order_rows(p)


def _nielsen_display(family: Family, p: int, q: int) -> ClosedForm:
    """I(p,q) from its final display in Nielsen terms (s_{r-1,2} and
    sigma~_{r-1,2}) over 2^r, r = p+q, sharing ipq_final's mu block."""
    r = p + q
    t = 2 ** r  # the one denominator
    if family is Family.PLUS:
        body = [(-t, zeta_closed(r + 1), None), (-t, kolbig_snp(r - 1, 2), None)]
    elif family is Family.MIXED:
        body = [(t - 1, zeta_closed(r + 1), None), (-t, sigma_tilde(r - 1, 2), None)]
    else:
        body = [(2 - 2 * t, ClosedForm.atom(LN2), zeta_closed(r)),
                (2 * t - 1, zeta_closed(r + 1), None), (t - 1, kolbig_snp(r - 1, 2), None),
                (-t, zeta_closed(r + 1), None), (-2 * t, milgram(r), None)]
    # (-1)^p [(-1)^p mu_sum + body] = mu_sum + (-1)^p body
    return ClosedForm.combination([(t, _mu_sum(family, p, q), None)]
                                  + [((-1) ** p * c, a, b) for c, a, b in body], t)


def _r_sum(family: Family, p: int, q: int, n: int) -> ClosedForm:
    """The R part of the telescoping solution of I(p,q-1) + I(p-1,q) = R(p,q):
    I(p,q) = (-1)^n I(p+n, q-n) + sum_{k<n} (-1)^k R(p+k+1, q-k)."""
    return ClosedForm.combination(((-1) ** k, r_value(family, p + k + 1, q - k), None)
                                  for k in range(n))


def _recurrence_shift(family: Family, p: int, q: int, n: int, base: ClosedForm) -> ClosedForm:
    """I(p+n, q-n), n >= 1, from I(p, q) = base by the telescoping solution."""
    return (-1) ** n * (base - _r_sum(family, p, q, n))


def _reduction_route(family: Family, p: int, q: int) -> ClosedForm | None:
    """I(p,q) by the telescoping solution shifted n = (q-p)//2 steps to the
    diagonal I(m,m) or near-diagonal I(m,m+1), where a symmetric family has
    I(m,m+1) = R(m+1,m+1)/2; None for the mixed family with q < p."""
    if family.symmetric:
        p, q = min(p, q), max(p, q)
    elif q < p:
        return None
    n = (q - p) // 2
    endpoint = (r_value(family, p + n + 1, p + n + 1) / 2
                if family.symmetric and (q - p) % 2 else ipq_final(family, p + n, q - n))
    return (-1) ** n * endpoint + _r_sum(family, p, q, n)


def _low_order_rows(p: int) -> Iterator[tuple]:
    """Low-order special integrals, each against a closed route and its
    depth-2 polylog form.

    Two of the four identities hold only after correcting commonly printed
    right-hand sides: the all-positive case needs an overall sign on the
    double sum, and the alternating-numerator case needs the outer weight
    on the alternating argument.  Both corrected forms verify to full
    precision.
    """
    ln2 = ClosedForm.atom(LN2)
    lim = (2.0 ** (1 - p) - 1.0) * zeta_num(p)
    # the integral, its integrand, the closed route, the depth-2 route, the note
    for name, integral, ev, closed_text, closed, depth2, note in (
            # -I+-(p,0) = -mpl2(1, p, -1, -1) = zeta(p) ln 2 + I+-(p-1,1) by parts
            ("mixed-q0", f"integral Li_{p}(t)/(1+t)",
             lambda g: map(truediv, li_column(p, 1, g), _one_plus_x(g)),
             f"zeta({p}) ln 2 + I+-({p-1},1)",
             lambda: cf_num(zeta_closed(p) * ln2 + ipq_final(Family.MIXED, p - 1, 1)),
             lambda: -mpl2(1, p, -1.0, -1.0), ""),
            # -I-(p,0) = -mpl2(1, p, -1, +1) = Li_p(-1) ln 2 + I-(p-1,1) by parts
            ("minus-q0", f"integral Li_{p}(-t)/(1+t)",
             lambda g: map(truediv, li_column(p, -1, g), _one_plus_x(g)),
             f"Li_{p}(-1) ln 2 + I-({p-1},1)",
             lambda: cf_num(eta_factor_closed(p) * ln2 + ipq_final(Family.MINUS, p - 1, 1)),
             lambda: -mpl2(1, p, -1.0, 1.0), ""),
            # -I+(1,p-1) = -mpl2(p,1,1,1) - zeta(p+1)
            ("plus-subtracted", f"integral [Li_{p}(t)-Li_{p}(1)]/(1-t)",
             lambda g: map(truediv, map(sub, li_column(p, 1, g), repeat(zeta_num(p))),
                           _one_minus_x(g)),
             f"-I+(1,{p-1})",
             lambda: -cf_num(ipq_final(Family.PLUS, 1, p - 1)),
             lambda: -mpl2(p, 1, 1.0, 1.0) - zeta_num(p + 1),
             "sign-corrected form: the sum enters negated"),
            # -I+-(1,p-1) = -mpl2(p,1,-1,1) + (1-2^-p) zeta(p+1)
            ("mixed-subtracted", f"integral [Li_{p}(-t)-Li_{p}(-1)]/(1-t)",
             lambda g: map(truediv, map(sub, li_column(p, -1, g), repeat(lim)),
                           _one_minus_x(g)),
             f"-I+-(1,{p-1})",
             lambda: -cf_num(ipq_final(Family.MIXED, 1, p - 1)),
             lambda: -mpl2(p, 1, -1.0, 1.0) + (1 - 2.0 ** (-p)) * zeta_num(p + 1),
             "argument-corrected form: the alternating sign sits on "
             "the outer (weight-p) index")):
        lhs = integrate01(ev, ORACLE_TOL).value
        yield f"ipq.low-order.{name}.p{p}", f"{integral} vs {closed_text}", lhs, closed(), 1e-9
        yield (f"ipq.low-order.{name}-mpl.p{p}", f"{integral} vs depth-2 sum",
               lhs, depth2(), 1e-9, note)


# ---------------------------------------------------------------------------
# lognm suite
# ---------------------------------------------------------------------------


def _pi_pow(e: int, c) -> ClosedForm:
    return ClosedForm.atom(PI, e, c)


def expected_inm_table() -> dict[tuple[int, int], ClosedForm]:
    """The i(n,m) table for 1 <= n <= m <= 3, certified by three routes.

    Two entries differ from a commonly printed version of this table: the
    zeta(3) coefficient of i(2,2) is -8 (not -12) and i(2,3) carries +36
    zeta(3) (often omitted); the Beta-derivative route and quadrature agree
    on the values below to machine precision.
    """
    from fractions import Fraction
    z3 = zeta_closed(3)
    z5 = zeta_closed(5)
    return {
        (1, 1): ClosedForm.rational(2) + _pi_pow(2, Fraction(-1, 6)),
        (1, 2): ClosedForm.rational(-6) + _pi_pow(2, Fraction(1, 3)) + 2 * z3,
        (1, 3): (ClosedForm.rational(24) + _pi_pow(2, -1) + _pi_pow(4, Fraction(-1, 15))
                 - 6 * z3),
        (2, 2): (ClosedForm.rational(24) + _pi_pow(2, Fraction(-4, 3))
                 + _pi_pow(4, Fraction(-1, 90)) - 8 * z3),
        (2, 3): (ClosedForm.rational(-120) + _pi_pow(2, 6) + _pi_pow(4, Fraction(1, 6))
                 + 36 * z3 + 24 * z5 - 2 * _pi_pow(2, 1) * z3),
        (3, 3): (ClosedForm.rational(720) + _pi_pow(2, -36) + _pi_pow(4, -1)
                 + _pi_pow(6, Fraction(-23, 420)) - 216 * z3 - 144 * z5
                 + 12 * _pi_pow(2, 1) * z3 + 36 * z3 * z3),
    }


def _rows_lognm() -> Iterator[tuple]:
    table = expected_inm_table()
    corrected = {(2, 2): "zeta(3) coefficient -8; a commonly printed -12 fails "
                         "both quadrature and the Beta-derivative route",
                 (2, 3): "+36 zeta(3) present; omitting it fails quadrature by ~43"}
    for (n, m), cf in sorted(table.items()):
        yield (f"lognm.inm-table.n{n}m{m}", f"i({n},{m}) closed form vs certified table",
               i_closed(n, m), cf, 0.0, corrected.get((n, m), ""))
        yield (f"lognm.inm-numeric.n{n}m{m}", f"i({n},{m}) vs quadrature",
               lognm_numeric("INM", n, m), cf_num(cf), 1e-9)
        yield (f"lognm.inm-symmetry.n{n}m{m}", f"i({n},{m}) = i({m},{n})",
               i_closed(n, m), i_closed(m, n), 0.0)
        yield (f"lognm.inm-beta-route.n{n}m{m}",
               f"i({n},{m}) lattice solution vs Beta derivative",
               i_closed(n, m), beta_derivative_inm(n, m), 0.0)
    h_notes = {
        (1, 2): "sign-corrected: the integrand is negative on (0,1), so h(1,2) < 0",
        (3, 1): "corrected: the weight-4 term is -7 pi^4/120 (a pi^4, not ln^4(2))",
        (1, 4): "six weight-5 terms restored; quadrature pins each coefficient",
    }
    for n in range(1, 5):
        for m in range(1, 5):
            if n + m > 5:
                continue
            cf = h_closed(n, m)
            yield (f"lognm.hnm-numeric.n{n}m{m}", f"h({n},{m}) closed form vs quadrature",
                   lognm_numeric("HNM", n, m), cf, 1e-9, h_notes.get((n, m), ""))
    for m in range(1, 5):
        yield (f"lognm.hnm-boundary.m{m}", f"h(0,{m}) vs (-1)^m m! (2 e_m(-ln2) - 1)",
               lognm_numeric("HNM", 0, m), cf_num((-1) ** m * math.factorial(m) * h_star(0, m)),
               1e-9,
               "the truncated-exponential boundary value needs the "
               "(-1)^m m! factor restored from the starred normalization")
    for n in range(1, 6):
        for m in range(1, 6):
            if n + m > 6:
                continue
            yield (f"lognm.inm-pde.n{n}m{m}", f"i*({n},{m}) difference-equation residual",
                   i_pde_residual(n, m), 0, 0.0)
            yield (f"lognm.hnm-pde.n{n}m{m}", f"h*({n},{m}) difference-equation residual",
                   h_pde_residual(n, m), 0, 0.0)
    for w in range(2, 6):
        for n in range(1, w // 2 + 1):
            yield (f"lognm.s-sigma-network.n{n}m{w - n}",
                   f"s({n},{w - n}) reflection relation residual",
                   _s_sigma_residual(n, w - n), 0, 0.0)
    yield from _sigma_weight6_rows()
    for r in (2, 4, 6, 8):
        yield (f"lognm.sigma-even-route.n{r - 1}p2",
               f"sigma~({r - 1},2) table value vs the even-order S- route",
               sigma_tilde(r - 1, 2),
               _s_minus_decomposed(r, jordan_even) + (2 ** r - 1) * zeta_closed(r + 1) / 2 ** r,
               0.0)
    for (n, p), cf in sorted(registry().items()):
        note = ""
        if (n, p) == (1, 5):
            note = ("ln^3(2) zeta(3) coefficient 7/48: quadrature pins it to 14 "
                    "digits (a commonly printed 7/28 misses by 0.1)")
        yield (f"lognm.sigma-registry.n{n}p{p}",
               f"sigma~({n},{p}) registered closed form vs quadrature",
               atom_value(sigma_atom(n, p)), cf, 1e-9, note)
    for n in range(1, 6):
        for p in range(1, 6):
            if n + p > 6:
                continue
            yield (f"lognm.nielsen-vs-snp.n{n}p{p}",
                   f"S_({n},{p})(1) quadrature vs generating function",
                   nielsen_num(n, p, 1.0), cf_num(kolbig_snp(n, p)), 1e-10)


def _sigma_weight6_rows() -> Iterator[tuple]:
    """The weight-6 sigma~ block: displayed relations plus the rank count.

    The linear network at weight 6 has five unknowns and rank 3, leaving
    two genuinely free constants.  The two displayed combination relations
    are checked against quadrature, and the two closed endpoint entries
    against the alternating series of sigma~ (the registry entries check the
    same closed forms against quadrature).
    """
    unknowns, rank, free = _sigma_weight6_count()
    yield ("lognm.sigma-weight6-rank", "weight-6 sigma~ relation system: rank and free atoms",
           (rank, free) == (3, 2), True, 0.0,
           f"{unknowns} unknowns, rank {rank}, {free} free atoms")
    for i, (coeffs, rhs) in enumerate(_sigma_weight6_relations(), start=1):
        lhs = math.fsum(float(c) * atom_value(sigma_atom(n, p))
                        for (n, p), c in sorted(coeffs.items()))
        yield (f"lognm.sigma-weight6-relation.{i}",
               " + ".join(f"{c}*sigma~({n},{p})" for (n, p), c in sorted(coeffs.items()))
               + " vs closed form", lhs, rhs, 1e-9)
    for key in ((1, 5), (5, 1)):
        yield (f"lognm.sigma-weight6-closed.n{key[0]}p{key[1]}",
               f"sigma~({key[0]},{key[1]}) closed form vs alternating series",
               _sigma_series(*key), sigma_tilde(*key), 1e-9)


def _relation_row(n: int, m: int) -> list[int]:
    """Coefficients of sigma~_{k, n+m-k}, k = 1..n+m-1, in the reflection
    relation for s_{n,m}:

    (-1)^{n+m} s_{n,m} = sum_{k=1}^{n} (-1)^k C(n+m-1-k, m-1) sigma~_{k,n+m-k}
                       + sum_{k=1}^{m} (-1)^k C(n+m-1-k, n-1) sigma~_{k,n+m-k}.
    """
    w = n + m
    row = [0] * (w - 1)
    for k in range(1, n + 1):
        row[k - 1] += (-1) ** k * math.comb(w - 1 - k, m - 1)
    for k in range(1, m + 1):
        row[k - 1] += (-1) ** k * math.comb(w - 1 - k, n - 1)
    return row


def _s_sigma_residual(n: int, m: int) -> ClosedForm:
    """The left side of the reflection relation of _relation_row minus its
    right side: zero whenever every sigma~ it needs has a registered closed
    form (all weights <= 5); at weight 6 an atomic combination that is zero
    in value."""
    w = n + m
    return ClosedForm.combination(
        [((-1) ** w, kolbig_snp(n, m), None)]
        + [(-c, sigma_tilde(k, w - k), None) for k, c in enumerate(_relation_row(n, m), start=1)])


def _rank(rows: list[list[int]]) -> int:
    from fractions import Fraction
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _sigma_weight6_count() -> tuple[int, int, int]:
    """(unknowns, relation rank, free atoms) for the weight-6 sigma~ block:
    one relation row per unordered pair {n, 6 - n}."""
    rows = [_relation_row(n, 6 - n) for n in range(1, 4)]
    rank = _rank(rows)
    unknowns = len(rows[0])
    return unknowns, rank, unknowns - rank


def _sigma_weight6_relations() -> list[tuple[dict[tuple[int, int], int], ClosedForm]]:
    """The two weight-6 relations among the open sigma~_{2,4}, sigma~_{3,3}
    and sigma~_{4,2}: the coefficient of each (n, p), and the closed value."""
    from fractions import Fraction
    z3 = zeta_closed(3)
    pi2, pi6 = ClosedForm.atom(PI, 2), ClosedForm.atom(PI, 6)
    ln2 = [ClosedForm.atom(LN2, e) for e in range(7)]
    li4, li5, li6 = (ClosedForm.atom(li_half_atom(k)) for k in (4, 5, 6))
    rhs1 = ClosedForm.combination([(Fraction(-53, 15120), pi6, None),
                                   (Fraction(-1, 24), pi2, ln2[4]),
                                   (Fraction(1, 18), ln2[6], None),
                                   (Fraction(7, 12), ln2[3], z3),
                                   (Fraction(-1, 2), z3, z3),
                                   (2, ln2[2], li4),
                                   (4, ln2[1], li5),
                                   (4, li6, None)])
    rhs2 = ClosedForm.combination([(Fraction(1, 1512), pi6, None), (Fraction(-1, 2), z3, z3)])
    return [({(2, 4): 2, (4, 2): -1}, rhs1), ({(3, 3): 2, (4, 2): -3}, rhs2)]


def _sigma_series(n: int, p: int) -> float:
    """sigma~_{n,p} = sum_{k>=1} (-1)^k e_{p-1}(1, 1/2, ..., 1/(k-1)) / k^{n+1}
    by CVZ, a second route beside atom_value's quadrature; e_{p-1} is the
    elementary symmetric sum, built up in k for every index CVZ can reach."""
    e = [1.0] + [0.0] * (p - 1)
    top = [0.0]
    for k in range(1, ALTERNATING_TERMS + 1):
        top.append(e[-1])
        for j in range(p - 1, 0, -1):
            e[j] += e[j - 1] / k
    return sum_alternating(lambda k: (-1) ** k * top[k] / float(k) ** (n + 1), ORACLE_TOL)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[[], list[CheckEntry]]] = {
    "sums": lambda: _entries(_rows_sums()),
    "appendix": lambda: _entries(_rows_appendix()),
    "ipq": lambda: _entries(_rows_ipq()),
    "lognm": lambda: _entries(_rows_lognm()),
}


def run_suite(suite: str = "all", tol_scale: float = 1.0,
              overrides: dict[str, float] | None = None) -> VerificationReport:
    """Run one named suite (or all of them), judge it, and return the report.

    The suites return entries at their default tolerances; the scale and
    the overrides are applied here, once, to the numeric entries.
    """
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; expected all, "
                          + ", ".join(sorted(SUITES)))
    overrides = overrides or {}
    # each override is judged as scaled, so a finite pair cannot overflow to inf
    scaled = [(ident, value * tol_scale) for ident, value in overrides.items()]
    for name, value in [("scale", tol_scale), *scaled]:
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"tolerance {name} = {value} is not finite and positive")

    report = VerificationReport()
    for name in sorted(SUITES) if suite == "all" else [suite]:
        report.entries.extend(SUITES[name]())
    numeric = [e for e in report.entries if e.tolerance]
    unknown = sorted(set(overrides).difference(e.identity_id for e in numeric))
    if unknown:
        raise DomainError("tolerance override names no numeric entry of this run: "
                          + ", ".join(unknown))
    for e in numeric:
        e.tolerance = overrides.get(e.identity_id, e.tolerance) * tol_scale
    report.entries.sort(key=lambda e: e.identity_id)
    return report
