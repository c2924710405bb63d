"""Exact constant algebra: rational-linear combinations of constant monomials.

A value is a map ``{monomial -> Fraction}`` where each monomial is a product
of powers of atomic constants (pi, ln 2, Euler's gamma, odd zeta values,
Li_k(1/2), and open Nielsen sigma constants).  Even zeta arguments are
rewritten as rational multiples of pi powers at construction, so comparing
two closed forms against a table reduces to term-map equality.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import cache
from operator import itemgetter

from .errors import DomainError

# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

_TAG_ORDER = {
    "pi": 0,
    "ln2": 1,
    "gamma": 2,
    "zeta_odd": 3,
    "li_half": 4,
    "sigma": 5,
}


class Atom(tuple):
    """One atomic constant; ``args`` disambiguates parametric families.

    A (tag, args) tuple underneath, so hashing and comparing an atom (and
    every monomial that holds one) runs in C.
    """

    __slots__ = ()
    tag = property(itemgetter(0))
    args = property(itemgetter(1))

    def __new__(cls, tag: str, args: tuple = ()):
        return tuple.__new__(cls, (tag, args))

    def __getnewargs__(self):
        return tuple(self)

    def sort_key(self):
        return (_TAG_ORDER[self.tag], self.args)

    @property
    def name(self) -> str:
        if self.tag == "zeta_odd":
            return f"zeta{self.args[0]}"
        if self.tag == "li_half":
            return f"li{self.args[0]}_half"
        if self.tag == "sigma":
            return f"sigma_{self.args[0]}_{self.args[1]}"
        return self.tag

    def __repr__(self):
        return f"Atom({self.name})"


PI = Atom("pi")
LN2 = Atom("ln2")
GAMMA = Atom("gamma")


def zeta_odd_atom(n: int) -> Atom:
    if n < 3 or n % 2 == 0:
        raise DomainError(f"zeta atom requires odd n >= 3, got {n}")
    return Atom("zeta_odd", (n,))


def li_half_atom(k: int) -> Atom:
    if k < 4:
        raise DomainError(f"Li_k(1/2) atom requires k >= 4, got {k}")
    return Atom("li_half", (k,))


def sigma_atom(n: int, p: int) -> Atom:
    if n < 1 or p < 1:
        raise DomainError(f"sigma atom requires n, p >= 1, got ({n}, {p})")
    return Atom("sigma", (n, p))


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of (atom, positive exponent); () is the unit.
Monomial = tuple

UNIT: Monomial = ()


def monomial(*pairs: tuple[Atom, int]) -> Monomial:
    acc: dict[Atom, int] = {}
    for atom, exp in pairs:
        if exp == 0:
            continue
        if exp < 0:
            raise DomainError("monomial exponents must be positive")
        acc[atom] = acc.get(atom, 0) + exp
    return tuple(sorted(acc.items(), key=lambda it: it[0].sort_key()))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return monomial(*a, *b)


def monomial_name(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(a.name if e == 1 else f"{a.name}^{e}" for a, e in m)


def _monomial_key(m: Monomial):
    return tuple((a.sort_key(), e) for a, e in m)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


class ClosedForm:
    """Finite rational-linear combination of constant monomials.

    Immutable; the constructor alone drops zero coefficients, so equality is
    exact term-map equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c:
                clean[mono] = c
        object.__setattr__(self, "_terms", clean)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ClosedForm":
        return cls()

    @classmethod
    def one(cls) -> "ClosedForm":
        return cls({UNIT: Fraction(1)})

    @classmethod
    def rational(cls, value) -> "ClosedForm":
        return cls({UNIT: value})

    @classmethod
    def atom(cls, a: Atom, exp: int = 1, coeff=1) -> "ClosedForm":
        return cls({monomial((a, exp)): coeff})

    # -- access ------------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def atoms(self) -> set[Atom]:
        return {a for mono in self._terms for a, _ in mono}

    def sigma_atoms(self) -> list[Atom]:
        return sorted((a for a in self.atoms() if a.tag == "sigma"),
                      key=Atom.sort_key)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "ClosedForm | None":
        if isinstance(other, ClosedForm):
            return other
        if isinstance(other, (int, Fraction)):
            return ClosedForm.rational(other)
        return None

    def __add__(self, other) -> "ClosedForm":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for mono, coeff in o._terms.items():
            acc[mono] = acc[mono] + coeff if mono in acc else coeff
        return ClosedForm(acc)

    __radd__ = __add__

    def __neg__(self) -> "ClosedForm":
        return ClosedForm({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "ClosedForm":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "ClosedForm":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "ClosedForm":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                m = monomial_mul(m1, m2)
                acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
        return ClosedForm(acc)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ClosedForm":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exp: int) -> "ClosedForm":
        if exp < 0:
            raise DomainError("closed forms support nonnegative integer powers only")
        out = ClosedForm.one()
        for _ in range(exp):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        # a pure-rational form (zero included) equals its Fraction: hash as one
        if self._terms.keys() <= {UNIT}:
            return hash(self._terms.get(UNIT, 0))
        return hash(frozenset(self._terms.items()))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, value: Callable[[Atom], float]) -> float:
        # fsum is correctly rounded, so the result does not depend on term order
        parts = []
        for mono, c in self._terms.items():
            v = float(c)
            for a, e in mono:
                v *= value(a) ** e
            parts.append(v)
        return math.fsum(parts)

    # -- serialization ---------------------------------------------------------

    def to_obj(self) -> dict:
        terms = []
        for mono in sorted(self._terms, key=_monomial_key):
            c = self._terms[mono]
            terms.append({
                "monomial": [[a.name, e] for a, e in mono],
                "num": str(c.numerator),
                "den": str(c.denominator),
            })
        return {"terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    # -- display -----------------------------------------------------------------

    def pretty(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms, key=_monomial_key):
            c = self._terms[mono]
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = monomial_name(mono)
            else:
                body = f"{mag}*{monomial_name(mono)}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"ClosedForm({self.pretty()})"


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta closed forms
# ---------------------------------------------------------------------------

@cache
def bernoulli_fraction(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention, exact.

    Memoized; the recurrence asks for B_0..B_{n-1} in increasing order, so
    the recursion is never more than two calls deep.
    """
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    s = sum(math.comb(n + 1, j) * bernoulli_fraction(j) for j in range(n))
    return Fraction(-s, n + 1)


def zeta_even_coefficient(n: int) -> Fraction:
    """Rational c with zeta(n) = c * pi^n, for even n >= 2."""
    if n < 2 or n % 2:
        raise DomainError(f"even zeta argument required, got {n}")
    m = n // 2
    return Fraction((-1) ** (m + 1)) * bernoulli_fraction(n) * Fraction(2 ** n, 2 * math.factorial(n))


def zeta_closed(n: int) -> ClosedForm:
    """zeta(n) as a closed form: pi-power for even n, atomic for odd n."""
    if n < 2:
        raise DomainError("zeta(n) requires n >= 2 (the n = 1 limit lives in eta_factor_closed)")
    if n % 2 == 0:
        return ClosedForm.atom(PI, n, zeta_even_coefficient(n))
    return ClosedForm.atom(zeta_odd_atom(n))


def zeta_nonpositive_rational(n: int) -> Fraction:
    """zeta(n) for integer n <= 0 via Bernoulli numbers."""
    if n > 0:
        raise DomainError("nonpositive argument required")
    if n == 0:
        return Fraction(-1, 2)
    k = 1 - n
    return -bernoulli_fraction(k) / k


def eta_factor_closed(n: int) -> ClosedForm:
    """(2^{1-n} - 1) * zeta(n) = Li_n(-1), with the n = 1 limit -ln 2."""
    if n < 1:
        raise DomainError("eta_factor_closed requires n >= 1")
    if n == 1:
        return ClosedForm.atom(LN2, 1, -1)
    return Fraction(1 - 2 ** (n - 1), 2 ** (n - 1)) * zeta_closed(n)
