"""Exact constant algebra: rational-linear combinations of constant monomials.

A value maps monomials to rational coefficients.  Each monomial is a product
of powers of atomic constants (pi, ln 2, Euler's gamma, odd zeta values,
Li_k(1/2), and open Nielsen sigma constants); the coefficients are stored as
integer numerators over one common denominator (see ``ClosedForm``).  Even
zeta arguments are rewritten as rational multiples of pi powers at
construction, so comparing two closed forms against a table reduces to
term-map equality.  A form keys its numerators by monomial id, an int local
to the process that never leaves this module: a form pickles by monomial.
"""

from __future__ import annotations

import json
import math
from _thread import allocate_lock
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import cache
from operator import itemgetter

from .errors import CapacityError, DomainError

# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

_TAGS = ("pi", "ln2", "gamma", "zeta_odd", "li_half", "sigma")  # display order


class Atom(tuple):
    """One atomic constant; ``args`` disambiguates parametric families.

    A (rank, args) tuple underneath, rank the index of its tag in _TAGS, so
    atoms (and the monomials that hold them) sort in display order by their
    own tuples, and hash and compare in C.  An unknown tag is a DomainError.
    """

    __slots__ = ()
    tag = property(lambda self: _TAGS[self[0]])
    args = property(itemgetter(1))

    def __new__(cls, tag: str, args: tuple = ()):
        if tag not in _TAGS:
            raise DomainError(f"unknown atom kind {tag!r}")
        return tuple.__new__(cls, (_TAGS.index(tag), args))

    def __getnewargs__(self):
        return self.tag, self.args

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


def _check_order(n: int, least: int) -> int:
    """The one order rule: an integer order the paper indexes its quantities
    by (Li_p, S_{n,p}, I(p,q), i(n,m), h(n,m), S+-(r), ...) must have an
    integral value no smaller than least, else DomainError (3.5, inf and nan
    are not integers).  Returns the order as an int, so 3.0 is answered
    exactly as 3.

    Every order-taking entry point binds each of its orders through it at
    entry; a memoized builder does so in its body, so no cache hit skips the
    check and no rejected order is ever cached.  Other guards test only what
    a least value cannot: parity, or a relation between arguments.  One
    order per call, with no keyword: the builders call it on every call, so
    its int path is kept to a type test and a comparison.
    """
    if type(n) is not int:
        if n % 1:  # nan % 1 and inf % 1 are nan, which is true
            raise DomainError(f"order {n!r} is not an integer")
        n = int(n)
    if n < least:
        raise DomainError(f"order {n} is below its least value {least}")
    return n


def zeta_odd_atom(n: int) -> Atom:
    n = _check_order(n, 3)
    if n % 2 == 0:
        raise DomainError(f"zeta atom requires odd n >= 3, got {n}")
    return Atom("zeta_odd", (n,))


def li_half_atom(k: int) -> Atom:
    return Atom("li_half", (_check_order(k, 4),))


def sigma_atom(n: int, p: int) -> Atom:
    return Atom("sigma", (_check_order(n, 1), _check_order(p, 1)))


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of (atom, positive int exponent); () is the unit.
Monomial = tuple

UNIT: Monomial = ()


def monomial(*pairs: tuple[Atom, int]) -> Monomial:
    """The canonical monomial of (atom, exponent) pairs; each exponent is
    bound by _check_order(exp, 0), so 2.0 is 2 and 2.5 is a DomainError."""
    acc: dict[Atom, int] = {}
    for atom, exp in pairs:
        exp = _check_order(exp, 0)
        if exp:
            acc[atom] = acc.get(atom, 0) + exp
    return tuple(sorted(acc.items()))


# The intern table: an id indexes _MONOMIALS, _IDS maps each canonical
# monomial back, and id 0 is the unit.  Append-only, and no cache clear
# empties it: live forms hold ids.  Builders make monomials of weight at most
# MAX_WEIGHT, so it grows no further than _monomial_product's cache.
_MONOMIALS: list[Monomial] = [UNIT]
_IDS: dict[Monomial, int] = {UNIT: 0}
_INTERN_LOCK = allocate_lock()


def _intern(m: Monomial) -> int:
    """The id of the canonical monomial m.  A lookup takes no lock; a new
    monomial is appended under it and entered in _IDS only after, so no
    thread sees an id before its monomial, or two ids for one monomial."""
    i = _IDS.get(m)
    if i is None:
        with _INTERN_LOCK:
            i = _IDS.get(m)
            if i is None:
                _MONOMIALS.append(m)
                i = _IDS[m] = len(_MONOMIALS) - 1
    return i


def _id(key) -> int:
    """The id of a public monomial key: found, else canonicalized and interned."""
    i = _IDS.get(key)
    return _intern(monomial(*key)) if i is None else i


@cache
def _monomial_product(i: int, j: int) -> int:
    """The id of the product of the monomials with ids i and j."""
    return _intern(monomial(*_MONOMIALS[i], *_MONOMIALS[j]))


def monomial_name(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(a.name if e == 1 else f"{a.name}^{e}" for a, e in m)


@cache
def _monomial_json(i: int) -> str:
    """A serialized term's middle, from the end of its den to the start of its
    num (monomial id i), with the sorted keys and compact separators of to_json."""
    m = _MONOMIALS[i]
    return ('","monomial":' + json.dumps([[a.name, e] for a, e in m], separators=(",", ":"))
            + ',"num":"')


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


class ClosedForm:
    """Finite rational-linear combination of constant monomials.

    Immutable.  The coefficients are integer numerators ``_num`` over one
    common denominator ``_den`` (the layout of FLINT's ``fmpq_poly``), kept
    canonical: ``_den > 0``, no numerator zero, ``gcd(_den, *numerators) ==
    1``.  So equality is exact term-map equality.  Arithmetic works on the
    integers and ends with one variadic ``math.gcd`` (in ``_reduced``), where
    ``Fraction`` values would pay a gcd per coefficient.  The builders fold a
    whole display, sum c * a * b / den over its terms, with ``combination``:
    one lcm and one gcd in total, where a chain of operators pays a gcd per
    step.  A display whose coefficients share one denominator (2^r, w, m!)
    passes it as ``den`` with integer numerators, so it builds no
    ``Fraction``.  ``terms`` and ``coefficient`` hand out ``Fraction`` values.

    ``_num`` is keyed by process-local monomial ids, so the arithmetic
    hashes ints.  Every public method takes or gives monomials, and a form
    pickles and copies by monomial.  The constructor canonicalizes each key:
    ``{((LN2, 1), (PI, 2)): 1}`` is pi^2 ln 2, and alike keys add up.

    ``evaluate`` divides each numerator by ``_den``: that int/int division
    is correctly rounded, as ``float(Fraction)`` is, so every decimal keeps
    its bits.  ``to_json`` writes the bytes of ``json.dumps(to_obj(),
    sort_keys=True, separators=(",", ":"))`` directly, with a cached
    fragment per monomial.  A verify suite's exact entry passes on
    ``lhs == rhs``; only a failing one builds ``lhs - rhs`` to record it.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        coeffs = {}
        for mono, c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise DomainError(f"coefficient {c!r} is not an int or a Fraction")
            i = _id(mono)
            coeffs[i] = coeffs[i] + c if i in coeffs else c
        # each c is in lowest terms and den is the lcm of their denominators
        # (a zero's is 1), so the scaled numerators share no factor with den
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._num = {i: c.numerator * (den // c.denominator) for i, c in coeffs.items() if c}
        self._den = den

    @classmethod
    def _canonical(cls, num: dict[int, int], den: int) -> "ClosedForm":
        """A form from a map that already meets the class invariant."""
        out = object.__new__(cls)
        out._num = num
        out._den = den
        return out

    @classmethod
    def _reduced(cls, num: dict[int, int], den: int) -> "ClosedForm":
        """A form from nonzero numerators over a positive den: divide out the gcd."""
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
        return cls._canonical(num, den)

    @classmethod
    def combination(cls, terms, den: int = 1) -> "ClosedForm":
        """sum c * a * b / den over triples (c, a, b): c an int or Fraction,
        a a form, b a form or None (then the term is c * a), den a positive
        int by _check_order.  One lcm over the terms' denominators, the
        integer numerators summed in one dict, and one gcd in _reduced.
        """
        scale = _check_order(den, 1)
        terms = tuple(terms)
        dens = [c.denominator * a._den * (1 if b is None else b._den) for c, a, b in terms]
        den = math.lcm(*dens)
        acc: dict[int, int] = {}
        get = acc.get
        for (c, a, b), d in zip(terms, dens):
            s = c.numerator * (den // d)
            if b is None:
                for m, n in a._num.items():
                    acc[m] = get(m, 0) + s * n
            else:
                for m1, n1 in a._num.items():
                    n1 *= s
                    for m2, n2 in b._num.items():
                        # id 0 is the unit: a unit factor needs no product
                        m = _monomial_product(m1, m2) if m1 and m2 else m1 or m2
                        acc[m] = get(m, 0) + n1 * n2
        return cls._reduced({m: n for m, n in acc.items() if n}, den * scale)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ClosedForm":
        return cls._canonical({}, 1)

    @classmethod
    def one(cls) -> "ClosedForm":
        return cls._canonical({0: 1}, 1)

    @classmethod
    def rational(cls, value) -> "ClosedForm":
        return cls({UNIT: value})

    @classmethod
    def atom(cls, a: Atom, exp: int = 1, coeff=1) -> "ClosedForm":
        return cls({((a, exp),): coeff})  # canonicalized once, if not interned

    # -- access ------------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        den = self._den
        return {_MONOMIALS[i]: Fraction(c, den) for i, c in self._num.items()}

    def coefficient(self, m: Monomial) -> Fraction:
        return Fraction(self._num.get(_id(m), 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def atoms(self) -> set[Atom]:
        return {a for i in self._num for a, _ in _MONOMIALS[i]}

    # -- arithmetic ---------------------------------------------------------

    def _sum(self, other, sign: int) -> "ClosedForm":
        """self + sign * other for a ClosedForm, int or Fraction other."""
        if isinstance(other, ClosedForm):
            onum, oden = other._num, other._den
        elif isinstance(other, (int, Fraction)):
            onum, oden = ({0: other.numerator} if other else {}), other.denominator
        else:
            return NotImplemented
        if not onum:
            return self
        num, den = self._num, self._den
        if den == oden:
            acc = dict(num)
            scale = sign
        else:
            lcm = math.lcm(den, oden)
            f = lcm // den
            acc = {m: c * f for m, c in num.items()}
            scale = sign * (lcm // oden)
            den = lcm
        for m, c in onum.items():
            c *= scale
            if m in acc:
                c += acc[m]
                if not c:
                    del acc[m]
                    continue
            acc[m] = c
        return ClosedForm._reduced(acc, den)

    def _scaled(self, n: int, d: int) -> "ClosedForm":
        """self * n / d for d > 0."""
        if not n:
            return ClosedForm.zero()
        return ClosedForm._reduced({m: c * n for m, c in self._num.items()}, self._den * d)

    def __add__(self, other) -> "ClosedForm":
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "ClosedForm":
        return ClosedForm._canonical({m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "ClosedForm":
        return self._sum(other, -1)

    def __rsub__(self, other) -> "ClosedForm":
        out = self._sum(other, -1)
        return out if out is NotImplemented else -out

    def __mul__(self, other) -> "ClosedForm":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, ClosedForm):
            return NotImplemented
        acc: dict[int, int] = {}
        for m1, c1 in self._num.items():
            for m2, c2 in other._num.items():
                m = _monomial_product(m1, m2) if m1 and m2 else m1 or m2
                c = c1 * c2
                if m in acc:
                    c += acc[m]
                    if not c:
                        del acc[m]
                        continue
                acc[m] = c
        return ClosedForm._reduced(acc, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ClosedForm":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise DomainError("division of a closed form by zero")
        n, d = other.numerator, other.denominator
        return self._scaled(-d, -n) if n < 0 else self._scaled(d, n)

    def __pow__(self, exp: int) -> "ClosedForm":
        if not isinstance(exp, int) or exp < 0:
            raise DomainError("closed forms support nonnegative integer powers only")
        out = ClosedForm.one()
        for _ in range(exp):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, ClosedForm):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return (self._num.keys() <= {0} and self._den == other.denominator
                    and self._num.get(0, 0) == other.numerator)
        return NotImplemented

    def __hash__(self):
        # a pure-rational form (zero included) equals its Fraction: hash as one
        if self._num.keys() <= {0}:
            return hash(self.coefficient(UNIT))
        return hash(frozenset(self.terms.items()))

    def __getstate__(self):  # copy and pickle by monomial: ids are process-local
        return {_MONOMIALS[i]: c for i, c in self._num.items()}, self._den

    def __setstate__(self, state):
        num, self._den = state
        self._num = {_id(m): c for m, c in num.items()}

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, value: Callable[[Atom], float]) -> float:
        # n / den is correctly rounded, as float(Fraction(n, den)) is, so each
        # term, and the correctly rounded fsum, keeps its bits
        den = self._den
        parts = []
        for i, c in self._num.items():
            v = c / den
            for a, e in _MONOMIALS[i]:
                v *= value(a) ** e
            parts.append(v)
        return math.fsum(parts)

    # -- serialization ---------------------------------------------------------

    def _sorted_terms(self):
        """(monomial id, numerator, denominator) in lowest terms, in display
        order: sorted by the monomials themselves."""
        den = self._den
        for i in sorted(self._num, key=_MONOMIALS.__getitem__):
            c = self._num[i]
            g = math.gcd(c, den)
            yield i, c // g, den // g

    def to_obj(self) -> dict:
        return {"terms": [{"monomial": [[a.name, e] for a, e in _MONOMIALS[i]],
                           "num": str(n), "den": str(d)}
                          for i, n, d in self._sorted_terms()]}

    def to_json(self) -> str:
        """The bytes of json.dumps(to_obj(), sort_keys=True, separators=(",", ":")),
        written directly: one join over the terms, a cached fragment per monomial."""
        return '{"terms":[' + ",".join(
            f'{{"den":"{d}{_monomial_json(i)}{n}"}}'
            for i, n, d in self._sorted_terms()) + "]}"

    # -- display -----------------------------------------------------------------

    def pretty(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for i, n, d in self._sorted_terms():
            mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            if not i:
                body = mag
            elif mag == "1":
                body = monomial_name(_MONOMIALS[i])
            else:
                body = f"{mag}*{monomial_name(_MONOMIALS[i])}"
            parts.append(("-" if n < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"ClosedForm({self.pretty()})"


# ---------------------------------------------------------------------------
# the weight ceiling, Bernoulli numbers and zeta closed forms
# ---------------------------------------------------------------------------

MAX_WEIGHT = 18  # the one weight limit of every exact builder, zeta_closed up


def _check_weight(weight: int, max_weight: int = MAX_WEIGHT) -> None:
    cap = min(max_weight, MAX_WEIGHT)
    if weight > cap:
        raise CapacityError(f"weight {weight} above cap {cap} (ceiling MAX_WEIGHT = {MAX_WEIGHT})")


@cache
def bernoulli_fraction(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention, exact.

    An even index reads the tangent number T_m, m = n/2, from the integer
    recurrence of Knuth and Buckholtz:
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)).  Memoized.
    """
    n = _check_order(n, 0)
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    t = [0, 1]  # t[k] = T_k once the sweeps are done
    for k in range(2, m + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return Fraction((-1) ** (m - 1) * n * t[m], 4 ** m * (4 ** m - 1))


def zeta_even_coefficient(n: int) -> Fraction:
    """Rational c with zeta(n) = c * pi^n, for even n >= 2."""
    if n % 2:
        raise DomainError(f"even zeta argument required, got {n}")
    m = n // 2
    return Fraction((-1) ** (m + 1)) * bernoulli_fraction(n) * Fraction(2 ** n, 2 * math.factorial(n))


@cache
def zeta_closed(n: int) -> ClosedForm:
    """zeta(n) as a closed form: pi-power for even n, atomic for odd n.

    Memoized; a ClosedForm is immutable, so every caller may share it.  The
    weight n is held to MAX_WEIGHT, which bounds the Bernoulli recurrence.
    """
    n = _check_order(n, 2)  # the n = 1 limit lives in eta_factor_closed
    _check_weight(n)
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


@cache
def eta_factor_closed(n: int) -> ClosedForm:
    """(2^{1-n} - 1) * zeta(n) = Li_n(-1), with the n = 1 limit -ln 2; memoized.
    The weight n is checked before 2^(n-1) is built."""
    n = _check_order(n, 1)
    if n == 1:
        return ClosedForm.atom(LN2, 1, -1)
    _check_weight(n)
    return Fraction(1 - 2 ** (n - 1), 2 ** (n - 1)) * zeta_closed(n)
