"""Exact constant algebra: rational-linear combinations of constant monomials.

A value maps monomials to rational coefficients.  Each monomial is a product
of powers of atomic constants (pi, ln 2, Euler's gamma, odd zeta values,
Li_k(1/2), and open Nielsen sigma constants); the coefficients are stored as
integer numerators over one common denominator (see ``ClosedForm``).  Even
zeta arguments are rewritten as rational multiples of pi powers at
construction, so comparing two closed forms against a table reduces to
term-map equality.  A form keys its numerators by monomial id, an int local
to the process that never leaves this module: a form pickles by monomial.

The module also holds the exact rationals the builders read (the Bernoulli
numbers, the zeta(2n) coefficients and zeta(1 - k), as int pairs) and, in
the same integers, the correctly rounded floats zeta(s), eta(s) and
Li_k(1/2) that the numeric oracle reads.
"""

from __future__ import annotations

import json
import math
from _thread import allocate_lock
from collections.abc import Callable, Mapping
from functools import cache, wraps
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

MAX_WEIGHT = 18  # the one weight limit of every exact builder, zeta_closed up
# From this order on k^-p rounds to 0.0 for every k >= 2 (2^-1075 is half the
# smallest subnormal), so a float series in k^-p is its k = 1 term: the
# oracles read a larger order as this one, which gives the same bits and keeps
# an order past the float range from converting to float.
FLOAT_ORDER = 1075
# the deepest Bernoulli index, zeta(1 - k) and truncation depth served:
# approx._derivative_cf reads zeta down to zeta(-97) at depth MAX_KT, and
# special._zeta_int down to zeta(-78)
MAX_KT = 100


def _check_order(n: int, least: int) -> int:
    """The one order rule, which builder applies to every order: an order (Li_p,
    S_{n,p}, I(p,q), i(n,m), h(n,m), S+-(r), ...) is integral and at least least,
    else DomainError (3.5, inf and nan are not); returned as an int, so 3.0 is 3."""
    if type(n) is not int:
        if n % 1:  # nan % 1 and inf % 1 are nan, which is true
            raise DomainError(f"order {n!r} is not an integer")
        n = int(n)
    if n < least:
        raise DomainError(f"order {n} is below its least value {least}")
    return n


def _check_weight(weight: int, max_weight: int = MAX_WEIGHT) -> None:
    cap = min(max_weight, MAX_WEIGHT)
    if weight > cap:
        raise CapacityError(f"weight {weight} above cap {cap} (ceiling MAX_WEIGHT = {MAX_WEIGHT})")


def _declaration(least: tuple, weight: int | None, memoize: bool):
    orders, arity = [(i, lo) for i, lo in enumerate(least) if lo is not None], len(least)
    assert len(orders) <= 2, "a declaration binds at most two orders"

    def declare(fn):
        if not orders:
            return cache(fn) if memoize else fn
        (i, lo_i), (j, lo_j) = orders[0], orders[-1]  # a lone order is checked twice

        @wraps(fn)
        def bound(*args, **kwargs):
            if len(args) < arity:
                raise TypeError(f"{fn.__qualname__}() takes its orders by position")
            n, m = args[i], args[j]
            if type(n) is not int or n < lo_i or type(m) is not int or m < lo_j:
                # bind, or raise, and come back with ints
                ints = [a if low is None else _check_order(a, low) for a, low in zip(args, least)]
                return entry(*ints, *args[arity:], **kwargs)
            if weight is not None and (w := weight + (n if i == j else n + m)) > MAX_WEIGHT:
                _check_weight(w)
            return fn(*args, **kwargs) if kwargs else fn(*args)

        entry = cache(bound) if memoize else bound
        return entry
    return declare


def builder(*least: int | None, weight: int | None = None):
    """Declare a pure builder by the least value of each of its (at most two)
    orders, by position, None for an argument that is not an order, and by
    its weight less the sum of its orders: I(p,q), of weight p+q+1, is
    @builder(None, 1, 1, weight=1).  A functools.cache, outermost, so a hit
    is a C lookup; a miss binds the orders, holds the weight to MAX_WEIGHT,
    then runs the body, and a non-int order (3.0) returns its ints' entry."""
    return _declaration(least, weight, memoize=True)


def bind_orders(*least: int | None, weight: int | None = None):
    """builder without the cache, for the float kernels and oracles and BivariateSeries."""
    return _declaration(least, weight, memoize=False)


@builder(3)
def zeta_odd_atom(n: int) -> Atom:
    if n % 2 == 0:
        raise DomainError(f"zeta atom requires odd n >= 3, got {n}")
    return Atom("zeta_odd", (n,))


@builder(4)
def li_half_atom(k: int) -> Atom:
    return Atom("li_half", (k,))


@builder(1, 1)
def sigma_atom(n: int, p: int) -> Atom:
    return Atom("sigma", (n, p))


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


def _ratio(c) -> tuple[int, int] | None:
    """(numerator, denominator) of an exact rational c: an int, or any value
    whose numerator and denominator are ints, the denominator positive (a
    Fraction is one).  None for anything else, a float included."""
    n, d = getattr(c, "numerator", None), getattr(c, "denominator", None)
    if isinstance(n, int) and isinstance(d, int) and d > 0:
        return n, d
    return None


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
    passes it as ``den`` with integer numerators.

    ``Fraction`` appears only at the edges.  A coefficient may be an int or
    any exact rational whose ``numerator`` and ``denominator`` are ints (a
    ``Fraction`` is one); a float is refused.  ``terms`` and
    ``coefficient`` hand out ``Fraction`` values and ``__hash__`` hashes
    them, each importing ``fractions`` only when called; ``ratios`` gives
    the coefficients as int pairs.  No builder and no query makes a
    ``Fraction``, so ``import polylog`` loads neither ``fractions`` nor
    ``decimal``.

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

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        parts = []
        for mono, c in (terms or {}).items():
            r = (c, 1) if type(c) is int else _ratio(c)
            if r is None:
                raise DomainError(f"coefficient {c!r} is not an int or an exact rational")
            parts.append((_id(mono), *r))
        # the numerators over the lcm of the denominators, alike keys added
        den = math.lcm(*(d for _, _, d in parts))
        acc: dict[int, int] = {}
        for i, n, d in parts:
            acc[i] = acc.get(i, 0) + n * (den // d)
        form = ClosedForm._reduced({i: n for i, n in acc.items() if n}, den)
        self._num, self._den = form._num, form._den

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
        """sum c * a * b / den over triples (c, a, b): c an int or rational,
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
    def terms(self) -> dict:
        """{monomial: Fraction coefficient}."""
        from fractions import Fraction
        den = self._den
        return {_MONOMIALS[i]: Fraction(c, den) for i, c in self._num.items()}

    def coefficient(self, m: Monomial):
        """The Fraction coefficient of the monomial m, zero if absent."""
        from fractions import Fraction
        return Fraction(self._num.get(_id(m), 0), self._den)

    def ratios(self) -> dict[Monomial, tuple[int, int]]:
        """{monomial: (numerator, denominator)}, each in lowest terms: the
        coefficients of terms as int pairs, in display order."""
        return {_MONOMIALS[i]: (n, d) for i, n, d in self._sorted_terms()}

    @property
    def is_zero(self) -> bool:
        return not self._num

    def atoms(self) -> set[Atom]:
        return {a for i in self._num for a, _ in _MONOMIALS[i]}

    # -- arithmetic ---------------------------------------------------------

    def _sum(self, other, sign: int) -> "ClosedForm":
        """self + sign * other for a ClosedForm, int or rational other."""
        if isinstance(other, ClosedForm):
            onum, oden = other._num, other._den
        elif isinstance(other, int):
            onum, oden = ({0: other} if other else {}), 1
        else:
            r = _ratio(other)
            if r is None:
                return NotImplemented
            onum, oden = ({0: r[0]} if r[0] else {}), r[1]
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
        if isinstance(other, int):
            return self._scaled(other, 1)
        if not isinstance(other, ClosedForm):
            r = _ratio(other)
            return NotImplemented if r is None else self._scaled(*r)
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
        r = (other, 1) if isinstance(other, int) else _ratio(other)
        if r is None:
            return NotImplemented
        n, d = r
        if not n:
            raise DomainError("division of a closed form by zero")
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
        r = _ratio(other)
        if r is None:
            return NotImplemented
        return self._num.keys() <= {0} and (self._num.get(0, 0), self._den) == r

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
# Bernoulli numbers and zeta closed forms
# ---------------------------------------------------------------------------

def _lowest(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms, for den > 0."""
    g = math.gcd(num, den)
    return num // g, den // g


@builder(0)
def bernoulli(n: int) -> tuple[int, int]:
    """B_n with the B_1 = -1/2 convention, exact: (numerator, denominator)
    in lowest terms.

    An even index reads the tangent number T_m, m = n/2, from the integer
    recurrence of Knuth and Buckholtz:
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)).  Memoized; an index past
    MAX_KT is a CapacityError.
    """
    if n > MAX_KT:
        raise CapacityError(f"Bernoulli index {n} above cap MAX_KT = {MAX_KT}")
    if n < 2:
        return (1, 1) if n == 0 else (-1, 2)
    if n % 2:
        return 0, 1
    m = n // 2
    t = [0, 1]  # t[k] = T_k once the sweeps are done
    for k in range(2, m + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return _lowest((-1) ** (m - 1) * n * t[m], 4 ** m * (4 ** m - 1))


@builder(2)
def zeta_even_coefficient(n: int) -> tuple[int, int]:
    """The rational c with zeta(n) = c * pi^n, for even n >= 2, as
    (numerator, denominator) in lowest terms.  Past 2 MAX_WEIGHT, the
    deepest zeta that gamma_ratio_series reads (the box of two orders
    MAX_WEIGHT), a CapacityError."""
    if n > 2 * MAX_WEIGHT:
        raise CapacityError(f"zeta({n}) above cap 2 * MAX_WEIGHT = {2 * MAX_WEIGHT}")
    if n % 2:
        raise DomainError(f"even zeta argument required, got {n}")
    b, d = bernoulli(n)
    # (-1)^(n/2 + 1) B_n 2^n / (2 n!)
    return _lowest((-1) ** (n // 2 + 1) * b * 2 ** (n - 1), d * math.factorial(n))


@builder(2, weight=0)  # the n = 1 limit lives in eta_factor_closed
def zeta_closed(n: int) -> ClosedForm:
    """zeta(n) as a closed form: pi-power for even n, atomic for odd n."""
    if n % 2 == 0:
        num, den = zeta_even_coefficient(n)
        return ClosedForm.atom(PI, n, num) / den
    return ClosedForm.atom(zeta_odd_atom(n))


@builder(None)
def zeta_nonpositive_rational(n: int) -> tuple[int, int]:
    """zeta(n) for integer n <= 0, -B_k/k at k = 1 - n, as (numerator, denominator)
    in lowest terms; k is bernoulli's order, and past MAX_KT a CapacityError."""
    if n > 0:
        raise DomainError("nonpositive argument required")
    if n == 0:
        return -1, 2
    k = 1 - n
    b, d = bernoulli(k)  # which binds k, so int(k) is exact
    return _lowest(-b, d * int(k))


@builder(1, weight=0)
def eta_factor_closed(n: int) -> ClosedForm:
    """(2^{1-n} - 1) * zeta(n) = Li_n(-1), with the n = 1 limit -ln 2; memoized."""
    if n == 1:
        return ClosedForm.atom(LN2, 1, -1)
    return (1 - 2 ** (n - 1)) * zeta_closed(n) / 2 ** (n - 1)


# ---------------------------------------------------------------------------
# zeta, eta and Li_k(1/2) as correctly rounded floats, in integers
# ---------------------------------------------------------------------------

# The acceleration of Cohen, Rodriguez Villegas and Zagier (Exp. Math. 9,
# 2000) at _CVZ_TERMS terms errs by at most 2 (3 + sqrt 8)^-36, about 6e-28,
# on an alternating sum of moments such as eta(s); each term is floored to
# a multiple of 1/_SCALE.  Every value is then within about 1e-27 of exact,
# and each is rounded once, by an int/int division: all zeta(2..1075),
# eta(1..1075) and Li_k(1/2), k = 1..1075, are correctly rounded.
_CVZ_TERMS = 36
_SCALE = 10 ** 32


@cache
def _cvz_integer_weights() -> tuple[tuple[int, ...], int]:
    """The CVZ weights c_k, k < n, and divisor d_n at n = _CVZ_TERMS, exact:
    sum_k c_k a_k / d_n is sum_k (-1)^k a_k.  d_n = ((3 + sqrt 8)^n +
    (3 - sqrt 8)^n) / 2 comes from d_k = 6 d_(k-1) - d_(k-2), d_0 = 1,
    d_1 = 3, and b_(k+1) = 2 b_k (k + n)(k - n) / ((2k + 1)(k + 1)) divides
    exactly; filled on first use."""
    n = _CVZ_TERMS
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, weights = -1, -d, []
    for k in range(n):
        c = b - c
        weights.append(c)
        b = 2 * b * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return tuple(weights), d


def _eta_scaled(s: int) -> tuple[int, int]:
    """(N, D) with N / D = eta(s) to about 1e-27, for an integer s >= 1:
    N = sum_k c_k (_SCALE // (k+1)^s) and D = d_n _SCALE."""
    weights, d = _cvz_integer_weights()
    return sum(c * (_SCALE // k ** s) for k, c in enumerate(weights, 1)), d * _SCALE


@bind_orders(1)
def eta_rounded(s: int) -> float:
    """eta(s) = sum_{k>=1} (-1)^(k-1) k^-s for an integer s >= 1, correctly
    rounded; s past FLOAT_ORDER is read as FLOAT_ORDER."""
    num, den = _eta_scaled(min(s, FLOAT_ORDER))
    return num / den


@bind_orders(2)
def zeta_rounded(s: int) -> float:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) for an integer s >= 2, correctly
    rounded, in one int/int division; s past FLOAT_ORDER is read as
    FLOAT_ORDER."""
    s = min(s, FLOAT_ORDER)
    num, den = _eta_scaled(s)
    h = 2 ** (s - 1)
    return num * h / (den * (h - 1))


@bind_orders(1)
def li_half_rounded(k: int) -> float:
    """Li_k(1/2) = sum_{j>=1} 2^-j j^-k for an integer k >= 1, correctly
    rounded: each term floored to a multiple of 1/_SCALE, up to the first
    that floors to 0, beyond which the rest sum to under 2/_SCALE; k past
    FLOAT_ORDER is read as FLOAT_ORDER."""
    k = min(k, FLOAT_ORDER)
    total, j = 0, 1
    while t := _SCALE // (2 ** j * j ** k):
        total += t
        j += 1
    return total / _SCALE
