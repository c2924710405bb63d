"""Registry of Nielsen sigma~ constants (S_{n,p}(-1)) and the float value
of every atom of the constant basis.

The registry is data: every (n, p) with a known closed form maps to that
form; everything else stays an atomic constant whose numeric value comes
from quadrature of the defining integral.  Known closed forms come in
three groups:

* the S_{n,1}(-1) = Li_{n+1}(-1) column, which sigma_tilde applies at every
  n; the registry lists it to n = 7, as rows of the sigma table;
* the tabulated values of weight <= 5 plus the closed weight-6 entries
  sigma~_{1,5} and sigma~_{5,1};
* sigma~_{5,2} and sigma~_{7,2}, tabulated like sigma~_{3,2}.  The S- and
  Jordan sums of eulersums are built on them; lognm.sigma-even-route.*
  checks all four sigma~_{r-1,2} against the even-order S- route.

At weight 6 the mid-table entries sigma~_{2,4}, sigma~_{3,3}, sigma~_{4,2}
have no individual closed forms, only two linear relations.  No builder
reads those, so they are written in verify, with the entries that check
them, and the registry holds closed forms only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .closedform import (Atom, ClosedForm, LN2, PI, _check_order, _check_weight,
                         eta_factor_closed, li_half_atom, sigma_atom, zeta_closed)
from .digamma import euler_gamma
from .special import nielsen_num, polylog
from .summation import zeta_num


def _li_half_cf(k: int) -> ClosedForm:
    return ClosedForm.atom(li_half_atom(k))


@cache
def registry() -> dict[tuple[int, int], ClosedForm]:
    """(n, p) -> the closed form of sigma~_{n,p}, for every registered (n, p)."""
    closed: dict[tuple[int, int], ClosedForm] = {}
    z3 = zeta_closed(3)
    z5 = zeta_closed(5)
    li4 = _li_half_cf(4)
    li5 = _li_half_cf(5)
    li6 = _li_half_cf(6)
    pi2 = ClosedForm.atom(PI, 2)
    pi4 = ClosedForm.atom(PI, 4)
    pi6 = ClosedForm.atom(PI, 6)
    ln2 = [ClosedForm.atom(LN2, e) for e in range(7)]

    # sigma~_{n,1} = Li_{n+1}(-1), which sigma_tilde applies at every n
    for n in range(1, 8):
        closed[(n, 1)] = eta_factor_closed(n + 1)

    # each display is one combination of (coefficient, factor, factor or None)
    lin = ClosedForm.combination
    closed[(1, 2)] = Fraction(1, 8) * z3
    # weight 4
    closed[(1, 3)] = lin([(Fraction(-1, 90), pi4, None),
                          (Fraction(-1, 24), pi2, ln2[2]),
                          (Fraction(1, 24), ln2[4], None),
                          (Fraction(7, 8), ln2[1], z3),
                          (1, li4, None)])
    closed[(2, 2)] = lin([(Fraction(-1, 48), pi4, None),
                          (Fraction(-1, 12), pi2, ln2[2]),
                          (Fraction(1, 12), ln2[4], None),
                          (Fraction(7, 4), ln2[1], z3),
                          (2, li4, None)])
    # weight 5
    closed[(1, 4)] = lin([(1, z5, None),
                          (Fraction(-7, 16), ln2[2], z3),
                          (Fraction(1, 36), pi2, ln2[3]),
                          (Fraction(-1, 30), ln2[5], None),
                          (-1, ln2[1], li4),
                          (-1, li5, None)])
    closed[(2, 3)] = lin([(Fraction(1, 12), pi2, z3),
                          (Fraction(33, 32), z5, None),
                          (Fraction(-7, 8), ln2[2], z3),
                          (Fraction(1, 18), pi2, ln2[3]),
                          (Fraction(-1, 15), ln2[5], None),
                          (-2, ln2[1], li4),
                          (-2, li5, None)])
    closed[(3, 2)] = lin([(Fraction(1, 12), pi2, z3), (Fraction(-29, 32), z5, None)])
    # closed weight-6 entries.  The ln^3(2) zeta(3) coefficient is 7/48:
    # quadrature of the defining integral pins it to 14 digits.
    closed[(1, 5)] = lin([(Fraction(-1, 945), pi6, None),
                          (Fraction(-1, 96), pi2, ln2[4]),
                          (Fraction(1, 72), ln2[6], None),
                          (Fraction(7, 48), ln2[3], z3),
                          (Fraction(1, 2), ln2[2], li4),
                          (1, ln2[1], li5),
                          (1, li6, None)])
    # weights 7 and 9
    closed[(5, 2)] = lin([(Fraction(1, 12), pi2, z5),
                          (Fraction(7, 720), pi4, z3),
                          (Fraction(-251, 128), zeta_closed(7), None)])
    closed[(7, 2)] = lin([(Fraction(1, 12), pi2, zeta_closed(7)),
                          (Fraction(7, 720), pi4, z5),
                          (Fraction(31, 30240), pi6, z3),
                          (Fraction(-1529, 512), zeta_closed(9), None)])
    return closed


def sigma_tilde(n: int, p: int) -> ClosedForm:
    """sigma~_{n,p} = S_{n,p}(-1): Li_{n+1}(-1) at p = 1, else the
    registered closed form, else atomic.

    Its weight n+p is held to the weight ceiling MAX_WEIGHT.
    """
    n, p = _check_order(n, 1), _check_order(p, 1)
    _check_weight(n + p)
    if p == 1:
        return eta_factor_closed(n + 1)
    closed = registry().get((n, p))
    return ClosedForm.atom(sigma_atom(n, p)) if closed is None else closed


# ---------------------------------------------------------------------------
# atom values
# ---------------------------------------------------------------------------

# how atom_value computes each kind of atom
PROVENANCE = {"pi": "builtin", "ln2": "builtin", "gamma": "series",
              "zeta_odd": "series", "li_half": "series", "sigma": "quadrature"}


@cache
def atom_value(atom: Atom) -> float:
    """Double-precision value of one atom, computed once per process.

    Each kind of atom has one route, named in PROVENANCE: the sigma~ atoms
    are integrated by quadrature, the other atoms summed or built in.
    """
    tag, args = atom.tag, atom.args
    if tag == "pi":
        return math.pi
    if tag == "ln2":
        return math.log(2.0)
    if tag == "gamma":
        return euler_gamma()
    if tag == "zeta_odd":
        return zeta_num(*args)
    if tag == "li_half":
        return polylog(*args, 0.5)
    return nielsen_num(*args, -1.0)  # the sigma~ atoms, by quadrature


def cf_num(x: ClosedForm) -> float:
    """Float value of a closed form, each atom read through atom_value."""
    return x.evaluate(atom_value)
