"""Euler sums: S+, S-, the Jordan sums J1/J2, the Milgram sum M, and C.

S-(r) and the Nielsen forms of J1/J2 read sigma~_{r-1,2} = S_{r-1,2}(-1)
from the sigma registry; the even-order Jordan forms never touch sigma~, so
verify's Jordan decomposition of S- through them is the route that checks
that registry.

Each builder takes one route and is memoized.  Each closed form also
exists as an accelerated summation of its defining series
(sum_oracle(tag, r)), memoized as well: one float per tag and order.
Every series but S- is
sum_k scale * [psi(k + shift) - psi(shift)] * (step*k + offset)^-r, its
terms written once, as the head of its sum_tail: the terms below the
cutoff, over one memoized digamma table (digamma.psi_table).  Its
Euler-Maclaurin tail is taken in closed form from the asymptotic series of
psi (_monotone_expansion).  S-'s term lambda serves the alternating
acceleration at ORACLE_TOL.  All of them read digamma through psi_point,
so the sums share each psi value at the integers and half-integers they
walk.  The second exact routes (the Nielsen form of C, the full
Milgram sum, the even-order Jordan forms against the Nielsen ones, the
Jordan decomposition of S-) are verify entries.  Every builder holds the
weight r+1 of its sum to the weight ceiling MAX_WEIGHT.
"""

from __future__ import annotations

import math
from functools import cache

from .closedform import ClosedForm, LN2, _check_order, _check_weight, zeta_closed
from .digamma import bernoulli_quotients, euler_gamma, psi_point, psi_table
from .errors import DomainError
from .quadrature import ORACLE_TOL
from .seriesring import kolbig_snp
from .sigma import sigma_tilde
from .summation import FLOAT_ORDER, Expansion, sum_alternating, sum_tail

# (scale, shift, step, offset) of each monotone series
# sum_{k>=1} scale * [psi(k + shift) - psi(shift)] * (step*k + offset)^-r;
# Jordan1's k = 0 term vanishes
_MONOTONE = {
    "SPlus": (1.0, 1.0, 1, 0),
    "Jordan1": (0.5, 0.5, 2, 1),
    "Jordan2": (0.5, 0.5, 2, 0),
    "Milgram": (0.5, 1.0, 2, 1),
    "CSum": (0.5, 1.0, 2, 0),
}


@cache
def s_plus(r: int) -> ClosedForm:
    """S+(r) = sum_k [psi(k+1)+gamma] / k^r, Euler's closed form."""
    r = _check_order(r, 2)
    _check_weight(r + 1)
    return ClosedForm.combination(
        [(r + 2, zeta_closed(r + 1), None)]
        + [(-1, zeta_closed(mu + 1), zeta_closed(r - mu)) for mu in range(1, r - 1)], 2)


@cache
def c_sum(r: int) -> ClosedForm:
    """C(r) = 2^{-r-1} S+(r)."""
    r = _check_order(r, 2)
    _check_weight(r + 1)
    return s_plus(r) / 2 ** (r + 1)


@cache
def jordan_even(which: str, r: int) -> ClosedForm:
    """J1(2n) or J2(2n), closed, for even order r = 2n >= 2."""
    if which not in ("J1", "J2"):
        raise DomainError("which must be 'J1' or 'J2'")
    r = _check_order(r, 2)
    if r % 2:
        raise DomainError("even-order Jordan form needs even r >= 2; "
                          "odd orders go through jordan_nielsen")
    _check_weight(r + 1)
    top = 2 ** (r + 1)
    if which == "J1":
        # -(1 - 2^-(r+1))/2 zeta(r+1) + (1 - 2^-r) ln2 zeta(r)
        #   - sum_mu (2^{2mu} - 1)/2^{r+1} zeta(2mu) zeta(r+1-2mu)
        den = 2 * top
        terms = [(1 - top, zeta_closed(r + 1), None),
                 (4 * (2 ** r - 1), ClosedForm.atom(LN2), zeta_closed(r))]
        coeff = [2 * (1 - 4 ** mu) for mu in range(1, r // 2)]
    else:
        # (1 - 2^-(r+1))/2 zeta(r+1) - sum_mu (2^{-2mu} - 2^-(r+1)) zeta(2mu) zeta(r+1-2mu)
        den = 4 ** r
        terms = [(2 ** (r - 2) * (top - 1), zeta_closed(r + 1), None)]
        coeff = [2 ** (r - 1) - 4 ** (r - mu) for mu in range(1, r // 2)]
    return ClosedForm.combination(
        terms + [(c, zeta_closed(2 * mu), zeta_closed(r + 1 - 2 * mu))
                 for mu, c in enumerate(coeff, start=1)], den)


@cache
def milgram(r: int) -> ClosedForm:
    """M(r) closed, in its simplified even/odd display."""
    r = _check_order(r, 2)
    _check_weight(r + 1)
    # r/2 (1 - 2^-(r+1)) zeta(r+1) - (1 - 2^-r) ln2 zeta(r)
    #   - [r odd] (1 - 2^-h)^2 zeta(h)^2 / 2 at h = (r+1)/2
    #   - sum_mu (2^(mu+2) - 1)/2 (2^-(mu+1) - 2^-r) zeta(mu+2) zeta(r-1-mu),
    # over 2^(r+2) (at odd r, 2h + 1 = r + 2)
    terms = [(r * (2 ** (r + 1) - 1), zeta_closed(r + 1), None),
             (4 * (1 - 2 ** r), ClosedForm.atom(LN2), zeta_closed(r))]
    if r % 2:
        half = (r + 1) // 2
        terms.append((-(2 ** half - 1) ** 2, zeta_closed(half), zeta_closed(half)))
    terms += [(-2 * (2 ** (mu + 2) - 1) * (2 ** (r - 1 - mu) - 1),
               zeta_closed(mu + 2), zeta_closed(r - 1 - mu))
              for mu in range(0, (r - 4 - r % 2) // 2 + 1)]
    return ClosedForm.combination(terms, 2 ** (r + 2))


@cache
def jordan_nielsen(which: str, r: int) -> ClosedForm:
    """J1(r) or J2(r) in Nielsen terms, valid for any order r >= 2.

    J1(r) = (s_{r-1,2} - sigma~_{r-1,2})/2 - M(r)
    J2(r) = ((1 - 2^-r) s_{r-1,2} + sigma~_{r-1,2})/2
    The sigma~ constant resolves to its registered closed form when one is
    known and stays atomic otherwise.
    """
    if which not in ("J1", "J2"):
        raise DomainError("which must be 'J1' or 'J2'")
    r = _check_order(r, 2)
    s = kolbig_snp(r - 1, 2)
    sig = sigma_tilde(r - 1, 2)
    if which == "J1":
        return ClosedForm.combination([(1, s, None), (-1, sig, None), (-2, milgram(r), None)], 2)
    return ClosedForm.combination([(2 ** r - 1, s, None), (2 ** r, sig, None)], 2 ** (r + 1))


@cache
def s_minus(r: int) -> ClosedForm:
    """S-(r) = sum_k (-1)^k [psi(k+1)+gamma] / k^r
    = (2^-r - 1) zeta(r+1) + sigma~_{r-1,2}.

    Fully closed whenever sigma~_{r-1,2} is registered (all even r <= 8,
    and r = 3).  Its weight r+1 is held to the weight ceiling MAX_WEIGHT.
    """
    r = _check_order(r, 2)
    _check_weight(r + 1)
    return ClosedForm.combination([(1 - 2 ** r, zeta_closed(r + 1), None),
                                   (2 ** r, sigma_tilde(r - 1, 2), None)], 2 ** r)


@cache
def sum_oracle(tag: str, r: int) -> float:
    """The sum named by tag (SPlus, SMinus, Jordan1, Jordan2, Milgram or
    CSum) at order r >= 2, by accelerated summation of its defining series
    (S- alternating at ORACLE_TOL, the others by sum_tail), memoized per
    (tag, r): the verify suites ask for the same sums many times.  An order
    past FLOAT_ORDER is read as FLOAT_ORDER: every term past k = 1 underflows."""
    if tag != "SMinus" and tag not in _MONOTONE:
        raise DomainError(f"unknown sum tag {tag!r}")
    r = min(_check_order(r, 2), FLOAT_ORDER)
    e = -float(r)
    if tag == "SMinus":
        g = euler_gamma()
        return sum_alternating(
            lambda k: (-1) ** k * (psi_point(k + 1.0) + g) * float(k) ** e, ORACLE_TOL)
    scale, shift, step, offset = _MONOTONE[tag]

    def head(stop: int):
        return (scale * d * (step * k + offset) ** e
                for k, d in enumerate(psi_table(shift, stop), 1))
    return sum_tail(head, (step, offset, _monotone_expansion(tag, r)))


@cache
def _digamma_series(alpha: float) -> tuple[float, ...]:
    """c_k of psi(z + alpha) ~ ln z + sum_k c_k z^-k for alpha in {0, 1/2, 1}
    and k = 1..20: c_1 = alpha - 1/2, c_2j = -B_2j(alpha)/(2j) with
    B_2j(0) = B_2j(1) = B_2j and B_2j(1/2) = (2^(1-2j) - 1) B_2j, and the
    other odd c_k zero."""
    out = [alpha - 0.5]
    for j, q in enumerate(bernoulli_quotients(), 1):
        out += [-(2.0 ** (1 - 2 * j) - 1.0 if alpha == 0.5 else 1.0) * q, 0.0]
    return tuple(out[:-1])


def _monotone_expansion(tag: str, r: int) -> Expansion:
    """The term of the monotone series tag as F(step*k + offset),
    F(y) = scale [psi(y/step + alpha) - psi(shift)] y^-r with
    alpha = shift - offset/step, expanded in powers of y:
    scale (ln y - ln step - psi(shift)) y^-r + sum_k scale c_k step^k y^(-r-k)."""
    scale, shift, step, offset = _MONOTONE[tag]
    out = [(r, scale * (-math.log(step) - psi_point(shift)), scale)]
    for k, c in enumerate(_digamma_series(shift - offset / step), 1):
        if c:
            out.append((r + k, scale * c * step ** k, 0.0))
    return tuple(out)
