"""Independent mpmath references for the benchmark's outputs.

mpmath is not a dependency of polylog; the benchmark checks the exact
closed forms and the printed values against it.  Every quantity is computed from its definition (a quadrature of
the defining integral, or of a generating-function integral for the Euler
sums), never from the package's own closed forms.
"""

from __future__ import annotations

import mpmath as mp

SIGNS = {"plus": (1, 1), "minus": (-1, -1), "mixed": (1, -1)}


def _quad(f):
    return mp.quad(f, [0, 1])


def nielsen(n: int, p: int, z) -> mp.mpf:
    """S_{n,p}(z) from its defining integral."""
    pref = mp.mpf(-1) ** (n + p - 1) / (mp.factorial(n - 1) * mp.factorial(p))
    return pref * _quad(lambda x: mp.log(x) ** (n - 1) * mp.log(1 - z * x) ** p / x)


def ipq(family: str, p: int, q: int) -> mp.mpf:
    s1, s2 = SIGNS[family]
    return _quad(lambda t: mp.polylog(p, s1 * t) * mp.polylog(q, s2 * t) / t)


def lognm(tag: str, n: int, m: int) -> mp.mpf:
    if tag == "INM":
        return _quad(lambda x: mp.log(x) ** n * mp.log(1 - x) ** m)
    return _quad(lambda x: mp.log(x) ** n * mp.log(1 + x) ** m)


def euler_sum(tag: str, r: int) -> mp.mpf:
    """The six sums of eulersums.sum_oracle, from generating functions:
    integral_0^1 t^(a-1) (-ln t)^(r-1) dt = (r-1)!/a^r turns each sum over
    harmonic-type numbers into one integral."""
    w = lambda t: (-mp.log(t)) ** (r - 1) / mp.factorial(r - 1)  # noqa: E731
    if tag == "SPlus":
        return _quad(lambda t: w(t) * -mp.log(1 - t) / (t * (1 - t)))
    if tag == "SMinus":
        return _quad(lambda t: w(t) * -mp.log(1 + t) / (t * (1 + t)))
    if tag == "Jordan1":
        return _quad(lambda t: w(t) * t * mp.atanh(t) / (1 - t * t))
    if tag == "Jordan2":
        return _quad(lambda t: w(t) * mp.atanh(t) / (1 - t * t))
    if tag == "Milgram":
        return _quad(lambda t: w(t) * -mp.log(1 - t * t) / (2 * (1 - t * t)))
    if tag == "CSum":
        return euler_sum("SPlus", r) / mp.mpf(2) ** (r + 1)
    raise ValueError(tag)


def stirling1(k: int, j: int) -> int:
    row = [1]
    for kk in range(1, k):
        row = [(row[jj - 2] if jj >= 2 else 0) - kk * (row[jj - 1] if jj <= kk else 0)
               for jj in range(1, kk + 2)]
    return row[j - 1]


def s_minus_truncated(p: int, kt: int) -> mp.mpf:
    """Depth-kt Stirling truncation of S-(p); (2^(1-s) - 1) zeta(s) = -eta(s)
    continues through s = 1 and below."""
    total = mp.mpf(0)
    for k in range(1, kt + 1):
        inner = sum(stirling1(k, j) * -mp.altzeta(p - j) for j in range(1, k + 1))
        total += mp.mpf(-1) ** (k + 1) / (k * mp.factorial(k)) * inner
    return total


# ---------------------------------------------------------------------------
# closed forms at high precision
# ---------------------------------------------------------------------------

def atom_value(name: str) -> mp.mpf:
    if name == "pi":
        return +mp.pi
    if name == "ln2":
        return mp.log(2)
    if name == "gamma":
        return +mp.euler
    if name.startswith("zeta"):
        return mp.zeta(int(name[4:]))
    if name.startswith("li") and name.endswith("_half"):
        return mp.polylog(int(name[2:-5]), mp.mpf(1) / 2)
    if name.startswith("sigma_"):
        n, p = (int(x) for x in name[6:].split("_"))
        return nielsen(n, p, -1)
    raise ValueError(f"no reference value for atom {name}")


def closed_value(obj: dict, atoms: dict) -> mp.mpf:
    """A ClosedForm.to_obj() object evaluated at the working precision."""
    total = mp.mpf(0)
    for term in obj["terms"]:
        v = mp.mpf(int(term["num"])) / int(term["den"])
        for name, e in term["monomial"]:
            if name not in atoms:
                atoms[name] = atom_value(name)
            v *= atoms[name] ** e
        total += v
    return total


def quantity(spec: list) -> mp.mpf | None:
    """The quantity an exact-side item denotes, from its definition.  None
    for the difference-equation residuals, whose reference is exact zero."""
    name, a = spec[0], spec[1:]
    if name in ("kolbig_snp", "s-np"):
        return nielsen(a[0], a[1], 1)
    if name in ("sigma_tilde", "sigma-np"):
        return nielsen(a[0], a[1], -1)
    if name == "ipq_final":
        return ipq(a[0], a[1], a[2])
    tags = {"s_plus": "SPlus", "s_minus": "SMinus", "milgram": "Milgram", "c_sum": "CSum"}
    if name in tags:
        return euler_sum(tags[name], a[0])
    if name == "jordan_nielsen":
        return euler_sum({"J1": "Jordan1", "J2": "Jordan2"}[a[0]], a[1])
    if name == "i_closed":
        return lognm("INM", a[0], a[1])
    if name == "h_closed":
        return lognm("HNM", a[0], a[1])
    if name == "s_minus_truncated":
        return s_minus_truncated(a[0], a[1])
    if name in ("i_pde_residual", "h_pde_residual"):
        return None
    raise ValueError(name)


_CLI_TARGETS = {"s-plus": "s_plus", "s-minus": "s_minus", "milgram": "milgram",
                "c": "c_sum", "inm": "i_closed", "hnm": "h_closed"}


def cli_spec(argv: list[str]) -> list:
    """The exact-side item a CLI query asks for, as a quantity() spec."""
    opts = {k[2:]: v for k, v in zip(argv, argv[1:]) if k.startswith("--")}
    num = {k: int(v) for k, v in opts.items() if k != "family"}
    target = argv[0] if argv[0] != "eval" else argv[1]
    if target == "ipq":
        return ["ipq_final", opts["family"], num["p"], num["q"]]
    if target == "approx":
        return ["s_minus_truncated", num["p"], num["kt"]]
    if target in ("jordan1", "jordan2"):
        return ["jordan_nielsen", "J" + target[-1], num["r"]]
    if target in ("s-np", "sigma-np"):
        return [target, num["n"], num["p"]]
    if target in ("inm", "hnm"):
        return [_CLI_TARGETS[target], num["n"], num["m"]]
    return [_CLI_TARGETS[target], num["r"]]
