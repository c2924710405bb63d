"""Seeded inputs of the workloads.

Every generator takes the workload seed and returns plain JSON-able item
specs; the package only ever sees the generated inputs.  Costs are kept
comparable across seeds by drawing a fixed number of items of each kind and
weight band, so that a seed changes which parameters are used, not how much
work a pass is.
"""

from __future__ import annotations

import random

FAMILIES = ("plus", "minus", "mixed")

# A cold query that has not exited after this long is stopped and counted as
# having missed its deadline.  The slowest in-capacity query takes about a
# quarter of it on a 2-core machine.
QUERY_DEADLINE_S = 2.0


# ---------------------------------------------------------------------------
# exact-highweight: every closed form of the exact side up to high weight
# ---------------------------------------------------------------------------

def exact_catalogue() -> list[list]:
    items: list[list] = []
    for n in range(1, 12):
        for p in range(1, 13 - n):
            items.append(["kolbig_snp", n, p, 12])
    for fam in FAMILIES:
        for p in range(1, 9):
            for q in range(1, 10 - p):
                items.append(["ipq_final", fam, p, q])
    for r in range(2, 10):
        for fn in ("s_plus", "s_minus", "milgram", "c_sum"):
            items.append([fn, r])
        items.append(["jordan_nielsen", "J1", r])
        items.append(["jordan_nielsen", "J2", r])
    for n in range(1, 6):
        for m in range(1, 7 - n):
            for fn in ("i_closed", "h_closed", "i_pde_residual", "h_pde_residual"):
                items.append([fn, n, m])
    return items


def exact_items(seed: int) -> list[list]:
    """The whole catalogue in a seeded order (the order decides which item
    pays each cold cache fill)."""
    items = exact_catalogue()
    random.Random(seed).shuffle(items)
    return items


def item_key(spec: list) -> str:
    return f"{spec[0]}({','.join(str(a) for a in spec[1:])})"


# ---------------------------------------------------------------------------
# cold-queries: CLI queries, each in a fresh interpreter
# ---------------------------------------------------------------------------

def _eval(target: str, **params) -> list[str]:
    argv = ["eval", target]
    for k, v in params.items():
        argv += [f"--{k}", str(v)]
    return argv


def regular_classes() -> dict[str, list[list[str]]]:
    """In-capacity queries by kind, plus queries just past a table cap, which
    must fail fast with exit code 3."""
    c: dict[str, list[list[str]]] = {k: [] for k in (
        "eval-ipq", "ipq", "eval-sum", "eval-nielsen", "eval-lognm", "eval-approx",
        "approx", "at-cap")}
    for fam in FAMILIES:
        for p in range(1, 7):
            for q in range(1, 8 - p):
                c["eval-ipq"].append(_eval("ipq", family=fam, p=p, q=q))
                if p + q <= 6:
                    c["ipq"].append(["ipq", "--family", fam, "--p", str(p), "--q", str(q)])
    for target in ("s-plus", "s-minus", "jordan1", "jordan2", "milgram", "c"):
        for r in range(2, 9):
            c["eval-sum"].append(_eval(target, r=r))
    for n in range(1, 9):
        for p in range(1, 10 - n):
            c["eval-nielsen" if n + p <= 8 else "at-cap"].append(_eval("s-np", n=n, p=p))
    for n in range(1, 6):
        for p in range(1, 7 - n):
            c["eval-nielsen"].append(_eval("sigma-np", n=n, p=p))
    for target in ("inm", "hnm"):
        for n in range(1, 7):
            for m in range(1, 8 - n):
                c["eval-lognm" if n + m <= 6 else "at-cap"].append(_eval(target, n=n, m=m))
    for p in range(3, 7):
        for kt in range(1, 13):
            c["eval-approx"].append(_eval("approx", p=p, kt=kt))
            c["approx"].append(["approx", "s-minus", "--p", str(p), "--kt", str(kt)])
    return c


def regular_catalogue() -> list[list[str]]:
    return [argv for queries in regular_classes().values() for argv in queries]


def probe_catalogue() -> list[list[str]]:
    """Queries far beyond the weight caps.  Each must return a value or exit
    3 before the deadline."""
    out: list[list[str]] = []
    for r in range(20, 31):
        out.append(_eval("s-minus", r=r))
        out.append(_eval("jordan1", r=r))
        out.append(_eval("jordan2", r=r))
    for fam in FAMILIES:
        for p in range(9, 12):
            out.append(_eval("ipq", family=fam, p=p, q=p))
    return out


# Queries per pass of each kind; the seed picks which ones and their order.
COLD_PER_PASS = {"eval-ipq": 9, "ipq": 6, "eval-sum": 6, "eval-nielsen": 4, "eval-lognm": 4,
                 "eval-approx": 4, "approx": 4, "at-cap": 3}
# Probes per run; each costs up to the deadline, so they run once, untimed.
COLD_PROBES = 2


def _stratum(argv: list[str]) -> str:
    """What sets a query's cost within its kind: the family of an I(p,q)
    query, else the eval target."""
    if "--family" in argv:
        return argv[argv.index("--family") + 1]
    return argv[1] if argv[0] == "eval" else argv[0]


def _weight(argv: list[str]) -> int:
    """The sum of a query's numeric arguments: its weight, or for approx
    its order plus its truncation depth."""
    return sum(int(a) for a in argv if a.isdigit())


def _by_weight(rng: random.Random, queries: list, n: int) -> list:
    """n queries, one from each of n equal runs of the queries sorted by
    weight, so that the mix of weights hardly depends on the seed."""
    xs = sorted(queries, key=_weight)
    cuts = [round(i * len(xs) / n) for i in range(n + 1)]
    return [rng.choice(xs[a:b]) for a, b in zip(cuts, cuts[1:])]


def _stratified(rng: random.Random, queries: list, n: int) -> list:
    """n queries spread as evenly as possible over the strata."""
    strata: dict[str, list] = {}
    for argv in queries:
        strata.setdefault(_stratum(argv), []).append(argv)
    keys = sorted(strata)
    rng.shuffle(keys)
    counts = {k: n // len(keys) + (i < n % len(keys)) for i, k in enumerate(keys)}
    return [argv for k in keys if counts[k] for argv in _by_weight(rng, strata[k], counts[k])]


def cold_queries(seed: int) -> tuple[list[list[str]], list[list[str]]]:
    """The in-capacity queries of a pass, in a seeded order, and the probes."""
    rng = random.Random(seed)
    out = []
    for kind, queries in regular_classes().items():
        out += _stratified(rng, queries, COLD_PER_PASS[kind])
    rng.shuffle(out)
    return out, rng.sample(probe_catalogue(), COLD_PROBES)


def query_key(argv: list[str]) -> str:
    return " ".join(argv)
