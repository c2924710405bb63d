import contextlib
import copy
import io
import math
import pickle
import signal
import sys
import time

import pytest
from hypothesis import settings

from polylog.cli import main as cli_main
from polylog.eulersums import c_sum, jordan_nielsen, milgram, s_minus, s_plus
from polylog.ipq import Family, ipq_final
from polylog.lognm import h_closed, h_pde_residual, i_closed, i_pde_residual
from polylog.quadrature import nodes
from polylog.seriesring import kolbig_snp

settings.register_profile("default", max_examples=60, deadline=None)
settings.load_profile("default")


# ---------------------------------------------------------------------------
# brute-force oracles, independent of the package's numeric machinery
# ---------------------------------------------------------------------------


def zeta_brute(s: int, terms: int = 4000) -> float:
    """zeta(s) by direct summation plus an Euler-Maclaurin tail."""
    head = math.fsum(k ** (-float(s)) for k in range(1, terms + 1))
    n = float(terms)
    tail = n ** (1 - s) / (s - 1) - 0.5 * n ** (-float(s)) + s / 12.0 * n ** (-s - 1.0)
    return head + tail


def eta_brute(s: int, pairs: int = 50000) -> float:
    """sum (-1)^{k-1} k^-s by paired summation plus the pair-tail estimate."""
    head = math.fsum((2 * j - 1) ** (-float(s)) - (2 * j) ** (-float(s))
                     for j in range(1, pairs + 1))
    # (2j-1)^-s - (2j)^-s ~ s 2^{-s-1} j^{-s-1} + ...; integrate the tail
    tail = 2.0 ** (-s - 1) * pairs ** (-float(s)) + s * 2.0 ** (-s) * pairs ** (-s - 1.0)
    return head + tail


def li_half_brute(k: int) -> float:
    return math.fsum(2.0 ** (-j) * j ** (-float(k)) for j in range(1, 80))


def clear_package_caches():
    """Empty every functools cache of the package, for a cold build."""
    for name, module in list(sys.modules.items()):
        if name.startswith("polylog"):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def package_cache_misses() -> dict[str, int]:
    """The misses of every functools cache of the package, keyed by module
    and name."""
    misses = {}
    for name, module in sys.modules.items():
        if name.startswith("polylog."):
            for fn in vars(module).values():
                if callable(getattr(fn, "cache_info", None)) and fn.__module__ == name:
                    misses[f"{name[8:]}.{fn.__qualname__}"] = fn.cache_info().misses
    return misses


def fraction_constructions(fn) -> int:
    """How many times fn() calls Fraction.__new__."""
    from fractions import Fraction
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


class DeadlineExceeded(Exception):
    """A call run under deadline outlived it."""


@contextlib.contextmanager
def deadline(seconds: float, what: str):
    """Raise DeadlineExceeded in the with-block `seconds` in, from a SIGALRM
    timer, between bytecodes: it cannot cut short one long C-level call, such
    as a huge integer power, so a test of that keeps its own interpreter.
    Main thread only, as signal handlers are."""
    def expire(signum, frame):
        raise DeadlineExceeded(f"{what} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(argv: list[str], deadline_s: float) -> tuple[object, str, str, float]:
    """polylog's cli.main(argv) in this process, as a fresh interpreter would
    answer it: every package cache cleared first, stdout and stderr captured,
    a SystemExit turned into its code, all under deadline(deadline_s).
    Returns (exit code, stdout, stderr, elapsed seconds)."""
    clear_package_caches()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with deadline(deadline_s, f"polylog {' '.join(argv)}"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def sigma_atoms(cf) -> list:
    """The sigma~ atoms of a closed form, sorted."""
    return sorted(a for a in cf.atoms() if a.tag == "sigma")


def build_exact_catalogue() -> int:
    """Build every closed form of the exact-highweight benchmark, to weight
    12, with the calls perfbench makes (its workloads.exact_catalogue,
    restated so the tests do not import the benchmark); returns how many."""
    built = [kolbig_snp(n, p, max_weight=12) for n in range(1, 12) for p in range(1, 13 - n)]
    built += [ipq_final(fam, p, q) for fam in Family for p in range(1, 9) for q in range(1, 10 - p)]
    for r in range(2, 10):
        built += [s_plus(r), s_minus(r), milgram(r), c_sum(r),
                  jordan_nielsen("J1", r), jordan_nielsen("J2", r)]
    built += [fn(n, m) for n in range(1, 6) for m in range(1, 7 - n)
              for fn in (i_closed, h_closed, i_pde_residual, h_pde_residual)]
    return len(built)


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------


def pointwise(f):
    """The grid integrand of an expression f(x, 1-x), evaluated node by node."""
    return lambda grid: map(f, *nodes(grid)[:2])


# ---------------------------------------------------------------------------
# record classes
# ---------------------------------------------------------------------------


def assert_frozen_value(obj, field: str) -> None:
    """obj is an immutable value: its fields cannot be assigned (a frozen
    dataclass's FrozenInstanceError is an AttributeError too), and a copy or
    a pickle round trip returns an equal, equally hashed object."""
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj)
        assert twin == obj and hash(twin) == hash(obj)
