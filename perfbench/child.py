"""One benchmark process: imports polylog from the checkout and runs one job.

Usage: python3 perfbench/child.py <job> [--trace]   (job input on stdin)

Jobs:
  setup     import polylog and report the time the import finished
  verify    run_suite("all") once; report entries and each one's wall and CPU time
  exact     build a list of closed forms; report each one and its wall and CPU time
  cli       run one query through polylog.cli.main
  micro     fixed-input layer micro benchmarks
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import polylog  # noqa: E402

IMPORT_DONE = time.perf_counter()

from tracer import Tracer  # noqa: E402

# Builders and series-ring entry points whose repeated work shows as calls
# against distinct argument sets.
DISTINCT = (
    "ipq.ipq_final", "ipq.r_value", "eulersums.s_plus", "eulersums.s_minus",
    "eulersums.milgram", "eulersums.c_sum", "eulersums.jordan_nielsen",
    "eulersums.jordan_even", "lognm.i_closed", "lognm.h_closed",
    "sigma.sigma_tilde", "sigma.registry", "approx.s_minus_truncated",
    "seriesring.gamma_ratio_series", "seriesring.kolbig_snp",
)


def _timed(tracer, fn):
    """Run fn() once, optionally traced; return (result, wall_s)."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, t1 - t0


def _exact_call(spec):
    name, args = spec[0], spec[1:]
    fn = getattr(polylog, name)
    if name == "kolbig_snp":
        return fn(args[0], args[1], max_weight=args[2])
    if name == "ipq_final":
        return fn(polylog.Family(args[0]), *args[1:])
    return fn(*args)


def job_setup(_inp, _tracer):
    return {}


def job_verify(_inp, tracer):
    from polylog import verify
    stamps: list[tuple[float, float]] = []
    init = vars(verify.CheckEntry)["__init__"]

    def stamped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stamps.append((time.perf_counter(), time.process_time()))
        if tracer is not None:
            tracer.current_item = len(stamps)

    verify.CheckEntry.__init__ = stamped
    if tracer is not None:
        tracer.current_item = 0
    start = (time.perf_counter(), time.process_time())
    report, wall = _timed(tracer, lambda: polylog.run_suite("all"))
    verify.CheckEntry.__init__ = init
    steps = list(zip([start] + stamps[:-1], stamps))
    entries = [[e.identity_id, e.status, e.symbolic] for e in report.entries]
    return {"wall_s": wall, "entries": entries,
            "latencies": [b[0] - a[0] for a, b in steps],
            "cpu": [b[1] - a[1] for a, b in steps],
            "trace": tracer.summary() if tracer is not None else None}


def job_exact(inp, tracer):
    latencies: list[float] = []
    cpus: list[float] = []
    results = []

    def build():
        for i, spec in enumerate(inp["items"]):
            if tracer is not None:
                tracer.current_item = i
            t0, c0 = time.perf_counter(), time.process_time()
            cf = _exact_call(spec)
            latencies.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            results.append(cf)

    _, wall = _timed(tracer, build)
    return {"wall_s": wall, "latencies": latencies, "cpu": cpus,
            "closed": [cf.to_obj() for cf in results],
            "trace": tracer.summary() if tracer is not None else None}


def job_cli(inp, tracer):
    from polylog import cli
    buf = io.StringIO()

    def run():
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(inp["argv"])

    rc, _ = _timed(tracer, run)
    return {"rc": rc, "stdout": buf.getvalue(),
            "trace": tracer.summary() if tracer is not None else None}


def job_micro(inp, _tracer):
    """Fixed-input layer numbers of the ROADMAP baseline."""
    from polylog import quadrature, seriesring
    from polylog.ipq import Family
    out = {}
    if "weight" in inp:
        w = inp["weight"]
        t0 = time.perf_counter()
        seriesring.gamma_ratio_series((w - 1, w))
        out["gamma_ratio_cold_s"] = time.perf_counter() - t0
        return out

    def per_call_us(fn, arg, n):
        best = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(*arg)
            best.append((time.perf_counter() - t0) / n * 1e6)
        best.sort()
        return best[len(best) // 2]

    out["polylog_pos_us"] = per_call_us(polylog.polylog, (5, 0.7), 2000)
    out["polylog_neg_us"] = per_call_us(polylog.polylog, (5, -0.9), 2000)
    xs = [0.1 * k for k in range(1, 201)]
    out["psi_us"] = per_call_us(lambda: [polylog.psi(x) for x in xs], (), 50) / len(xs)

    grid = [(fam, p, q) for fam in Family for p in range(1, 5) for q in range(1, 5)]
    for fam, p, q in grid:             # fills the series and registry caches
        polylog.ipq_final(fam, p, q)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for fam, p, q in grid:
            polylog.ipq_final(fam, p, q)
        times.append(time.perf_counter() - t0)
    out["ipq_final_grid48_s"] = sorted(times)[1]

    evaluations = 0
    integrate01 = quadrature.integrate01

    def counting(*args, **kwargs):
        nonlocal evaluations
        result = integrate01(*args, **kwargs)
        evaluations += result.evaluations
        return result

    from polylog import ipq
    ipq.integrate01 = counting
    try:
        for fam, p, q in grid:
            ipq.ipq_numeric(fam, p, q, 1e-10)
    finally:
        ipq.integrate01 = integrate01
    out["ipq_grid48_evaluations"] = evaluations
    return out


JOBS = {"setup": job_setup, "verify": job_verify, "exact": job_exact,
        "cli": job_cli, "micro": job_micro}


def main() -> int:
    job = sys.argv[1]
    tracer = Tracer(DISTINCT) if "--trace" in sys.argv[2:] else None
    inp = json.loads(sys.stdin.read() or "{}")
    result = JOBS[job](inp, tracer)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["import_done"] = IMPORT_DONE
    result["process_cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
