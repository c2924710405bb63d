#!/usr/bin/env python3
"""The polylog benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout (the package is
imported from ``src/``; nothing is installed).  With ``--trace 0`` it
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
``layers.py``.  Every output is checked against a reference: the closed-form
snapshot in ``reference/`` (term for term) or mpmath.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

Workloads (all closed loop, one client, one process at a time):
  verify-all        fresh process per pass: run_suite("all"); items are entries
  exact-highweight  fresh process per pass: every closed form up to weight 12
  cold-queries      seeded CLI queries, each in a fresh interpreter; before
                    the timed passes, a few probes far beyond the weight caps
                    run once, each bounded by a deadline

Every run first recompiles the package's bytecode, untimed, so children read
bytecode written by this run whatever earlier runs or tests left behind.

Timings are reported at a fixed host speed.  The host's cores are shared:
they run at two speeds, one about 1.6 times slower than the other, that
alternate every few seconds, and for minutes at a time the slow speed can
hold throughout a run.  Two measures take the host out of the numbers.
Each item's time is its fastest over the run's passes, and a pass's time
is the sum of those; set-up time is the fastest of its samples.  Between
passes the benchmark also times a yardstick program that runs none of the
package's code (a fresh interpreter importing a fixed set of standard
library modules); every timing is scaled by YARDSTICK_NOMINAL_S over the
yardstick's fastest time in the run.  The lines before the JSON show the
unscaled values and the scale factor.

An item fails when it raises, exits with an unexpected code, disagrees with
its reference, or is a query with a reference that misses its deadline;
``correct`` is true when no item failed.  A probe still running at its
deadline is stopped: it produced no wrong output, so it is not counted as
failed, but it lowers ``ok_share`` (the share of items that reached their
expected outcome in time).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
# The yardstick program, and its time on an uncontended core of the 2-core
# x86-64 VM the benchmark was defined on (Python 3.11).
YARDSTICK_PROGRAM = ("import fractions, decimal, json, statistics, argparse, dataclasses, "
                     "typing, email.message, http.client")
YARDSTICK_NOMINAL_S = 0.07

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402

# Set-up and yardstick samples taken after every pass (set-up also takes
# the import time of every pass's own processes), so that they spread over
# the whole run.
SAMPLES_PER_PASS = 2
# Passes every run completes whatever --seconds says.
MIN_PASSES = {"verify-all": 5, "exact-highweight": 3, "cold-queries": 3}
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


class BenchError(Exception):
    pass


@dataclass
class Child:
    result: dict | None
    t0: float
    t1: float
    timed_out: bool = False
    error: str = ""

    @property
    def import_s(self) -> float:
        """Fresh interpreter to `import polylog` done."""
        return self.result["import_done"] - self.t0


@dataclass
class Pass:
    wall_s: float
    latencies: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    imports: list[float] = field(default_factory=list)
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    missed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    trace: dict | None = None
    traced: bool = False


def compile_bytecode() -> None:
    """Rewrite the package's bytecode, untimed, as installing it would."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src/polylog", str(HERE)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def spawn(job: str, inp: dict, trace: bool = False, timeout: float | None = None) -> Child:
    argv = [sys.executable, str(CHILD), job] + (["--trace"] if trace else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(json.dumps(inp), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Child(None, t0, time.perf_counter(), timed_out=True)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        return Child(None, t0, t1, error=(err.strip().splitlines() or ["?"])[-1])
    return Child(json.loads(out.strip().splitlines()[-1]), t0, t1)


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# one pass of each workload
# ---------------------------------------------------------------------------

def verify_pass(ref: dict, trace: bool) -> Pass:
    """The snapshot fixes every entry's status and symbolic field, so the one
    intentionally red entry (appendix.truncation-nine-decimals.p5kt10) must
    stay red; entries added later must pass."""
    c = spawn("verify", {}, trace)
    if c.result is None:
        raise BenchError(f"verify process failed: {c.error}")
    r = c.result
    p = Pass(r["wall_s"], r["latencies"], r["cpu"], [c.import_s],
             peak_rss_mb=r["peak_rss_mb"], trace=r["trace"])
    seen = set()
    for ident, status, symbolic in r["entries"]:
        seen.add(ident)
        expected = ref.get(ident)
        good = status == "pass" if expected is None else [status, symbolic] == expected
        p.ok += good
        if not good:
            p.problems.append(f"verify entry {ident}: {status}")
    missing = sorted(set(ref) - seen)
    p.problems += [f"verify entry {ident} missing" for ident in missing]
    p.attempted = len(r["entries"]) + len(missing)
    p.failed = p.attempted - p.ok
    return p


def exact_pass(items: list, ref: dict, trace: bool) -> Pass:
    c = spawn("exact", {"items": items}, trace)
    if c.result is None:
        raise BenchError(f"exact-side process failed: {c.error}")
    r = c.result
    p = Pass(r["wall_s"], r["latencies"], r["cpu"], [c.import_s],
             attempted=len(items), peak_rss_mb=r["peak_rss_mb"], trace=r["trace"])
    for spec, obj in zip(items, r["closed"]):
        key = wl.item_key(spec)
        if ref.get(key) == obj:
            p.ok += 1
        else:
            p.problems.append(f"{key}: closed form differs from the snapshot")
    p.failed = p.attempted - p.ok
    return p


def _close(a, b, rel: float) -> bool:
    return isinstance(a, float) and abs(a - b) <= rel * max(1.0, abs(b))


def check_cli_output(argv: list[str], rc: int, stdout: str, ref: dict | None) -> str:
    """'' when the query's outcome is the expected one, else a description."""
    if ref is None:                       # beyond-capacity probe
        if rc == 3:
            return ""
        if rc != 0:
            return f"exit {rc}"
        import mpmath
        import refs
        with mpmath.workdps(20):
            expected = float(refs.quantity(refs.cli_spec(argv)))
        value = json.loads(stdout)["decimal"]
        return "" if _close(value, expected, 1e-9) else f"decimal {value} vs mpmath {expected}"
    if rc != ref["rc"]:
        return f"exit {rc}, expected {ref['rc']}"
    if rc != 0:
        return ""
    got, want = json.loads(stdout), ref["out"]
    if set(got) != set(want):
        return "output fields differ"
    for k, v in want.items():
        if k in ("oracle", "abs_error"):
            # the quadrature oracle is held to its 1e-11 target, not to bits
            good = _close(got[k], v, 1e-9)
        elif isinstance(v, float):
            good = _close(got[k], v, 1e-12)
        else:
            good = got[k] == v
        if not good:
            return f"field {k} differs from the snapshot"
    return ""


def check_query(p: Pass, argv: list[str], c: Child, ref: dict | None) -> None:
    """Count one query's outcome in p; ref is None for a probe."""
    key = wl.query_key(argv)
    if c.timed_out and ref is None:
        p.missed += 1
        p.problems.append(f"{key}: no outcome within {wl.QUERY_DEADLINE_S} s")
        return
    if c.timed_out:
        problem = f"no outcome within {wl.QUERY_DEADLINE_S} s"
    elif c.result is None:
        problem = f"process failed: {c.error}"
    else:
        problem = check_cli_output(argv, c.result["rc"], c.result["stdout"], ref)
    if problem:
        p.failed += 1
        p.problems.append(f"{key}: {problem}")
    else:
        p.ok += 1


def cold_pass(queries: list, ref: dict, trace: bool) -> Pass:
    """One timed pass over the in-capacity queries; outputs are checked after
    the pass is timed, so the checking is not charged to it."""
    t0 = time.perf_counter()
    children = [spawn("cli", {"argv": argv}, trace, timeout=wl.QUERY_DEADLINE_S)
                for argv in queries]
    p = Pass(time.perf_counter() - t0, [c.t1 - c.t0 for c in children],
             [c.result["process_cpu_s"] if c.result else c.t1 - c.t0 for c in children],
             [c.import_s for c in children if c.result], attempted=len(queries))
    done = [c.result for c in children if c.result is not None]
    p.peak_rss_mb = statistics.median(r["peak_rss_mb"] for r in done) if done else 0.0
    p.trace = layers.merge([r["trace"] for r in done if r["trace"]]) if trace else None
    for argv, c in zip(queries, children):
        check_query(p, argv, c, ref[wl.query_key(argv)])
    return p


def probe_pass(probes: list) -> Pass:
    """The beyond-capacity probes, once per run and untimed: each must return
    a value or exit 3 before its deadline."""
    p = Pass(0.0, attempted=len(probes))
    for argv in probes:
        check_query(p, argv, spawn("cli", {"argv": argv}, timeout=wl.QUERY_DEADLINE_S), None)
    return p


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], pct: float) -> float:
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return max(p for p in TAIL_LADDER if samples * (1.0 - p / 100.0) >= 10.0)


def measure_yardstick(n: int) -> list[float]:
    """Wall time of the yardstick program, n times."""
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", YARDSTICK_PROGRAM], cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def measure_setup(n: int) -> list[float]:
    """Fresh interpreter to `import polylog` done, n times."""
    samples = []
    for _ in range(n):
        c = spawn("setup", {})
        if c.result is None:
            raise BenchError(f"import failed: {c.error}")
        samples.append(c.import_s)
    return samples


def fastest(passes: list[Pass], per_item: str) -> list[float]:
    """Each item's fastest time over the passes (every pass runs the same
    items in the same order)."""
    return [min(xs) for xs in zip(*(getattr(p, per_item) for p in passes))]


def best_pass_s(passes: list[Pass]) -> float:
    return sum(fastest(passes, "latencies"))


def end_to_end(passes: list[Pass], probes: list[Pass], setup: list[float],
               yardstick: list[float]) -> tuple[dict, list[str]]:
    """Timings from the timed passes, at the nominal host speed (see the
    module docstring); ok_share from every item, probes too."""
    best_wall = fastest(passes, "latencies")
    run_s = sum(best_wall)
    pct = tail_percentile(len(best_wall))
    attempted = sum(p.attempted for p in passes + probes)
    scale = YARDSTICK_NOMINAL_S / min(yardstick)
    values = {   # name: (unscaled value, unit, samples, power of the scale factor)
        "setup_s": (min(setup), "s", len(setup), 1),
        "run_s": (run_s, "s", len(passes), 1),
        "cpu_s": (sum(fastest(passes, "cpus")), "s", len(passes), 1),
        "items_per_s": (statistics.median(p.ok for p in passes) / run_s, "1/s", len(passes), -1),
        "latency_p50_ms": (statistics.median(best_wall) * 1e3, "ms", len(best_wall), 1),
        "latency_tail_ms": (percentile(best_wall, pct) * 1e3, "ms", len(best_wall), 1),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB", len(passes), 0),
        "ok_share": (sum(p.ok for p in passes + probes) / attempted, "share", attempted, 0),
    }
    lines = [f"{'metric':18s} {'reported':>14s} {'unscaled':>14s} unit   samples"]
    lines += [f"{name:18s} {v * scale ** k:14.6f} {v:14.6f} {u:6s} n={n}"
              for name, (v, u, n, k) in values.items()]
    lines.append(f"scale factor {scale:.4f}: yardstick fastest {min(yardstick):.5f} s "
                 f"of n={len(yardstick)}, nominal {YARDSTICK_NOMINAL_S} s")
    lines.append(f"latency_tail_ms is p{pct:g} of n={len(best_wall)} items' fastest latencies;"
                 f" median pass wall time {statistics.median(p.wall_s for p in passes):.4f} s")
    return {name: {"value": v * scale ** k, "unit": u}
            for name, (v, u, _, k) in values.items()}, lines


def per_layer(traced: list[Pass], untraced: list[Pass], micro: dict) -> tuple[dict, list[str]]:
    rows = [layers.from_trace(p.trace) for p in traced]
    lines = []
    out = {}
    group_of = {g["metrics"][0]: g for g in layers.GROUPS}
    for name in layers.METRICS:
        if name in group_of:
            g = group_of[name]
            lines.append(f"[{g['layer']}] should move {g['moves']}"
                         + (f"; idle on {g['idle_on']}" if g["idle_on"] else ""))
        unit = layers.unit(name)
        if name == "trace.overhead_s":
            value = best_pass_s(traced) - best_pass_s(untraced)
        elif name in micro:
            value = micro[name]
        elif unit in ("count", "evals/call"):
            value = rows[0][name]
            if any(r[name] != value for r in rows[1:]):
                lines.append(f"counter {name} differs between traced passes: "
                             + ", ".join(str(r[name]) for r in rows))
        else:
            value = statistics.median(r[name] for r in rows)
        out[name] = {"value": value, "unit": unit}
        lines.append(f"{name:48s} {value:16.6f} {unit}")
    lines.append(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}")
    return out, lines


def run_micro() -> dict:
    c = spawn("micro", {})
    if c.result is None:
        raise BenchError(f"micro benchmark failed: {c.error}")
    r = c.result
    out = {"special.polylog_pos_us": r["polylog_pos_us"],
           "special.polylog_neg_us": r["polylog_neg_us"],
           "digamma.psi_us": r["psi_us"],
           "ipq.ipq_final_grid48_s": r["ipq_final_grid48_s"],
           "quadrature.ipq_grid48_evaluations": r["ipq_grid48_evaluations"]}
    for w in (6, 8, 10, 12):
        c = spawn("micro", {"weight": w})
        if c.result is None:
            raise BenchError(f"micro benchmark failed: {c.error}")
        out[f"seriesring.gamma_ratio_cold_w{w}_s"] = c.result["gamma_ratio_cold_s"]
    return out


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[list[Pass], list[Pass], list[float], list[float], str]:
    """Timed passes of one workload (with trace, untraced and traced passes
    alternate) until the next pass would end after `seconds`; returns the
    passes, the untimed probe passes, the set-up and yardstick samples and
    a line describing the inputs."""
    probes: list[Pass] = []
    if workload == "verify-all":
        ref = load_reference("verify_all")
        one = lambda t: verify_pass(ref, t)  # noqa: E731
        info = f"run_suite('all'), {len(ref)} reference entries"
    elif workload == "exact-highweight":
        ref = load_reference("exact_highweight")
        items = wl.exact_items(seed)
        one = lambda t: exact_pass(items, ref, t)  # noqa: E731
        info = f"{len(items)} closed forms"
    else:
        ref = load_reference("cold_queries")
        queries, probe_queries = wl.cold_queries(seed)
        probes.append(probe_pass(probe_queries))
        one = lambda t: cold_pass(queries, ref, t)  # noqa: E731
        info = (f"{len(queries)} CLI queries: " + "; ".join(map(wl.query_key, queries))
                + "; probes: " + "; ".join(map(wl.query_key, probe_queries)))
    passes: list[Pass] = []
    setup: list[float] = []
    yardstick: list[float] = []
    end = time.perf_counter() + seconds
    last = 0.0
    while time.perf_counter() + last < end or len(passes) < (2 if trace else MIN_PASSES[workload]):
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        p = one(traced)
        p.traced = traced
        passes.append(p)
        if not trace:
            setup += p.imports + measure_setup(SAMPLES_PER_PASS)
            yardstick += measure_yardstick(SAMPLES_PER_PASS)
        last = time.perf_counter() - t0
    return passes, probes, setup, yardstick, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(MIN_PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polylog" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'polylog'}", file=sys.stderr)
        return 2
    try:
        compile_bytecode()
        passes, probes, setup, yardstick, info = run(args.workload, args.seed, args.seconds,
                                                     bool(args.trace))
        if args.trace:
            traced = [p for p in passes if p.traced]
            untraced = [p for p in passes if not p.traced]
            metrics, lines = per_layer(traced, untraced, run_micro())
        else:
            metrics, lines = end_to_end(passes, probes, setup, yardstick)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    counted = passes + probes
    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)
    missed = sum(p.missed for p in counted)
    problems = sorted({msg for p in counted for msg in p.problems})
    print(f"workload {args.workload} seed {args.seed}: {info}")
    print(f"passes {len(passes)}, items attempted {attempted}, failed {failed}, "
          f"missed deadline {missed}")
    for line in lines:
        print(line)
    for msg in problems[:20]:
        print(f"problem: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
