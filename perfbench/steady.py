#!/usr/bin/env python3
"""Steadiness self-check: two sets of benchmark runs on the same code.

    python3 perfbench/steady.py [--workload NAME ...] [--seeds 10] [--sets 2]
                                [--trace] [--out FILE]

Each set runs every chosen workload once per seed (seeds 1..N), one run at a
time, for the run_seconds of BENCHMARK.json.  For every end-to-end metric
and workload it prints, per set, the median, the quartiles and the spread
(interquartile distance over the median, as statistics.quantiles(n=4) gives
them), the metric's bound, and whether the spread stays within the bound
and the later set's median within the bound of the earlier one's.  With
--trace the runs are traced instead and every count-valued layer metric
must repeat exactly between sets for the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int, trace: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
            "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: outputs NOT correct", flush=True)
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=str, default=None, help="write all results as JSON here")
    args = ap.parse_args()

    chosen = args.workload or names
    runs = {w: [[] for _ in range(args.sets)] for w in chosen}
    for s in range(args.sets):
        for w in chosen:
            for seed in range(1, args.seeds + 1):
                runs[w][s].append(run_once(bench, w, seed, args.trace))
                print(f"set {s + 1} {w} seed {seed} done", flush=True)

    ok = True
    if args.trace:
        counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "evals/call")]
        for w in chosen:
            for seed_runs in zip(*runs[w]):
                first = seed_runs[0]["metrics"]
                for other in seed_runs[1:]:
                    for name in counts:
                        if other["metrics"][name]["value"] != first[name]["value"]:
                            ok = False
                            print(f"{w}: {name} did not repeat: {first[name]['value']} vs "
                                  f"{other['metrics'][name]['value']}")
        print("counters repeat exactly" if ok else "COUNTERS DIFFER")
    else:
        print(f"{'workload':17s} {'metric':16s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
        for w in chosen:
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                meds = []
                for s in range(args.sets):
                    vals = [r["metrics"][name]["value"] for r in runs[w][s]]
                    med, q1, q3, spread = summarize(vals)
                    meds.append(med)
                    verdict = []
                    if spread > bound:
                        verdict.append("SPREAD ABOVE BOUND")
                    elif spread > bound / 3:
                        verdict.append("spread above bound/3")
                    if s > 0:
                        worse = (meds[0] - med) / meds[0] if metric["better"] == "higher" \
                            else (med - meds[0]) / meds[0]
                        if worse > bound:
                            verdict.append("MEDIAN WORSE THAN SET 1 BY MORE THAN BOUND")
                    ok = ok and not any(v.isupper() for v in verdict)
                    print(f"{w:17s} {name:16s} {s + 1:3d} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                          f"{spread:7.3f} {bound:6.2f}  {', '.join(verdict) or 'ok'}")
        print("all spreads and medians within bounds" if ok else "NOT STEADY")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
