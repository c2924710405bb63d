"""Per-layer metrics: their names, units, and what each should move.

Each group names the end-to-end metric its layer metrics should move and on
which workload, and where the layer is idle (a no-change witness).  A metric
name is ``<module>.<function>.<stat>``; stats are read from the tracer's
span summary (``calls``, ``distinct``, ``s`` = inclusive time of outermost
calls, ``self_s`` = time not covered by child spans) or from its counters.
Names ending in ``_us``/``_cold_w*_s``/``grid48`` come from fixed-input
micro benchmarks.
"""

from __future__ import annotations

BUILDERS = (
    "ipq.ipq_final", "ipq.r_value",
    "eulersums.s_plus", "eulersums.s_minus", "eulersums.milgram",
    "eulersums.c_sum", "eulersums.jordan_nielsen", "eulersums.jordan_even",
    "lognm.i_closed", "lognm.h_closed",
    "sigma.sigma_tilde", "sigma.registry",
    "approx.s_minus_truncated",
)

GROUPS = [
    {
        "layer": "closedform",
        "metrics": [f"closedform.{op}.calls" for op in ("add", "sub", "mul", "init", "evaluate")]
        + ["closedform.fraction_new.calls", "closedform.arith.self_s"],
        "moves": "run_s and cpu_s on exact-highweight and verify-all",
        "idle_on": "",
    },
    {
        "layer": "seriesring",
        "metrics": [
            "seriesring.gamma_ratio_series.calls", "seriesring.gamma_ratio_series.distinct",
            "seriesring.gamma_ratio_series.self_s", "seriesring.series_mul.calls",
            "seriesring.series_exp.self_s", "seriesring.kolbig_snp.calls",
            "seriesring.kolbig_snp.distinct", "seriesring.kolbig_snp.s",
            "seriesring.beta_derivative_inm.s",
        ] + [f"seriesring.gamma_ratio_cold_w{w}_s" for w in (6, 8, 10, 12)],
        "moves": "run_s on exact-highweight; latency_tail_ms and ok_share on cold-queries",
        "idle_on": "",
    },
    {
        "layer": "builders",
        "metrics": [f"{fn}.{stat}" for fn in BUILDERS
                    for stat in ("calls", "distinct", "s", "self_s")]
        + ["ipq.ipq_final_grid48_s"],
        "moves": "run_s on verify-all and exact-highweight (distinct/calls shows repeated work)",
        "idle_on": "",
    },
    {
        "layer": "kernels",
        "metrics": [f"special.{fn}.{stat}" for fn in ("li_pos", "li_neg", "polylog")
                    for stat in ("calls", "self_s")]
        + ["digamma.psi.calls", "digamma.psi.self_s", "summation.zeta_num.calls",
           "sigma.cf_num.calls", "sigma.cf_num.s",
           "special.polylog_pos_us", "special.polylog_neg_us", "digamma.psi_us"],
        "moves": "run_s and cpu_s on verify-all; latency_p50_ms on cold-queries",
        "idle_on": "exact-highweight",
    },
    {
        "layer": "drivers",
        "metrics": [f"quadrature.integrate01.{stat}" for stat in
                    ("calls", "splits", "evaluations", "evals_per_call", "self_s", "s")]
        + [f"summation.{fn}.{stat}" for fn in ("sum_alternating", "sum_tail")
           for stat in ("calls", "terms", "s")]
        + [f"{fn}.s" for fn in ("ipq.ipq_numeric", "ipq.ipq_series", "special.nielsen_num",
                                "special.mpl2", "lognm.lognm_numeric", "eulersums.sum_oracle")]
        + ["quadrature.ipq_grid48_evaluations"],
        "moves": "run_s and latency_tail_ms on verify-all; latency_tail_ms on cold-queries",
        "idle_on": "exact-highweight",
    },
    {
        "layer": "verify",
        "metrics": [f"verify.{s}.s" for s in ("sums", "appendix", "ipq", "lognm")]
        + ["verify.entries"],
        "moves": "run_s on verify-all",
        "idle_on": "exact-highweight, cold-queries",
    },
    {
        "layer": "cli",
        "metrics": ["cli.main.s"],
        "moves": "latency_p50_ms on cold-queries",
        "idle_on": "verify-all, exact-highweight",
    },
    {
        "layer": "trace",
        "metrics": ["trace.overhead_s"],
        "moves": "nothing: traced run_s minus untraced run_s",
        "idle_on": "",
    },
]

METRICS = [m for g in GROUPS for m in g["metrics"]]

MICRO = {
    "seriesring.gamma_ratio_cold_w6_s", "seriesring.gamma_ratio_cold_w8_s",
    "seriesring.gamma_ratio_cold_w10_s", "seriesring.gamma_ratio_cold_w12_s",
    "special.polylog_pos_us", "special.polylog_neg_us", "digamma.psi_us",
    "ipq.ipq_final_grid48_s", "quadrature.ipq_grid48_evaluations",
}

CLOSEDFORM_ARITH = ("add", "sub", "mul", "neg", "div", "pow", "init")


def unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".evals_per_call"):
        return "evals/call"
    return "count"


def from_trace(summary: dict) -> dict[str, float]:
    """Every non-micro layer metric from one trace summary."""
    spans, counters = summary["spans"], summary["counters"]

    def stat(span: str, key: str) -> float:
        return spans.get(span, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in METRICS:
        if name in MICRO or name == "trace.overhead_s":
            continue
        span, _, key = name.rpartition(".")
        if name == "closedform.arith.self_s":
            out[name] = sum(stat(f"closedform.{op}", "self_s") for op in CLOSEDFORM_ARITH)
        elif name == "closedform.fraction_new.calls":
            out[name] = counters.get("fraction_new", 0)
        elif name == "verify.entries":
            out[name] = stat("verify.entry", "calls")
        elif span == "quadrature.integrate01" and key in ("splits", "evaluations",
                                                          "evals_per_call", "calls"):
            halves = counters.get("quadrature.integrate01.split_halves", 0)
            outer_calls = stat(span, "calls") - halves
            evaluations = counters.get("quadrature.integrate01.evaluations", 0)
            out[name] = {"calls": outer_calls, "splits": halves // 2,
                         "evaluations": evaluations,
                         "evals_per_call": evaluations / outer_calls if outer_calls else 0.0,
                         }[key]
        elif key == "terms":
            out[name] = counters.get(f"{span}.terms", 0)
        else:
            out[name] = stat(span, key)
    return out


def merge(summaries: list[dict]) -> dict:
    """Sum trace summaries of several processes (one per cold query)."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for s in summaries:
        for name, st in s["spans"].items():
            acc = spans.setdefault(name, {})
            for k, v in st.items():
                acc[k] = acc.get(k, 0) + v
        for name, v in s["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return {"spans": spans, "counters": counters}
