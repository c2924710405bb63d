"""Command-line surface: evaluate named quantities, emit tables, verify.

Output is machine-first JSON (sorted keys, stable float repr); --pretty
switches to indented JSON.  Exit codes: 0 success, 1 verification failure,
2 usage error (argparse), 3 domain/capacity error from the math modules or
an input/output file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from .approx import s_minus_truncated
from .closedform import ClosedForm, _check_weight, monomial_name
from .errors import CapacityError, ConvergenceError, DomainError
from .eulersums import c_sum, jordan_nielsen, milgram, s_minus, s_plus, sum_oracle
from .ipq import Family, ipq_final, ipq_numeric
from .lognm import h_closed, i_closed
from .seriesring import kolbig_snp
from .sigma import cf_num, registry, sigma_tilde
from .verify import SUITES, run_suite

# `eval s-np` serves the s_{n,p} table to this weight and exits 3 above it.
SNP_TABLE_WEIGHT = 8

# Each eval target: the flags it requires, and its builder.  The builders
# are lambdas so that each call reads the module's names afresh.
_EVAL_TARGETS = {
    "ipq": (("family", "p", "q"), lambda family, p, q: ipq_final(Family(family), p, q)),
    "s-plus": (("r",), lambda r: s_plus(r)),
    "s-minus": (("r",), lambda r: s_minus(r)),
    "jordan1": (("r",), lambda r: jordan_nielsen("J1", r)),
    "jordan2": (("r",), lambda r: jordan_nielsen("J2", r)),
    "milgram": (("r",), lambda r: milgram(r)),
    "c": (("r",), lambda r: c_sum(r)),
    "s-np": (("n", "p"), lambda n, p: kolbig_snp(n, p, max_weight=SNP_TABLE_WEIGHT)),
    "sigma-np": (("n", "p"), lambda n, p: sigma_tilde(n, p)),
    "inm": (("n", "m"), lambda n, m: i_closed(n, m)),
    "hnm": (("n", "m"), lambda n, m: h_closed(n, m)),
    "approx": (("p", "kt"), lambda p, kt: s_minus_truncated(p, kt)),
}


def _emit(obj: dict, pretty: bool) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2 if pretty else None))


def _closed_payload(cf: ClosedForm) -> dict:
    return {"closed": cf.to_obj(), "pretty": cf.pretty(), "decimal": cf_num(cf)}


def _cmd_eval(args: argparse.Namespace) -> int:
    names, build = _EVAL_TARGETS[args.target]
    params = {n: getattr(args, n) for n in names}
    missing = [n for n in names if params[n] is None]
    if missing:
        print(f"error: target {args.target!r} requires "
              + ", ".join(f"--{n}" for n in missing), file=sys.stderr)
        raise SystemExit(2)
    if "family" in params:
        params["family"] = Family.parse(params["family"]).value
    _emit({"target": args.target, "params": params, **_closed_payload(build(**params))},
          args.pretty)
    return 0


def _cmd_ipq(args: argparse.Namespace) -> int:
    fam = Family.parse(args.family)
    payload = _closed_payload(ipq_final(fam, args.p, args.q))
    oracle = ipq_numeric(fam, args.p, args.q)
    _emit({**payload, "oracle": oracle, "abs_error": abs(payload["decimal"] - oracle)},
          args.pretty)
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    cf = s_minus_truncated(args.p, args.kt)
    value = cf_num(cf)
    reference = sum_oracle("SMinus", args.p)
    _emit({"closed_form": cf.to_obj(), "pretty": cf.pretty(), "decimal": value,
           "reference_decimal": reference, "abs_error": abs(value - reference)},
          args.pretty)
    return 0


def _read_config(path: str | None) -> dict[str, float]:
    if not path:
        return {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from None
    overrides: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if not _:
            raise DomainError(f"config line without '=': {line!r}")
        key = key.strip()
        if key in overrides:
            raise DomainError(f"config key {key!r} is given twice")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise DomainError(f"config value is not a number: {line!r}") from None
    return overrides


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, args.tol_scale, _read_config(args.config))
    for e in report.entries:
        line = f"{e.status.upper():4s} {e.identity_id}  err={e.abs_error:.3e} tol={e.tolerance:.1e}"
        if e.note:
            line += f"  [{e.note}]"
        print(line)
    print(f"summary: {report.passed} pass, {report.failed} fail")
    if args.json:
        Path(args.json).write_text(report.to_json(indent=2))
    return 1 if report.failed else 0


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get("POLYLOG_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _table_entries(kind: str, max_weight: int) -> list[tuple[str, ClosedForm]]:
    if max_weight < 2:
        raise DomainError(f"max weight {max_weight} is below 2, the lowest weight of every table")
    w = max_weight
    if kind == "inm":
        return [(f"i({n},{m})", i_closed(n, m)) for n in range(1, w) for m in range(n, w - n + 1)]
    if kind == "hnm":
        return [(f"h({n},{m})", h_closed(n, m)) for n in range(1, w) for m in range(1, w - n + 1)]
    if kind == "sigma":
        return [(f"sigma_{n}_{p}", cf) for (n, p), cf in sorted(registry().closed.items())
                if n + p <= w]
    _check_weight(w + 1)  # I(p,q) has weight p+q+1: refuse before building any entry
    return [(f"I[{fam.value}]({p},{q})", ipq_final(fam, p, q))
            for fam in Family for p in range(1, w) for q in range(1, w - p + 1)]


def _cmd_table(args: argparse.Namespace) -> int:
    import csv

    entries = _table_entries(args.kind, args.max_weight)
    out = _out_dir(args)

    columns = sorted({m for _, cf in entries for m in cf.terms})

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["entry"] + [monomial_name(m) for m in columns])
    for name, cf in entries:
        row = [name]
        for mono in columns:
            c = cf.coefficient(mono)
            row.append(str(c) if c else "")
        writer.writerow(row)
    csv_path = out / f"{args.kind}_table.csv"
    csv_path.write_text(buf.getvalue())

    obj = {"kind": args.kind, "max_weight": args.max_weight,
           "entries": [{"key": name, "closed": cf.to_obj(), "pretty": cf.pretty(),
                        "decimal": cf_num(cf)} for name, cf in entries]}
    json_path = out / f"{args.kind}_table.json"
    json_path.write_text(json.dumps(obj, sort_keys=True, indent=2))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylog",
        description="Exact closed forms and certified numerics for "
                    "logarithmic/polylogarithmic integrals and Euler sums")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a named quantity")
    pe.add_argument("target", choices=_EVAL_TARGETS)
    pe.add_argument("--family", type=str)
    pe.add_argument("--p", type=int)
    pe.add_argument("--q", type=int)
    pe.add_argument("--r", type=int)
    pe.add_argument("--n", type=int)
    pe.add_argument("--m", type=int)
    pe.add_argument("--kt", type=int)
    pe.add_argument("--pretty", action="store_true")
    pe.set_defaults(fn=_cmd_eval)

    pi = sub.add_parser("ipq", help="one I(p,q) value with its quadrature oracle")
    pi.add_argument("--family", required=True)
    pi.add_argument("--p", type=int, required=True)
    pi.add_argument("--q", type=int, required=True)
    pi.add_argument("--pretty", action="store_true")
    pi.set_defaults(fn=_cmd_ipq)

    pa = sub.add_parser("approx", help="truncated alternating Euler sum")
    pa.add_argument("quantity", choices=["s-minus"])
    pa.add_argument("--p", type=int, required=True)
    pa.add_argument("--kt", type=int, required=True)
    pa.add_argument("--pretty", action="store_true")
    pa.set_defaults(fn=_cmd_approx)

    pv = sub.add_parser("verify", help="run identity verification suites")
    pv.add_argument("--suite", default="all", choices=["all", *SUITES])
    pv.add_argument("--tol-scale", type=float, default=1.0)
    pv.add_argument("--config", type=str, default=None,
                    help="key = value file of per-identity tolerance overrides")
    pv.add_argument("--json", type=str, default=None,
                    help="write the full report to this path")
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("table", help="emit a closed-form table as CSV + JSON")
    pt.add_argument("--kind", required=True, choices=["inm", "hnm", "sigma", "ipq"])
    pt.add_argument("--max-weight", type=int, default=6)
    pt.add_argument("--out", type=str, default=None,
                    help="output directory (default $POLYLOG_OUT or ./out)")
    pt.set_defaults(fn=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
