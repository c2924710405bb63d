"""The argparse parser of polylog's CLI before the table-driven parser
replaced it, kept verbatim as the reference that tests compare
polylog.cli.parse_args against: the same argv must be refused by both, with
exit code 2, or accepted by both with the same values."""

import argparse

from polylog.cli import (_EVAL_TARGETS, _cmd_approx, _cmd_eval, _cmd_ipq, _cmd_table,
                         _cmd_verify)
from polylog.verify import SUITES


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
