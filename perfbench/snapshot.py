#!/usr/bin/env python3
"""Write or validate the closed-form references in perfbench/reference/.

    python3 perfbench/snapshot.py            # rewrite the three snapshots
    python3 perfbench/snapshot.py --validate # check them against mpmath

The snapshots hold every closed form the verify-all, exact-highweight and
cold-queries workloads can produce, as ``ClosedForm.to_obj()`` objects, so
the benchmark compares them term for term.  They are taken once, at the
commit that defined the benchmark; a change that alters a closed form makes
the benchmark report it as wrong.

``--validate`` evaluates every snapshot closed form with 50-digit arithmetic
and compares it with the quantity it denotes, computed by mpmath from its
definition (see refs.py); they must agree to 30 digits.  The worst relative
errors go to reference/validation.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

DPS = 50
AGREE = 1e-30          # relative agreement demanded of every closed form
AGREE_FLOAT = 1e-12    # ... and of its float64 value as the package prints it


def _dump(name: str, obj) -> None:
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / f"{name}.json").write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _cli(argv: list[str]):
    from polylog import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, (json.loads(buf.getvalue()) if rc == 0 else None)


def write() -> None:
    import polylog
    from child import _exact_call
    report = polylog.run_suite("all")
    _dump("verify_all", {e.identity_id: [e.status, e.symbolic] for e in report.entries})
    _dump("exact_highweight", {wl.item_key(s): _exact_call(s).to_obj()
                               for s in wl.exact_catalogue()})
    cold = {}
    for argv in wl.regular_catalogue():
        rc, out = _cli(argv)
        cold[wl.query_key(argv)] = {"rc": rc, "out": out}
    _dump("cold_queries", cold)


def validate() -> dict:
    import mpmath as mp
    import polylog
    import refs
    mp.mp.dps = DPS
    atoms: dict = {}
    worst: dict[str, tuple[float, str]] = {}
    bad: list[str] = []

    def record(group: str, key: str, closed, expected, agree=AGREE) -> None:
        err = float(abs(closed - expected) / max(1, abs(expected)))
        if err > worst.get(group, (-1.0, ""))[0]:
            worst[group] = (err, key)
        if err > agree:
            bad.append(f"{group} {key}: relative error {err:.3e}")

    exact = json.loads((REFERENCE / "exact_highweight.json").read_text())
    for spec in wl.exact_catalogue():
        key = wl.item_key(spec)
        expected = refs.quantity(spec)
        if expected is None:
            if exact[key]["terms"]:
                bad.append(f"exact {key}: residual is not zero")
            continue
        record("exact_highweight", key, refs.closed_value(exact[key], atoms), expected)

    cold = json.loads((REFERENCE / "cold_queries.json").read_text())
    for argv in wl.regular_catalogue():
        key = wl.query_key(argv)
        out = cold[key]["out"]
        if out is None:
            continue
        closed = refs.closed_value(out.get("closed") or out["closed_form"], atoms)
        record("cold_queries", key, closed, refs.quantity(refs.cli_spec(argv)))
        record("cold_queries.decimal", key, mp.mpf(out["decimal"]), closed, AGREE_FLOAT)

    # verify-all: every symbolic closed value against its float64 evaluation
    # and its oracle; every passing exact entry must be an exact zero.
    snapshot = json.loads((REFERENCE / "verify_all.json").read_text())
    for e in polylog.run_suite("all").entries:
        if [e.status, e.symbolic] != snapshot[e.identity_id]:
            bad.append(f"verify {e.identity_id}: differs from the snapshot")
        if e.symbolic is None:
            continue
        value = refs.closed_value(json.loads(e.symbolic), atoms)
        if e.oracle_value is None:
            if e.status == "pass" and json.loads(e.symbolic)["terms"]:
                bad.append(f"verify {e.identity_id}: passing residual is not zero")
            continue
        record("verify_all.closed_value", e.identity_id, mp.mpf(e.closed_value), value,
               AGREE_FLOAT)
        if e.status == "pass" and abs(value - e.oracle_value) > e.tolerance:
            bad.append(f"verify {e.identity_id}: oracle outside tolerance at {DPS} digits")

    return {"dps": DPS, "agreement_required": AGREE,
            "worst_relative_error": {g: {"error": err, "item": key}
                                     for g, (err, key) in sorted(worst.items())},
            "atoms": {name: mp.nstr(v, 30) for name, v in sorted(atoms.items())},
            "agreement_required_float64": AGREE_FLOAT, "problems": bad}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--validate", action="store_true")
    args = ap.parse_args()
    if not args.validate:
        write()
        return 0
    result = validate()
    _dump("validation", result)
    for group, w in result["worst_relative_error"].items():
        print(f"{group:28s} worst {w['error']:.3e}  ({w['item']})")
    for msg in result["problems"]:
        print(f"problem: {msg}")
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
