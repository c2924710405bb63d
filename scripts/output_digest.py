#!/usr/bin/env python3
"""SHA-256 digests of the package's outputs, one line per family.

CI diffs its output against the committed scripts/output_digest.txt on
every Python version, so a change that must leave every output
byte-identical is checked by it; a change meant to move an output edits
that file and names the family.  Each line gives the family, its number of
outputs and the digest over them.  Every query
runs in this one process, through polylog.cli.main:

- verify: for each suite and for all, the report JSON bytes, stdout and
  the exit code;
- eval <target>: every value -1..19 of each of the target's flags (the
  three families for --family): stdout, the first stderr line and the
  exit code;
- ipq: the ipq command over p, q in -1..6 and the three families, and
  approx: the approx command over p in -1..6 and kt in -1..12, each with
  the same three parts as eval;
- table <kind>: --max-weight 2..18, the exit code and the CSV and JSON
  bytes (a refused table writes neither);
- truncation_study: the stdout of scripts/truncation_study.py;
- usage: malformed argv and -h/--help, top level and for each command: the
  exit code, the first stdout line and the whole of stderr (a usage error
  writes its usage line and then its error line).

Usage:
    PYTHONPATH=src python scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import runpy
import sys
import tempfile
from pathlib import Path

from polylog.cli import _COMMANDS, _EVAL_TARGETS, main as cli_main
from polylog.verify import SUITES

_FLAG_VALUES = range(-1, 20)
_FAMILIES = ("plus", "minus", "mixed")
_TABLE_KINDS = ("inm", "hnm", "sigma", "ipq")
_TABLE_WEIGHTS = range(2, 19)
_USAGE_ARGV = (
    [], ["-h"], ["--help"], ["--he"], ["bogus"], ["--bogus", "eval", "c", "--r", "3"],
    *([command, flag] for command in _COMMANDS for flag in ("-h", "--help")),
    ["eval"], ["eval", "nonsense"], ["eval", "s-plus", "--r"], ["eval", "s-plus", "--r", "x"],
    ["eval", "s-plus", "--r=1.5"], ["eval", "s-plus", "--r", "--pretty"],
    ["eval", "s-plus", "--pretty=x"], ["eval", "s-plus", "3"], ["eval", "s-plus", "--bogus"],
    ["eval", "ipq", "--p", "2", "--q", "3"], ["ipq", "--family", "plus", "--p", "1"],
    ["approx", "s-plus", "--p", "1", "--kt", "1"], ["verify", "--suite", "bogus"],
    ["verify", "--tol-scale", "x"], ["verify", "--=x"], ["table", "--kind"],
    ["table", "--kind", "bogus"], ["table", "--kind", "inm", "--max-weight", "x"],
)


def _captured(run) -> tuple[object, str, str]:
    """(result or exit code, stdout, stderr) of run(); a SystemExit is caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = run()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _query(argv: list[str]) -> list:
    code, out, err = _captured(lambda: cli_main(argv))
    return [code, out, err.partition("\n")[0]]


def _verify(tmp: Path):
    for suite in ("all", *SUITES):
        report = tmp / f"report-{suite}.json"
        code, out, _ = _captured(lambda: cli_main(["verify", "--suite", suite,
                                                   "--json", str(report)]))
        yield [suite, code, out, report.read_text() if report.exists() else None]


def _eval(target: str, flags: tuple[str, ...]):
    choices = [_FAMILIES if flag == "family" else _FLAG_VALUES for flag in flags]
    for values in itertools.product(*choices):
        argv = ["eval", target, *(f"--{f}={v}" for f, v in zip(flags, values))]
        yield [argv, *_query(argv)]


def _ipq():
    for family, p, q in itertools.product(_FAMILIES, range(-1, 7), range(-1, 7)):
        argv = ["ipq", f"--family={family}", f"--p={p}", f"--q={q}"]
        yield [argv, *_query(argv)]


def _approx():
    for p, kt in itertools.product(range(-1, 7), range(-1, 13)):
        argv = ["approx", "s-minus", f"--p={p}", f"--kt={kt}"]
        yield [argv, *_query(argv)]


def _table(kind: str):
    for weight in _TABLE_WEIGHTS:
        with tempfile.TemporaryDirectory() as out:
            code, _, _ = _captured(lambda: cli_main(["table", "--kind", kind, "--max-weight",
                                                     str(weight), "--out", out]))
            files = [Path(out, f"{kind}_table.{ext}") for ext in ("csv", "json")]
            yield [weight, code, *(f.read_text() if f.exists() else None for f in files)]


def _truncation_study():
    script = Path(__file__).with_name("truncation_study.py")
    argv, sys.argv = sys.argv, [str(script)]
    try:
        _, out, _ = _captured(lambda: runpy.run_path(str(script), run_name="__main__"))
    finally:
        sys.argv = argv
    yield [out]


def _usage():
    for argv in _USAGE_ARGV:
        code, out, err = _captured(lambda: cli_main(argv))
        yield [argv, code, out.partition("\n")[0], err]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        families = [("verify", _verify(Path(tmp)))]
        families += [(f"eval {target}", _eval(target, flags))
                     for target, (flags, _) in _EVAL_TARGETS.items()]
        families += [("ipq", _ipq()), ("approx", _approx())]
        families += [(f"table {kind}", _table(kind)) for kind in _TABLE_KINDS]
        families.append(("truncation_study", _truncation_study()))
        families.append(("usage", _usage()))
        for family, outputs in families:
            digest, count = hashlib.sha256(), 0
            for output in outputs:
                digest.update(json.dumps(output).encode() + b"\n")
                count += 1
            print(f"{family:18s} {count:5d} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
