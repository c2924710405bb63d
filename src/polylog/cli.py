"""Command-line surface: evaluate named quantities, emit tables, verify.

Output is machine-first JSON (sorted keys, stable float repr); --pretty
switches to indented JSON.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 domain/capacity error from the math modules or an
input/output file that cannot be read or written.  One command table,
_COMMANDS, drives the argument parser (parse_args), the usage lines and the
help; -h/--help exits 0.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

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


def _cmd_eval(args: SimpleNamespace) -> int:
    names, build = _EVAL_TARGETS[args.target]
    params = {n: getattr(args, n) for n in names}
    missing = [n for n in names if params[n] is None]
    if missing:
        _fail("eval", f"target {args.target!r} requires " + ", ".join(f"--{n}" for n in missing))
    if "family" in params:
        params["family"] = Family.parse(params["family"]).value
    _emit({"target": args.target, "params": params, **_closed_payload(build(**params))},
          args.pretty)
    return 0


def _cmd_ipq(args: SimpleNamespace) -> int:
    fam = Family.parse(args.family)
    payload = _closed_payload(ipq_final(fam, args.p, args.q))
    oracle = ipq_numeric(fam, args.p, args.q)
    _emit({**payload, "oracle": oracle, "abs_error": abs(payload["decimal"] - oracle)},
          args.pretty)
    return 0


def _cmd_approx(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
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


def _out_dir(args: SimpleNamespace) -> Path:
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
        return [(f"sigma_{n}_{p}", cf) for (n, p), cf in sorted(registry().items())
                if n + p <= w]
    _check_weight(w + 1)  # I(p,q) has weight p+q+1: refuse before building any entry
    return [(f"I[{fam.value}]({p},{q})", ipq_final(fam, p, q))
            for fam in Family for p in range(1, w) for q in range(1, w - p + 1)]


def _cmd_table(args: SimpleNamespace) -> int:
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


# The command table.  Each command maps to (help line, positional, flags,
# handler).  The positional is (name, choices) or None.  Each flag maps its
# --name to (type, required, default, choices, help line); a flag of type
# None is a switch, False unless given.
_PRETTY = (None, False, False, None, "indent the JSON output")
_COMMANDS = {
    "eval": ("evaluate a named quantity", ("target", _EVAL_TARGETS), {
        "--family": (str, False, None, None, "family of ipq: plus, minus or mixed"),
        "--p": (int, False, None, None, "p of ipq, s-np, sigma-np and approx"),
        "--q": (int, False, None, None, "q of ipq"),
        "--r": (int, False, None, None, "r of s-plus, s-minus, jordan1, jordan2, milgram and c"),
        "--n": (int, False, None, None, "n of s-np, sigma-np, inm and hnm"),
        "--m": (int, False, None, None, "m of inm and hnm"),
        "--kt": (int, False, None, None, "kt, the terms kept by approx"),
        "--pretty": _PRETTY,
    }, _cmd_eval),
    "ipq": ("one I(p,q) value with its quadrature oracle", None, {
        "--family": (str, True, None, None, "plus, minus or mixed"),
        "--p": (int, True, None, None, "p of I(p,q)"),
        "--q": (int, True, None, None, "q of I(p,q)"),
        "--pretty": _PRETTY,
    }, _cmd_ipq),
    "approx": ("truncated alternating Euler sum", ("quantity", ("s-minus",)), {
        "--p": (int, True, None, None, "p of S-(p)"),
        "--kt": (int, True, None, None, "kt, the terms kept"),
        "--pretty": _PRETTY,
    }, _cmd_approx),
    "verify": ("run identity verification suites", None, {
        "--suite": (str, False, "all", ("all", *SUITES), "the suite to run"),
        "--tol-scale": (float, False, 1.0, None, "multiply every tolerance by this"),
        "--config": (str, False, None, None,
                     "key = value file of per-identity tolerance overrides"),
        "--json": (str, False, None, None, "write the full report to this path"),
    }, _cmd_verify),
    "table": ("emit a closed-form table as CSV + JSON", None, {
        "--kind": (str, True, None, ("inm", "hnm", "sigma", "ipq"), "the table to emit"),
        "--max-weight": (int, False, 6, None, "the highest weight in the table"),
        "--out": (str, False, None, None, "output directory (default $POLYLOG_OUT or ./out)"),
    }, _cmd_table),
}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"  # argparse's: such a word is a value


def _shown(flag: str, kind, choices) -> str:
    """A flag as usage and help show it: a switch alone, else with its value."""
    if kind is None:
        return flag
    return f"{flag} " + ("{" + ",".join(choices) + "}" if choices
                         else flag[2:].upper().replace("-", "_"))


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: polylog [-h] {" + ",".join(_COMMANDS) + "} ..."
    _, positional, flags, _ = _COMMANDS[command]
    words = [_shown(flag, kind, choices) if required else f"[{_shown(flag, kind, choices)}]"
             for flag, (kind, required, _, choices, _) in flags.items()]
    if positional:
        words.append("{" + ",".join(positional[1]) + "}")
    return " ".join(["usage: polylog", command, "[-h]", *words])


def _fail(command: str | None, message: str):
    """A usage error: the usage line and the error on stderr, exit code 2."""
    prog = f"polylog {command}" if command else "polylog"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _print_help(command: str | None):
    """The usage line, the help line and one line per argument; exit code 0."""
    if command is None:
        about = ("Exact closed forms and certified numerics for "
                 "logarithmic/polylogarithmic integrals and Euler sums")
        rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
    else:
        about, positional, flags, _ = _COMMANDS[command]
        rows = [(positional[0], "one of " + ", ".join(positional[1]))] if positional else []
        rows += [(_shown(flag, kind, choices), text)
                 for flag, (kind, _, _, choices, text) in flags.items()]
    rows.append(("-h, --help", "show this help and exit"))
    print(_usage(command), "", about, "", *(f"  {left:22}  {text}" for left, text in rows),
          sep="\n")
    raise SystemExit(0)


def _switch(command: str | None, name: str, value: str | None) -> None:
    """A switch takes no value: one given with "=" is a usage error."""
    if value is not None:
        _fail(command, f"argument {name}: ignored explicit argument {value!r}")


def _read_word(word: str, names: tuple[str, ...], command: str | None):
    """One word as argparse reads it: (flag, its =value or None) for a flag,
    (None, None) for a value and ("", None) for an unknown option.  A unique
    prefix of a --flag names it; a negative number, a lone "-" or a word with
    a space is a value; -hh... is -h."""
    if word[:1] != "-":
        return None, None
    if word in names:
        return word, None
    if len(word) == 1:
        return None, None
    name, eq, value = word.partition("=")
    if eq and name in names:
        return name, value
    if word[1] == "-":
        hits = [flag for flag in names if flag.startswith(name)]
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {word} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif word[1] == "h":
        return "-h", None if word.rstrip("h") == "-" else word[2:]
    if " " in word or re.match(_NEGATIVE_NUMBER, word):
        return None, None
    return "", None


def _convert(command: str | None, name: str, kind, choices, word: str):
    try:
        value = kind(word)
    except ValueError:
        _fail(command, f"argument {name}: invalid {kind.__name__} value: {word!r}")
    if choices is not None and value not in choices:
        _fail(command, f"argument {name}: invalid choice: {word!r} "
                       f"(choose from {', '.join(map(repr, choices))})")
    return value


def _parse_command(command: str, words: list[str]) -> SimpleNamespace:
    _, positional, flags, _ = _COMMANDS[command]
    names = (*flags, *_HELP)
    # every word is read before any is taken, so an ambiguous prefix fails
    # first; every word after the first "--" is a value
    read = []
    for i, word in enumerate(words):
        if word == "--":
            read += [("--", None)] + [(None, None)] * (len(words) - i - 1)
            break
        read.append(_read_word(word, names, command))
    args = {"command": command}
    args.update((flag[2:].replace("-", "_"), default)
                for flag, (_, _, default, _, _) in flags.items())
    given, unknown, taken_at, i = set(), [], None, 0
    while i < len(words):
        word, (flag, value) = words[i], read[i]
        i += 1
        if flag in _HELP:
            _switch(command, "-h/--help", value)
            _print_help(command)
        elif flag == "--":
            # argparse drops it before the positional and right after it
            if not positional or taken_at not in (None, i - 2):
                unknown.append(word)
        elif flag:
            kind, _, _, choices, _ = flags[flag]
            if kind is None:
                _switch(command, flag, value)
                value = True
            else:
                if value is None:
                    if i == len(words) or read[i] != (None, None):
                        _fail(command, f"argument {flag}: expected one argument")
                    value, i = words[i], i + 1
                value = _convert(command, flag, kind, choices, value)
            args[flag[2:].replace("-", "_")] = value
            given.add(flag)
        elif flag is None and positional and taken_at is None:
            args[positional[0]] = _convert(command, positional[0], str, positional[1], word)
            taken_at = i - 1
        else:
            unknown.append(word)
    missing = [positional[0]] if positional and taken_at is None else []
    missing += [flag for flag, (_, required, _, _, _) in flags.items()
                if required and flag not in given]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _fail(command, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**args)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its values from argv, as the handlers read them; a
    usage error exits with code 2, and -h/--help prints the help and exits 0."""
    unknown = []
    for i, word in enumerate(argv):
        flag, value = _read_word(word, _HELP, None) if word != "--" else (None, None)
        if flag is None:
            args = _parse_command(_convert(None, "command", str, _COMMANDS, word), argv[i + 1:])
            if unknown:
                _fail(None, f"unrecognized arguments: {' '.join(unknown)}")
            return args
        if flag:
            _switch(None, "-h/--help", value)
            _print_help(None)
        unknown.append(word)
    _fail(None, "the following arguments are required: command")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][3](args)
    except (DomainError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
