"""The table-driven parser of polylog.cli against the argparse parser it
replaced (tests/argparse_reference.py): the same argv is refused by both
with exit code 2, or accepted by both with the same values."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from polylog.cli import _COMMANDS, _EVAL_TARGETS, main, parse_args
from polylog.verify import SUITES

from argparse_reference import build_parser

_REFERENCE = build_parser()

_FLAGS = sorted({flag for _, _, flags, _ in _COMMANDS.values() for flag in flags} | {"--help"})
# every prefix of a flag past its "--": unique in some commands, ambiguous
# or unknown in others, and an exact flag in itself where one is that short
_PREFIXES = sorted({flag[:k] for flag in _FLAGS for k in range(3, len(flag))})
_UNKNOWN = ["--bogus", "--x", "-x"]
_VALUES = [*map(str, range(-1, 20)), "x", "1.5", "", "plus", "minus", "mixed",
           "all", *SUITES, "inm", "sigma"]
_POSITIONALS = [*_EVAL_TARGETS, "s-minus", "nonsense"]


def _outcome(parse, argv: list[str]):
    """("exit", code) for a refusal or help, else ("ok", the values)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return "exit", exc.code
    values = dict(vars(args))
    values.pop("fn", None)  # the reference's handler; the table holds it instead
    return "ok", values


@st.composite
def _argv(draw):
    argv = []
    if draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from([*_COMMANDS, "bogus"])))
    for _ in range(draw(st.integers(0, 6))):
        form = draw(st.sampled_from(["positional", "flag", "flag value", "flag=value"]))
        if form == "positional":
            argv.append(draw(st.sampled_from(_POSITIONALS)))
            continue
        flag = draw(st.sampled_from(_FLAGS + _PREFIXES + _UNKNOWN))
        value = draw(st.sampled_from(_VALUES))
        if form == "flag":  # no value, or one missing before the next flag
            argv.append(flag)
        elif form == "flag value":
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=500)
@given(_argv())
def test_parser_accepts_and_refuses_what_argparse_did(argv):
    outcome = _outcome(parse_args, argv)
    assert outcome == _outcome(_REFERENCE.parse_args, argv)
    assert outcome[0] == "ok" or outcome[1] in (0, 2)


@pytest.mark.parametrize("argv", [
    ["eval", "s-plus", "--r", "-1"],
    ["eval", "s-plus", "--r=-1", "--r", "4"],
    ["eval", "ipq", "--fam", "plus", "--p=2", "--q", "3", "--pre"],
    ["verify", "--su", "sums", "--tol", "2"],
    ["table", "--k=inm", "--max", "4", "--out", "-"],
    ["approx", "s-minus", "--p", "5", "--kt", "10"],
])
def test_parser_reads_each_accepted_form(argv):
    outcome = _outcome(parse_args, argv)
    assert outcome[0] == "ok" and outcome == _outcome(_REFERENCE.parse_args, argv)


@pytest.mark.parametrize("argv, accepted", [
    (["eval", "--r", "3", "--", "s-plus"], True),
    (["eval", "s-plus", "--"], True),
    (["eval", "s-plus", "--r", "3", "--"], False),
    (["eval", "--", "s-plus", "--r", "3"], False),
    (["eval", "s-plus", "--r", "--", "3"], False),
])
def test_double_dash_makes_every_later_word_a_value(argv, accepted):
    assert (_outcome(parse_args, argv)[0] == "ok") == accepted


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["eval", "nonsense"], ["eval", "s-plus", "--r", "x"], ["table", "--kind"],
    ["ipq", "--family", "plus", "--p", "1"], ["verify", "--=x"], ["eval", "s-plus", "3"],
])
def test_usage_error_is_one_usage_line_and_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    prog = f"polylog {command}" if command else "polylog"
    assert exc.value.code == 2 and out == ""
    assert usage.startswith(f"usage: {prog} [-h]") and error.startswith(f"{prog}: error: ")


@pytest.mark.parametrize("argv", [[], *([command] for command in _COMMANDS)])
@pytest.mark.parametrize("help_flag", ["-h", "--help"])
def test_help_exits_0_and_names_every_flag(argv, help_flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, help_flag])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    names = _COMMANDS[argv[0]][2] if argv else _COMMANDS
    assert all(name in out for name in [*names, "-h, --help"])
