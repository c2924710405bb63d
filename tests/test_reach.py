"""Every source line runs on a production route: the verification suites,
the CLI (its usage errors and refusals included) or the scripts.  A line
that none of them executes is certified by no verify entry and kept alive
only by the tests, so each such line is named in _ALLOWED with its reason.

The judged lines of each src/polylog module are the lines of its functions
and lambdas, from co_lines().  What import runs is left out: module and
class bodies, decorators and whole def headers with their defaults.  So,
by ast, are raise statements and the if tests that guard only a raise: a
fail-fast guard is judged by the tests of its error, not by reach.

The routes run traced in a fresh interpreter (this file run as a script),
where every cache and the monomial intern table start empty, so no value
that an earlier test built or interned skips the lines that build it."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import polylog
from polylog import cli
from polylog.verify import run_suite

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_PACKAGE = Path(polylog.__file__).parent

# one in-domain value for each flag an eval target may require
_EVAL_FLAGS = {"family": "mixed", "p": 3, "q": 3, "r": 3, "n": 2, "m": 2, "kt": 3}

# argv forms the parser special-cases, a switch and a left-over "--", each
# with its exit code
_EDGE_ARGV = (
    (["-"], 2), (["-hh"], 0), (["--"], 2), (["eval", "s-plus", "--r", "3", "--"], 2),
    (["eval", "s-plus", "--r", "3", "--pretty"], 0),
)
# refused queries, exit code 3: a negative order and an unknown family
_REFUSED = (["eval", "s-plus", "--r", "-1"], ["ipq", "--family", "bogus", "--p", "1", "--q", "2"])

_DENSE = "the dense series route, which perfbench times (ROADMAP items 5 and 6)"
_PINNED = "a ClosedForm operator that perfbench wraps and no route calls (items 5 and 6)"
_ITEM5 = "a ClosedForm query that only the dense route and the tests read (item 5)"
_PROTOCOL = "binary-operator protocol: NotImplemented defers to the other operand"
_FAILURE = "handles a failure that no production input raises"
_COPY, _REPR, _HASH = "copy and pickle protocol", "repr", "hash"

# the lines no production route executes: (module, enclosing function,
# stripped source text, reason); a line that repeats in one function is
# listed as often as it repeats
_ALLOWED = [
    ("cli", "main", 'print(f"convergence error: {exc}", file=sys.stderr)', _FAILURE),
    ("cli", "main", "return 3", _FAILURE),
    ("closedform", "Atom.__getnewargs__", "return self.tag, self.args", _COPY),
    ("closedform", "Atom.__repr__", 'return f"Atom({self.name})"', _REPR),
    ("closedform", "ClosedForm.is_zero", "return not self._num", _ITEM5),
    ("closedform", "ClosedForm.atoms",
     "return {a for i in self._num for a, _ in _MONOMIALS[i]}", _ITEM5),
    ("closedform", "ClosedForm._sum", "return NotImplemented", _PROTOCOL),
    ("closedform", "ClosedForm._scaled", "return ClosedForm.zero()", _PINNED),
    ("closedform", "ClosedForm.__rsub__", "out = self._sum(other, -1)", _PINNED),
    ("closedform", "ClosedForm.__rsub__",
     "return out if out is NotImplemented else -out", _PINNED),
    ("closedform", "ClosedForm.__mul__", "return NotImplemented", _PROTOCOL),
    ("closedform", "ClosedForm.__mul__", "c += acc[m]", _PINNED),
    ("closedform", "ClosedForm.__mul__", "if not c:", _PINNED),
    ("closedform", "ClosedForm.__mul__", "del acc[m]", _PINNED),
    ("closedform", "ClosedForm.__mul__", "continue", _PINNED),
    ("closedform", "ClosedForm.__truediv__", "return NotImplemented", _PROTOCOL),
    ("closedform", "ClosedForm.__pow__", "out = ClosedForm.one()", _PINNED),
    ("closedform", "ClosedForm.__pow__", "for _ in range(exp):", _PINNED),
    ("closedform", "ClosedForm.__pow__", "out = out * self", _PINNED),
    ("closedform", "ClosedForm.__pow__", "return out", _PINNED),
    ("closedform", "ClosedForm.__eq__", "return NotImplemented", _PROTOCOL),
    ("closedform", "ClosedForm.__hash__", "if self._num.keys() <= {0}:", _HASH),
    ("closedform", "ClosedForm.__hash__", "return hash(self.coefficient(UNIT))", _HASH),
    ("closedform", "ClosedForm.__hash__", "return hash(frozenset(self.terms.items()))", _HASH),
    ("closedform", "ClosedForm.__getstate__",
     "return {_MONOMIALS[i]: c for i, c in self._num.items()}, self._den", _COPY),
    ("closedform", "ClosedForm.__setstate__", "num, self._den = state", _COPY),
    ("closedform", "ClosedForm.__setstate__",
     "self._num = {_id(m): c for m, c in num.items()}", _COPY),
    ("closedform", "ClosedForm.pretty",
     'return "0"', "the display of the zero form, which repr shows and no output prints"),
    ("closedform", "ClosedForm.__repr__", 'return f"ClosedForm({self.pretty()})"', _REPR),
    ("closedform", "_check_order", "n = int(n)",
     "an integral float order, which the tests pass; every route passes ints"),
    ("closedform", "bernoulli_fraction", "return Fraction(1) if n == 0 else Fraction(-1, 2)",
     "B_0 and B_1 of the Bernoulli table, which the tests pin; routes read even indices"),
    ("errors", "ConvergenceError.__init__", "super().__init__(message)", _FAILURE),
    ("errors", "ConvergenceError.__init__", "self.partial = partial", _FAILURE),
    ("quadrature", "log_power", "except OverflowError as exc:", _FAILURE),
    ("quadrature", "integrate01", "stalls += 1", _FAILURE),
    ("quadrature", "integrate01", "if stalls >= 2:", _FAILURE),
    ("quadrature", "integrate01", "break", _FAILURE),
    ("seriesring", "BivariateSeries.__init__",
     "na, nb = _check_order(na, 0), _check_order(nb, 0)", _DENSE),
    ("seriesring", "BivariateSeries.__init__", "self.na = na", _DENSE),
    ("seriesring", "BivariateSeries.__init__", "self.nb = nb", _DENSE),
    ("seriesring", "BivariateSeries.__init__", "if coeffs is None:", _DENSE),
    ("seriesring", "BivariateSeries.__init__",
     "self.c = [[ClosedForm.zero() for _ in range(nb + 1)]", _DENSE),
    ("seriesring", "BivariateSeries.__init__", "for _ in range(na + 1)]", _DENSE),
    ("seriesring", "BivariateSeries.__init__", "self.c = coeffs", _DENSE),
    ("seriesring", "BivariateSeries.constant", "s = cls(na, nb)", _DENSE),
    ("seriesring", "BivariateSeries.constant", "s.c[0][0] = value", _DENSE),
    ("seriesring", "BivariateSeries.constant", "return s", _DENSE),
    ("seriesring", "BivariateSeries.__add__", "self._check_shape(other)", _DENSE),
    ("seriesring", "BivariateSeries.__add__", "out = BivariateSeries(self.na, self.nb)", _DENSE),
    ("seriesring", "BivariateSeries.__add__", "for i in range(self.na + 1):", _DENSE),
    ("seriesring", "BivariateSeries.__add__", "for j in range(self.nb + 1):", _DENSE),
    ("seriesring", "BivariateSeries.__add__",
     "out.c[i][j] = self.c[i][j] + other.c[i][j]", _DENSE),
    ("seriesring", "BivariateSeries.__add__", "return out", _DENSE),
    ("seriesring", "BivariateSeries.__sub__", "self._check_shape(other)", _DENSE),
    ("seriesring", "BivariateSeries.__sub__", "out = BivariateSeries(self.na, self.nb)", _DENSE),
    ("seriesring", "BivariateSeries.__sub__", "for i in range(self.na + 1):", _DENSE),
    ("seriesring", "BivariateSeries.__sub__", "for j in range(self.nb + 1):", _DENSE),
    ("seriesring", "BivariateSeries.__sub__",
     "out.c[i][j] = self.c[i][j] - other.c[i][j]", _DENSE),
    ("seriesring", "BivariateSeries.__sub__", "return out", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "self._check_shape(other)", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "out = BivariateSeries(self.na, self.nb)", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "for i1 in range(self.na + 1):", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "row = self.c[i1]", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "for j1 in range(self.nb + 1):", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "c1 = row[j1]", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "if c1.is_zero:", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "continue", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "for i2 in range(self.na + 1 - i1):", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "for j2 in range(self.nb + 1 - j1):", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "c2 = other.c[i2][j2]", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "if c2.is_zero:", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "continue", _DENSE),
    ("seriesring", "BivariateSeries.__mul__",
     "out.c[i1 + i2][j1 + j2] = out.c[i1 + i2][j1 + j2] + c1 * c2", _DENSE),
    ("seriesring", "BivariateSeries.__mul__", "return out", _DENSE),
    ("seriesring", "BivariateSeries.scale", "out = BivariateSeries(self.na, self.nb)", _DENSE),
    ("seriesring", "BivariateSeries.scale", "for i in range(self.na + 1):", _DENSE),
    ("seriesring", "BivariateSeries.scale", "for j in range(self.nb + 1):", _DENSE),
    ("seriesring", "BivariateSeries.scale", "out.c[i][j] = self.c[i][j] * q", _DENSE),
    ("seriesring", "BivariateSeries.scale", "return out", _DENSE),
    ("seriesring", "BivariateSeries.is_zero",
     "return all(c.is_zero for row in self.c for c in row)", _DENSE),
    ("seriesring", "BivariateSeries.exp",
     "out = BivariateSeries.constant(self.na, self.nb, ClosedForm.one())", _DENSE),
    ("seriesring", "BivariateSeries.exp",
     "power = BivariateSeries.constant(self.na, self.nb, ClosedForm.one())", _DENSE),
    ("seriesring", "BivariateSeries.exp", "for k in range(1, self.na + self.nb + 1):", _DENSE),
    ("seriesring", "BivariateSeries.exp", "power = power * self", _DENSE),
    ("seriesring", "BivariateSeries.exp", "if power.is_zero():", _DENSE),
    ("seriesring", "BivariateSeries.exp", "break", _DENSE),
    ("seriesring", "BivariateSeries.exp",
     "out = out + power.scale(Fraction(1, math.factorial(k)))", _DENSE),
    ("seriesring", "BivariateSeries.exp", "return out", _DENSE),
    ("seriesring", "_lngamma_coeff", "if k == 1:", _DENSE),
    ("seriesring", "_lngamma_coeff", "return ClosedForm.atom(GAMMA, 1, -1)", _DENSE),
    ("seriesring", "_lngamma_coeff", "if k % 2:", _DENSE),
    ("seriesring", "_lngamma_coeff",
     "return ClosedForm.atom(zeta_odd_atom(k), 1, Fraction(-1, k))", _DENSE),
    ("seriesring", "_lngamma_coeff",
     "return ClosedForm.atom(PI, k, zeta_even_coefficient(k) / k)", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "s = BivariateSeries(na, nb)", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "kmax = na + nb", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "for k in range(1, kmax + 1):", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "lg = _lngamma_coeff(k)", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "if k <= na:", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "s.c[k][0] = s.c[k][0] + lg", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "if k <= nb:", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "s.c[0][k] = s.c[0][k] + lg", _DENSE),
    ("seriesring", "_lngamma_ratio_log",
     "for i in range(max(0, k - nb), min(k, na) + 1):", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "j = k - i", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "s.c[i][j] = s.c[i][j] - math.comb(k, i) * lg", _DENSE),
    ("seriesring", "_lngamma_ratio_log", "return s", _DENSE),
    ("seriesring", "gamma_ratio_series",
     "na, nb = (_check_order(n, 1) for n in orders)", _DENSE),
    ("seriesring", "gamma_ratio_series", "_check_weight(max(na, nb))", _DENSE),
    ("seriesring", "gamma_ratio_series", "logs = _lngamma_ratio_log(na, nb)", _DENSE),
    ("seriesring", "gamma_ratio_series", "for i in range(na + 1):", _DENSE),
    ("seriesring", "gamma_ratio_series", "for j in range(nb + 1):", _DENSE),
    ("seriesring", "gamma_ratio_series", "return logs.exp()", _DENSE),
    ("sigma", "atom_value", "return euler_gamma()",
     "the value of gamma, which only the dense route's forms hold (item 5)"),
    ("special", "polylog", "return -math.log1p(-x)",
     "the Li_1 shortcut: the general route is up to 3.2e-15 off -log1p(-x)"),
    ("special", "nielsen_num", "return value if (n + p) % 2 else -value",
     "a zero integral, an order past the float range: its sign without the factorials"),
    ("special", "_tail_correction", "except OverflowError:", _FAILURE),
    ("special", "_tail_correction", "return 0.0", _FAILURE),
]


def _script(name: str):
    spec = importlib.util.spec_from_file_location(f"_script_{name}", _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _production_routes(tmp_path) -> None:
    assert run_suite("all").failed == 1
    for target, (flags, _) in cli._EVAL_TARGETS.items():
        argv = ["eval", target]
        for flag in flags:
            argv += [f"--{flag}", str(_EVAL_FLAGS[flag])]
        assert cli.main(argv) == 0, argv
    assert cli.main(["ipq", "--family", "plus", "--p", "1", "--q", "2"]) == 0
    assert cli.main(["approx", "s-minus", "--p", "5", "--kt", "3"]) == 0
    for kind in ("inm", "hnm", "sigma", "ipq"):
        assert cli.main(["table", "--kind", kind, "--out", str(tmp_path / "cli")]) == 0
    sys.argv = ["truncation_study.py"]
    _script("truncation_study").main()
    sys.argv = ["make_tables.py", "--out", str(tmp_path / "tables")]
    assert _script("make_tables").main() == 0


def _exit_code(argv: list[str]):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _cli_edges(tmp_path) -> None:
    """The CLI paths that only bad input or a rarely given flag reaches."""
    for argv in _script("output_digest")._USAGE_ARGV:
        assert _exit_code(argv) in (0, 2), argv
    good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    good.write_text("# a comment, then a blank line\n\nsums.closed-vs-oracle.csum.r2 = 1e-9\n")
    bad.write_text("sums.closed-vs-oracle.csum.r2 = one\n")
    verify = ["verify", "--suite", "sums", "--tol-scale", "2", "--json", str(tmp_path / "r.json")]
    assert _exit_code(verify) == 0
    assert _exit_code([*verify, "--config", str(good)]) == 0
    assert _exit_code([*verify, "--config", str(tmp_path / "missing.cfg")]) == 3
    assert _exit_code([*verify, "--config", str(bad)]) == 3
    for argv, code in _EDGE_ARGV:
        assert _exit_code(argv) == code, argv
    for argv in _REFUSED:
        assert _exit_code(argv) == 3, argv


def _executed_lines(run) -> set[tuple[str, int]]:
    """(file, line) of every line of the package that run() executes."""
    files = {str(path) for path in _PACKAGE.glob("*.py")}
    executed = set()

    def line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return executed


def _function_lines(code: types.CodeType, lines: set[int]) -> None:
    """The lines of every function and lambda nested in code.  A class body
    lacks CO_OPTIMIZED: it runs at import, so only its functions count."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                lines.update(line for _, _, line in const.co_lines() if line is not None)
            _function_lines(const, lines)


def _judged_lines(source: str, filename: str) -> dict[int, str]:
    """Each judged line of a module, mapped to its enclosing function."""
    lines: set[int] = set()
    _function_lines(compile(source, filename, "exec"), lines)
    scope: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                scope.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), name))
                name += "."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                lines.difference_update(range(first, child.body[0].lineno))
            elif isinstance(child, ast.Raise):
                lines.difference_update(range(child.lineno, child.end_lineno + 1))
            elif (isinstance(child, ast.If) and not child.orelse and len(child.body) == 1
                  and isinstance(child.body[0], ast.Raise)):
                lines.difference_update(range(child.lineno, child.test.end_lineno + 1))
            visit(child, name)

    visit(ast.parse(source), "")
    return {line: scope.get(line, "<module>") for line in lines}


def _trace_routes(tmp_path: Path) -> None:
    """Run every production route traced, and write the (file, line) pairs
    executed to tmp_path/executed.json."""
    def routes():
        _production_routes(tmp_path)
        _cli_edges(tmp_path)
    executed = _executed_lines(routes)
    (tmp_path / "executed.json").write_text(json.dumps(sorted(executed)))


def test_every_line_is_reached_by_a_production_route(tmp_path):
    assert all(reason for *_, reason in _ALLOWED)
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    executed = {tuple(pair) for pair in json.loads((tmp_path / "executed.json").read_text())}
    unreached, where = Counter(), {}
    for path in sorted(_PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line, function in sorted(_judged_lines(source, str(path)).items()):
            if (str(path), line) not in executed:
                key = (path.stem, function, text[line - 1].strip())
                unreached[key] += 1
                where.setdefault(key, f"{path.name}:{line} in {function}: {key[2]}")
    allowed = Counter((module, function, text) for module, function, text, _ in _ALLOWED)
    newly_unreached = [where[key] for key in unreached - allowed]
    no_longer_unreached = sorted(allowed - unreached)
    assert not newly_unreached and not no_longer_unreached, (newly_unreached,
                                                             no_longer_unreached)


if __name__ == "__main__":
    _trace_routes(Path(sys.argv[1]))
