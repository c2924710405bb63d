import ast
import graphlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType

import pytest

import polylog
from polylog import digamma, eulersums, ipq, lognm, quadrature, special, summation, verify
from polylog.approx import MAX_KT
from polylog.cli import _COMMANDS, _EVAL_TARGETS, SNP_TABLE_WEIGHT, main
from polylog.closedform import ClosedForm, zeta_closed
from polylog.ipq import Family, ipq_series
from polylog.lognm import TABLE_WEIGHT
from polylog.seriesring import MAX_WEIGHT
from polylog.sigma import cf_num
from polylog.special import nielsen_num
from polylog.verify import SUITES, CheckEntry, _entries, _jordan_order3_integral, run_suite

from conftest import clear_package_caches, package_cache_misses, run_cli


def _polylog_target(node: ast.AST) -> str | None:
    """The package module an import statement names ("" for the package
    itself), or None when it imports nothing from polylog."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name.split(".")[0] == "polylog"]
        return names[0].removeprefix("polylog").lstrip(".") if names else None
    if not isinstance(node, ast.ImportFrom):
        return None
    module = node.module or ""
    if node.level == 0 and module.split(".")[0] != "polylog":
        return None
    return module.removeprefix("polylog").lstrip(".")


def test_no_import_cycles_between_package_modules():
    # an import inside a function is how a cycle between package modules
    # hides, so there is none; the module-level import graph is acyclic
    package = Path(polylog.__file__).parent
    stems = {path.stem for path in package.glob("*.py")}
    graph: dict[str, set[str]] = {stem: set() for stem in stems}
    lazy = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_functions = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                        for node in ast.walk(fn)}
        for node in ast.walk(tree):
            target = _polylog_target(node)
            if target is None:
                continue
            if id(node) in in_functions:
                lazy.append(f"{path.name}:{node.lineno}")
            modules = {a.name for a in node.names} & stems if target == "" else {target}
            graph[path.stem] |= modules or {"__init__"}
    assert lazy == []
    # verify sits above every builder, so only cli and the package import it
    assert {stem for stem, deps in graph.items() if "verify" in deps} == {"cli", "__init__"}
    graphlib.TopologicalSorter(graph).prepare()   # raises CycleError on a cycle


def test_no_module_or_test_imports_mpmath():
    # the oracle and its tests run on the standard library alone; mpmath
    # references are hard-coded constants, at module level or in a function
    root = Path(polylog.__file__).parent
    found = []
    for path in sorted([*root.rglob("*.py"), *Path(__file__).parent.rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_modules_import_only_names_they_use():
    # a deleted caller must not leave its import behind
    unused = []
    for path in sorted(Path(polylog.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


# Each private name one package module imports from another: its importers,
# and why it crosses the module boundary.
_SHARED_PRIVATE_NAMES = {
    "closedform._check_order": (
        {"approx", "eulersums", "ipq", "lognm", "seriesring", "sigma", "special", "summation"},
        "the one order check, applied by every order-taking entry point"),
    "closedform._check_weight": (
        {"approx", "cli", "eulersums", "ipq", "lognm", "seriesring", "sigma"},
        "the one weight ceiling, applied by every exact builder and cli's ipq table"),
    "quadrature._check_tolerance": (
        {"summation"}, "one tolerance check for both oracle drivers"),
    "ipq._mu_sum": (
        {"verify"}, "ipq_final's memoized mu block, which verify's Nielsen display shares"),
    "approx._derivative_cf": (
        {"verify"}, "the derivative block s_minus_truncated folds, which verify checks "
        "against finite differences"),
}


def test_private_names_cross_modules_only_as_listed():
    # a private name another module reads is an interface: each one is listed
    found: dict[str, set[str]] = defaultdict(set)
    for path in sorted(Path(polylog.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found[f"{node.module}.{alias.name}"].add(path.stem)
    assert found == {name: importers for name, (importers, _) in _SHARED_PRIVATE_NAMES.items()}


# The functions verify imports from the exact side that no other module
# calls: each stays where it is because perfbench reads it by name, until the
# benchmark names its spans by an explicit list (ROADMAP item 6)
_READ_BY_PERFBENCH = {
    "eulersums.jordan_even": "perfbench/layers.py names its span",
    "ipq.ipq_series": "perfbench/layers.py names its span",
    "lognm.lognm_numeric": "perfbench/layers.py names its span",
    "seriesring.beta_derivative_inm": "perfbench/layers.py names its span",
    "lognm.i_pde_residual": "perfbench's exact catalogue calls it by name",
    "lognm.h_pde_residual": "perfbench's exact catalogue calls it by name",
}
_EXACT_MODULES = {"approx", "closedform", "eulersums", "ipq", "lognm", "seriesring", "sigma"}


def test_verify_imports_only_functions_that_production_calls():
    # a route that only a check reads is written in verify, next to its rows:
    # every function verify imports from an exact module is also called, or
    # handed to a call, by a module other than verify and __init__ (its own
    # module counts, outside the function's own body)
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(polylog.__file__).parent.glob("*.py")}

    def imports(importer: str, module: str, name: str) -> bool:
        return importer == module or any(
            isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            and any(alias.name == name for alias in node.names)
            for node in ast.walk(trees[importer]))

    def calls(importer: str, module: str, name: str) -> bool:
        return imports(importer, module, name) and any(
            isinstance(node, ast.Name) and node.id == name
            for top in trees[importer].body
            if not (importer == module and getattr(top, "name", None) == name)
            for node in ast.walk(top))

    only_verify = set()
    for node in ast.walk(trees["verify"]):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in _EXACT_MODULES:
            functions = {top.name for top in trees[node.module].body
                         if isinstance(top, ast.FunctionDef)}
            only_verify.update(
                f"{node.module}.{alias.name}" for alias in node.names
                if alias.name in functions and not any(
                    calls(importer, node.module, alias.name)
                    for importer in trees if importer not in ("verify", "__init__")))
    assert sorted(only_verify - _READ_BY_PERFBENCH.keys()) == []
    assert only_verify == _READ_BY_PERFBENCH.keys()


# The public names of the package outside __all__.  Each stays importable from
# the package only because perfbench reads it there by name, until the
# benchmark names what it reads by an explicit list (ROADMAP item 6): the
# perfbench file and the text that reads it, and why.
_PACKAGE_ONLY = {
    "psi": ("child.py", "polylog.psi(", "job_micro times it"),
    "i_pde_residual": ("workloads.py", '"i_pde_residual"',
                       "the exact catalogue fetches it with getattr"),
    "h_pde_residual": ("workloads.py", '"h_pde_residual"',
                       "the exact catalogue fetches it with getattr"),
}


def test_public_surface_is_all_and_the_names_perfbench_reads():
    # every public attribute of the package but its modules is in __all__ or
    # listed above, so the surface cannot grow unseen; a listed name that
    # perfbench no longer reads is stale
    public = {name for name, obj in vars(polylog).items()
              if not name.startswith("_") and not isinstance(obj, ModuleType)}
    assert sorted(set(polylog.__all__)) == polylog.__all__
    assert set(polylog.__all__) <= public
    assert public - set(polylog.__all__) == _PACKAGE_ONLY.keys()
    bench = Path(__file__).parents[1] / "perfbench"
    for name, (file, text, _) in _PACKAGE_ONLY.items():
        assert text in (bench / file).read_text(), name


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- eval ------------------------------------------------------------------


def test_eval_ipq(capsys):
    code, out = _run(capsys, "eval", "ipq", "--family", "plus", "--p", "2", "--q", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["pretty"] == "1/2*zeta3^2"
    assert obj["closed"]["terms"] == [{"den": "2", "monomial": [["zeta3", 2]], "num": "1"}]
    assert obj["decimal"] == pytest.approx(0.5 * 1.2020569031595943 ** 2, abs=1e-12)


def test_eval_inm(capsys):
    code, out = _run(capsys, "eval", "inm", "--n", "1", "--m", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["pretty"] == "2 - 1/6*pi^2"


def test_eval_sminus(capsys):
    code, out = _run(capsys, "eval", "s-minus", "--r", "3")
    assert code == 0
    obj = json.loads(out)
    assert "li4_half" in obj["pretty"]
    assert obj["decimal"] == pytest.approx(-0.8592471579285906, abs=1e-12)


def test_eval_determinism(capsys):
    _, out1 = _run(capsys, "eval", "hnm", "--n", "2", "--m", "2")
    _, out2 = _run(capsys, "eval", "hnm", "--n", "2", "--m", "2")
    assert out1 == out2


def test_eval_domain_error_exit_code(capsys):
    code, _ = _run(capsys, "eval", "s-plus", "--r", "1")
    assert code == 3


def test_eval_unknown_target_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "nonsense", "--r", "2"])
    assert exc.value.code == 2


def test_eval_capacity_error(capsys):
    code, _ = _run(capsys, "eval", "inm", "--n", "4", "--m", "4")
    assert code == 3


# -- ipq and approx ------------------------------------------------------------


def test_ipq_command(capsys):
    code, out = _run(capsys, "ipq", "--family", "mixed", "--p", "1", "--q", "2")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"closed", "pretty", "decimal", "oracle", "abs_error"}
    assert obj["abs_error"] <= 1e-9


def test_approx_command(capsys):
    code, out = _run(capsys, "approx", "s-minus", "--p", "5", "--kt", "10")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"closed_form", "pretty", "decimal", "reference_decimal",
                        "abs_error"}
    assert obj["abs_error"] == pytest.approx(3.394e-9, rel=1e-2)


# -- table -----------------------------------------------------------------------


def test_table_inm(tmp_path, capsys):
    code, _ = _run(capsys, "table", "--kind", "inm", "--max-weight", "6",
                   "--out", str(tmp_path))
    assert code == 0
    csv_text = (tmp_path / "inm_table.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("entry,1,")
    assert any(line.startswith('"i(2,2)"') for line in lines)
    obj = json.loads((tmp_path / "inm_table.json").read_text())
    assert obj["kind"] == "inm"
    keys = [e["key"] for e in obj["entries"]]
    assert "i(3,3)" in keys


def test_table_env_var_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POLYLOG_OUT", str(tmp_path / "envout"))
    code, _ = _run(capsys, "table", "--kind", "sigma", "--max-weight", "4")
    assert code == 0
    obj = json.loads((tmp_path / "envout" / "sigma_table.json").read_text())
    assert any(e["key"] == "sigma_2_2" for e in obj["entries"])


def test_table_determinism(tmp_path, capsys):
    for sub in ("a", "b"):
        _run(capsys, "table", "--kind", "ipq", "--max-weight", "4",
             "--out", str(tmp_path / sub))
    assert (tmp_path / "a" / "ipq_table.csv").read_bytes() == \
        (tmp_path / "b" / "ipq_table.csv").read_bytes()
    assert (tmp_path / "a" / "ipq_table.json").read_bytes() == \
        (tmp_path / "b" / "ipq_table.json").read_bytes()


@pytest.mark.parametrize("kind", ["inm", "hnm", "sigma", "ipq"])
@pytest.mark.parametrize("max_weight", ["-3", "1"])
def test_table_below_lowest_weight_is_refused(tmp_path, capsys, kind, max_weight):
    # every table starts at weight 2, so a lower cap would write empty tables
    code = main(["table", "--kind", kind, "--max-weight", max_weight,
                 "--out", str(tmp_path / "tables")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "tables").exists()


def test_table_unwritable_output_is_exit_3(tmp_path, capsys):
    # --out names an existing file, so its directory cannot be made
    (tmp_path / "taken").write_text("")
    code = main(["table", "--kind", "sigma", "--out", str(tmp_path / "taken")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


# -- verify -----------------------------------------------------------------------


def test_verify_suite_sums(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out = _run(capsys, "verify", "--suite", "sums", "--json", str(report_path))
    assert code == 0
    assert "summary:" in out
    obj = json.loads(report_path.read_text())
    assert obj["summary"]["fail"] == 0
    assert all(e["status"] == "pass" for e in obj["entries"])


def test_verify_unwritable_json_is_exit_3(tmp_path, capsys):
    code = main(["verify", "--suite", "sums",
                 "--json", str(tmp_path / "no-such-dir" / "r.json")])
    assert code == 3
    out, err = capsys.readouterr()
    assert "summary: 70 pass, 0 fail" in out
    assert err.startswith("error: ")


def test_verify_tol_scale_loosens(capsys):
    rep = run_suite("lognm", tol_scale=10.0)
    assert rep.failed == 0


def test_verify_config_overrides(tmp_path, capsys):
    cfg = tmp_path / "tols.cfg"
    cfg.write_text("# comment line\nsums.sminus3-closed = 1e-3\n")
    code, _ = _run(capsys, "verify", "--suite", "sums", "--config", str(cfg))
    assert code == 0


def test_verify_config_key_given_twice_is_refused(tmp_path, capsys):
    cfg = tmp_path / "tols.cfg"
    cfg.write_text("sums.sminus3-closed = 1e-3\n# again\n sums.sminus3-closed = 1e-12\n")
    assert main(["verify", "--suite", "sums", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "sums.sminus3-closed" in err and "twice" in err


def test_verify_unknown_suite_is_domain_error(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


def test_verify_suite_choices_come_from_the_suite_table():
    _, _, flags, _ = _COMMANDS["verify"]
    _, _, default, choices, _ = flags["--suite"]
    assert default == "all" and choices == ("all", *SUITES)


def test_verify_entry_set_is_pinned():
    # a rewrite of the suites must not silently drop (or rename away) a check
    entries = run_suite("all").entries
    ids = [e.identity_id for e in entries]
    assert len(set(ids)) == len(ids) == 438
    assert Counter(i.split(".")[0] for i in ids) == {
        "ipq": 240, "lognm": 114, "sums": 70, "appendix": 14}
    assert sum(1 for e in entries if e.tolerance == 0) == 219


def test_exact_entries_record_the_difference_only_when_they_fail():
    [e] = _entries([("t", "t", zeta_closed(3), zeta_closed(3) + 1, 0.0)])
    assert e.status == "fail" and e.symbolic == ClosedForm.rational(-1).to_json()
    exact = [e for e in run_suite("all").entries
             if e.tolerance == 0 and e.symbolic is not None and e.status == "pass"]
    assert len(exact) == 217
    assert {e.symbolic for e in exact} == {ClosedForm.zero().to_json()}


def test_each_row_kind_builds_its_entry():
    verdict, routes, numeric = _entries([
        ("v", "verdict", False, True, 0.0, "why"),
        ("r", "three routes", (1.0, 1.5), 0.25, 1e-8),
        ("n", "numeric", 1.2, zeta_closed(3), 1e-9)])
    assert (verdict.symbolic, verdict.abs_error, verdict.status, verdict.note) == (
        None, math.inf, "fail", "why")
    assert (verdict.oracle_value, verdict.closed_value, verdict.tolerance) == (None, None, 0.0)
    assert (routes.abs_error, routes.oracle_value, routes.closed_value) == (1.25, 1.0, 0.25)
    assert routes.symbolic is None
    assert numeric.symbolic == zeta_closed(3).to_json()
    assert numeric.closed_value == cf_num(zeta_closed(3))
    assert numeric.abs_error == abs(1.2 - cf_num(zeta_closed(3))) and numeric.note == ""
    for nan_at in range(3):
        values = [1.0, 1.0, 1.0]
        values[nan_at] = math.nan
        [e] = _entries([("r", "three routes", tuple(values[:2]), values[2], 1e-8)])
        assert e.status == "fail", nan_at


def test_each_entry_is_built_right_after_its_own_row(monkeypatch):
    # perfbench times an entry from the previous entry's construction to its
    # own, so a row's work must run between the two and no earlier
    tags = {"splus": "SPlus", "jordan1": "Jordan1", "jordan2": "Jordan2",
            "milgram": "Milgram", "csum": "CSum", "sminus": "SMinus"}
    events = []
    oracle, init = verify.sum_oracle, vars(CheckEntry)["__init__"]

    def called(tag, r):
        events.append(f"{tag}.r{r}")
        return oracle(tag, r)

    def built(self, identity_id, *args, **kwargs):
        events.append(identity_id)
        init(self, identity_id, *args, **kwargs)
    monkeypatch.setattr(verify, "sum_oracle", called)
    monkeypatch.setattr(CheckEntry, "__init__", built)
    run_suite("sums")
    calls, rows = [], []
    for event in events:
        if not event.startswith("sums."):
            calls.append(event)
        elif event.startswith("sums.closed-vs-oracle."):
            rows.append((event, calls))
            calls = []
    assert len(rows) == 30
    for ident, before in rows:
        name, r = ident.split(".")[2:]
        assert before == [f"{tags[name]}.{r}"], ident


def test_one_place_builds_every_entry():
    tree = ast.parse(Path(verify.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "CheckEntry"]
    entries = next(fn for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "_entries")
    assert len(calls) == 1 and calls[0] in list(ast.walk(entries))


def test_order3_sums_entries_have_oracles_of_their_own():
    # J1(3), J2(3) and S-(3) are checked against integrals, so no other entry
    # pairs their closed form with the same oracle value
    entries = run_suite("sums").entries
    pairs = Counter((e.symbolic, e.oracle_value) for e in entries)
    for ident in ("sums.jordan-odd-order3.J1", "sums.jordan-odd-order3.J2",
                  "sums.sminus3-closed"):
        e = next(e for e in entries if e.identity_id == ident)
        assert e.symbolic is not None and e.tolerance == 1e-10 and e.status == "pass"
        assert pairs[e.symbolic, e.oracle_value] == 1, ident


def test_symmetry_entries_compare_the_series_route_at_swapped_orders():
    # the series route sums different mu-terms at (p,q) and (q,p), so unlike
    # the quadrature of one symmetric integrand its two values can differ
    entries = [e for e in run_suite("ipq").entries
               if e.identity_id.startswith("ipq.symmetry.")]
    assert len(entries) == 12
    for e in entries:
        family, orders = e.identity_id.split(".")[2:]
        p, q = map(int, orders.removeprefix("p").split("q"))
        assert (e.oracle_value, e.closed_value) == (
            ipq_series(Family(family), p, q), ipq_series(Family(family), q, p))
        assert e.symbolic is None and e.tolerance == 1e-9 and e.status == "pass"
    assert any(e.abs_error > 0 for e in entries)


def test_verify_report_is_sorted_and_deterministic():
    r1 = run_suite("sums")
    r2 = run_suite("sums")
    assert r1.to_json() == r2.to_json()
    ids = [e.identity_id for e in r1.entries]
    assert ids == sorted(ids)


@pytest.mark.parametrize("args, config", [
    (["--tol-scale", "inf"], None),
    (["--tol-scale", "nan"], None),
    (["--tol-scale", "0"], None),
    (["--tol-scale=-1"], None),
    ([], "sums.sminus3-closed = abc\n"),
    ([], "sums.sminus3-closed = inf\n"),
    ([], "sums.sminus3-closed = nan\n"),
    ([], "sums.sminus3-closed = 0\n"),
    (["--tol-scale", "1e10"], "appendix.truncation-nine-decimals.p5kt10 = 1e300\n"),
    ([], "missing"),
    ([], "directory"),
    (["--suite", "sums"], "sums.sminus3-closd = 1e-3\n"),
    (["--suite", "sums"], "sums.csum-dual-forms.r2 = 1e-3\n"),
    (["--suite", "sums"], "lognm.inm-numeric.n1m1 = 1e-3\n"),
], ids=["scale-inf", "scale-nan", "scale-zero", "scale-negative", "config-text",
        "config-inf", "config-nan", "config-zero", "scaled-override-overflows",
        "config-missing", "config-directory", "config-unknown-id", "config-exact-entry",
        "config-other-suite"])
def test_verify_rejects_bad_tolerance_inputs_fast(tmp_path, args, config):
    # run cold with its output captured, so the exit code and stderr are the command's own
    if config == "missing":
        args = args + ["--config", str(tmp_path / "no-such.cfg")]
    elif config == "directory":
        args = args + ["--config", str(tmp_path)]
    elif config is not None:
        (tmp_path / "tols.cfg").write_text(config)
        args = args + ["--config", str(tmp_path / "tols.cfg")]
    code, out, err, elapsed = run_cli(["verify", *args], 2.0)
    assert elapsed < 2.0
    assert code == 3, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_run_suite_computes_each_oracle_quantity_once(monkeypatch):
    # nielsen_num is uncached: each S_{n,p}(z) must be asked for once, the
    # sigma~ values (z = -1) through atom_value, which keeps them; the misses
    # of the oracle caches are pinned in _COLD_SUITE_CACHE_MISSES
    clear_package_caches()
    calls = Counter()

    def counted(n, p, z):
        calls[n, p, z] += 1
        return nielsen_num(n, p, z)
    for name, module in list(sys.modules.items()):
        if name.startswith("polylog") and getattr(module, "nielsen_num", None) is nielsen_num:
            monkeypatch.setattr(module, "nielsen_num", counted)
    run_suite("all")
    assert calls and max(calls.values()) == 1, [k for k, c in calls.items() if c > 1]


def test_cold_run_suite_integrates_each_order3_jordan_form_once():
    # the sums and appendix suites both ask for J1(3) and J2(3) by quadrature
    _jordan_order3_integral.cache_clear()
    run_suite("all")
    info = _jordan_order3_integral.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_cold_run_suite_makes_few_cvz_runs(monkeypatch):
    # the depth-2 sums read their outer tails from an asymptotic series run
    # down over the integers, not a 40-term CVZ run per term (2,083 runs)
    clear_package_caches()
    runs = []
    cvz = summation._cvz

    def counted(a):
        runs.append(len(a))
        return cvz(a)
    monkeypatch.setattr(summation, "_cvz", counted)
    run_suite("all")
    assert 0 < len(runs) <= 50, len(runs)


def test_cold_run_suite_evaluates_li_pos_once_per_point(monkeypatch):
    # Li_p(-t) at t > 1/2 reads Li_p(t) from the plus column instead of
    # evaluating it again (1,198 calls at 996 points before)
    clear_package_caches()
    calls = Counter()
    kernel = special.li_pos

    def counted(p, x, omx):
        calls[p, x, omx] += 1
        return kernel(p, x, omx)
    monkeypatch.setattr(special, "li_pos", counted)
    run_suite("all")
    # the atom Li_4(1/2) = polylog(4, 1/2) and the node x = 1/2 of the order-4
    # column are one point, reached once by the scalar and once by the column
    assert calls.pop((4, 0.5, 0.5)) == 2
    assert calls and max(calls.values()) == 1, [k for k, c in calls.items() if c > 1]


def test_cold_run_suite_calls_the_psi_kernel_once_per_point(monkeypatch):
    # the sums' heads read digamma tables, each built once through
    # psi_point (2,604 kernel calls at 2,090 points before)
    clear_package_caches()
    calls = Counter()
    kernel = digamma.psi

    def counted(x):
        calls[x] += 1
        return kernel(x)
    monkeypatch.setattr(digamma, "psi", counted)
    run_suite("all")
    assert calls and max(calls.values()) == 1, [k for k, c in calls.items() if c > 1]
    tables = digamma.psi_table.cache_info()
    assert 0 < tables.misses == tables.currsize < tables.hits


def test_cold_run_suite_oracle_work_counts(monkeypatch):
    # tanh-sinh stops at the first level its projected next change certifies
    # (17,038 evaluations when it ran a level more to confirm), and each
    # monotone sum adds its closed-form tail to the 63 terms of its head
    # (127 when it doubled its cutoff to confirm the total)
    clear_package_caches()
    evaluations, tails = [], []
    integrate01 = quadrature.integrate01

    def counted_integral(values, tol):
        result = integrate01(values, tol)
        evaluations.append(result.evaluations)
        return result

    def counted_tail(head, tail):
        def counted_head(stop):
            terms = list(head(stop))
            tails.append(len(terms))
            return terms
        return summation.sum_tail(counted_head, tail)
    for module in (ipq, lognm, special, verify):
        monkeypatch.setattr(module, "integrate01", counted_integral)
    for module in (eulersums, special):
        monkeypatch.setattr(module, "sum_tail", counted_tail)
    run_suite("all")
    assert (len(evaluations), sum(evaluations)) == (112, 12530)
    assert len(tails) == 40 and set(tails) == {63}


# the misses of every functools.cache of the package in a cold
# run_suite("all"), by module and name; a change that moves one names the
# count, old and new, in CHANGES.md
_COLD_SUITE_CACHE_MISSES = {
    "approx._stirling_row": 10, "approx._derivative_cf": 11,
    "closedform._monomial_product": 54, "closedform._monomial_json": 41,
    "closedform.bernoulli_fraction": 16, "closedform.zeta_closed": 9,
    "closedform.eta_factor_closed": 8,
    "digamma.bernoulli_quotients": 1, "digamma.psi_point": 128, "digamma.psi_table": 2,
    "digamma.euler_gamma": 1,
    "eulersums.s_plus": 7, "eulersums.c_sum": 7, "eulersums.jordan_even": 8,
    "eulersums.milgram": 8, "eulersums.jordan_nielsen": 14, "eulersums.s_minus": 7,
    "eulersums.sum_oracle": 41, "eulersums._digamma_series": 3,
    "ipq.ipq_numeric": 36, "ipq._mu_sum": 66, "ipq._minus_named_part": 7, "ipq.ipq_final": 50,
    "lognm.i_star": 25, "lognm.h_star": 25,
    "quadrature.nodes": 5, "quadrature.log_power": 82,
    "seriesring.gamma_ratio_series": 0, "seriesring._ratio_slice": 10,
    "seriesring._snp_slice": 8,
    "sigma.registry": 1, "sigma.atom_value": 29,
    "special._zeta_int": 18, "special._inverse_powers": 6, "special.li_column": 32,
    "special._tail_series": 7, "special._tail_block": 7,
    "summation._cvz_weights": 8, "summation._em_weights": 1, "summation.eta_num": 9,
    "summation.zeta_num": 8,
    "verify._jordan_order3_integral": 2,
}


def test_cold_run_suite_exact_and_cache_work_counts(monkeypatch):
    # Fraction constructions are left out: Python 3.12 builds arithmetic
    # results without Fraction.__new__, so that count moves with the version
    clear_package_caches()
    combinations = []
    combination = vars(ClosedForm)["combination"].__func__

    def counted(cls, *args):
        combinations.append(1)
        return combination(cls, *args)
    monkeypatch.setattr(ClosedForm, "combination", classmethod(counted))
    run_suite("all")
    assert len(combinations) == 296
    assert package_cache_misses() == _COLD_SUITE_CACHE_MISSES  # 818 in all


# a fixed list of CLI queries, each answered cold, and the work they take
# together: two of them are refused at the weight caps
_COLD_QUERIES = (
    "eval ipq --family mixed --p 3 --q 4", "ipq --family plus --p 2 --q 3",
    "eval s-minus --r 7", "eval jordan1 --r 5", "eval s-np --n 3 --p 4",
    "eval sigma-np --n 2 --p 3", "eval inm --n 2 --m 3", "eval hnm --n 3 --m 2",
    "eval approx --p 5 --kt 10", "approx s-minus --p 4 --kt 8",
    "eval s-np --n 5 --p 4", "eval inm --n 3 --m 4",
)
_COLD_QUERY_CACHE_MISSES = {
    "approx._derivative_cf": 18, "approx._stirling_row": 18,
    "closedform._monomial_product": 96, "closedform.bernoulli_fraction": 55,
    "closedform.eta_factor_closed": 42, "closedform.zeta_closed": 59,
    "digamma.bernoulli_quotients": 1, "digamma.euler_gamma": 1, "digamma.psi_point": 34,
    "eulersums.jordan_nielsen": 1, "eulersums.milgram": 1, "eulersums.s_minus": 2,
    "eulersums.s_plus": 1, "eulersums.sum_oracle": 1,
    "ipq._mu_sum": 5, "ipq.ipq_final": 2, "ipq.ipq_numeric": 1,
    "lognm.h_star": 1, "lognm.i_star": 1,
    "quadrature.log_power": 56, "quadrature.nodes": 18, "seriesring._ratio_slice": 19,
    "seriesring._snp_slice": 6,
    "sigma.atom_value": 36, "sigma.registry": 5,
    "special._inverse_powers": 5, "special._zeta_int": 16, "special.li_column": 8,
    "summation._cvz_weights": 20, "summation.eta_num": 17, "summation.zeta_num": 17,
}


def test_cold_query_work_counts(monkeypatch, capsys):
    # each query runs after clear_package_caches(), as a fresh process would;
    # the counts are summed over the list, the misses cache by cache
    combinations, evaluations = [], []
    combination = vars(ClosedForm)["combination"].__func__
    integrate01 = quadrature.integrate01

    def counted(cls, *args):
        combinations.append(1)
        return combination(cls, *args)

    def counted_integral(values, tol):
        result = integrate01(values, tol)
        evaluations.append(result.evaluations)
        return result
    monkeypatch.setattr(ClosedForm, "combination", classmethod(counted))
    for module in (ipq, lognm, special, verify):
        monkeypatch.setattr(module, "integrate01", counted_integral)
    codes, misses = [], Counter()
    for query in _COLD_QUERIES:
        clear_package_caches()
        codes.append(main(query.split()))
        misses.update(package_cache_misses())
    capsys.readouterr()
    assert codes == [0] * 10 + [3, 3]
    assert len(combinations) == 105
    assert (len(evaluations), sum(evaluations)) == (4, 584)
    assert {name: n for name, n in misses.items() if n} == _COLD_QUERY_CACHE_MISSES  # 563 in all


# every pair of numeric entries whose symbolic field, oracle value and closed
# value all agree, with the reason: different computations that round alike
_DUALITY = "S_{n,p}(1) = S_{p,n}(1): different integrands, equal floats"
_BY_PARTS = "the by-parts value rounds to the twin's quadrature bits"
_NUMERIC_COINCIDENCES = {
    ("lognm.nielsen-vs-snp.n1p2", "lognm.nielsen-vs-snp.n2p1"): _DUALITY,
    ("lognm.nielsen-vs-snp.n1p3", "lognm.nielsen-vs-snp.n3p1"): _DUALITY,
    ("lognm.nielsen-vs-snp.n2p3", "lognm.nielsen-vs-snp.n3p2"): _DUALITY,
    ("lognm.nielsen-vs-snp.n2p4", "lognm.nielsen-vs-snp.n4p2"): _DUALITY,
    ("ipq.grid.plus.p1q3", "ipq.grid.plus.p3q1"): _BY_PARTS,
    ("ipq.grid.plus.p1q4", "ipq.grid.plus.p4q1"): _BY_PARTS,
    ("ipq.grid.minus.p1q3", "ipq.grid.minus.p3q1"): _BY_PARTS,
    ("ipq.grid.minus.p3q4", "ipq.grid.minus.p4q3"): _BY_PARTS,
    ("ipq.three-routes.plus.p1q3", "ipq.three-routes.plus.p3q1"): _BY_PARTS,
    ("ipq.three-routes.minus.p1q3", "ipq.three-routes.minus.p3q1"): _BY_PARTS,
    ("lognm.sigma-registry.n5p1", "lognm.sigma-weight6-closed.n5p1"):
        "quadrature and the alternating series both round -eta(6) correctly",
    ("ipq.grid.mixed.p1q1", "sums.closed-vs-oracle.sminus.r2"):
        "quadrature and the alternating S- series land on the same float, 2 ulp from S-(2)",
    ("ipq.grid.minus.p1q1", "sums.closed-vs-oracle.csum.r2"):
        "quadrature and the C series land on the same float, 1 ulp below zeta(3)/4",
    ("ipq.low-order.plus-subtracted-mpl.p2", "ipq.low-order.plus-subtracted.p2"):
        "the depth-2 sum and the closed form both round -2 zeta(3) correctly",
}


def test_numeric_entries_are_checks_of_their_own():
    groups = defaultdict(list)
    for e in run_suite("all").entries:
        if e.tolerance:
            groups[e.symbolic, e.oracle_value, e.closed_value].append(e.identity_id)
    shared = sorted(tuple(ids) for ids in groups.values() if len(ids) > 1)
    assert shared == sorted(_NUMERIC_COINCIDENCES)


@pytest.mark.parametrize("ident", [
    "ipq.low-order.plus-subtracted.p3", "ipq.low-order.plus-subtracted-mpl.p3",
    "ipq.low-order.mixed-subtracted.p3", "ipq.low-order.mixed-subtracted-mpl.p3",
])
def test_override_changes_exactly_the_entry_it_names(ident):
    default = {e.identity_id: e.tolerance for e in run_suite("ipq").entries}
    overridden = {e.identity_id: e.tolerance
                  for e in run_suite("ipq", overrides={ident: 1e-3}).entries}
    assert overridden[ident] == 1e-3
    assert [i for i in default if default[i] != overridden[i]] == [ident]


def test_entry_status_matches_tolerance_invariant():
    rep = run_suite("lognm")
    for e in rep.entries:
        assert (e.status == "pass") == (e.abs_error <= e.tolerance), e.identity_id


@pytest.mark.parametrize("argv", [
    ["eval", "s-plus", "--r", "4"],
    ["eval", "jordan1", "--r", "2"],
    ["eval", "jordan2", "--r", "3"],
    ["eval", "milgram", "--r", "3"],
    ["eval", "c", "--r", "2"],
    ["eval", "s-np", "--n", "2", "--p", "2"],
    ["eval", "sigma-np", "--n", "2", "--p", "2"],
    ["eval", "hnm", "--n", "1", "--m", "3"],
    ["eval", "approx", "--p", "5", "--kt", "4"],
    ["eval", "ipq", "--family", "minus", "--p", "2", "--q", "2"],
])
def test_eval_targets_smoke(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    assert {"closed", "pretty", "decimal"} <= set(obj)


def test_eval_missing_parameter_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "ipq", "--p", "2", "--q", "3"])  # --family missing
    assert exc.value.code == 2
    assert "--family" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "s-minus", "--r", "30"],
    ["eval", "jordan1", "--r", "20"],
    ["eval", "ipq", "--family", "plus", "--p", "9", "--q", "9"],
    ["eval", "ipq", "--family", "minus", "--p", "9", "--q", "9"],
    ["eval", "ipq", "--family", "mixed", "--p", "9", "--q", "9"],
    ["eval", "s-minus", "--r", "18"],
    ["eval", "milgram", "--r", "30"],
    ["eval", "c", "--r", "30"],
    ["eval", "s-plus", "--r", "30"],
])
def test_beyond_weight_ceiling_fails_fast(argv):
    # run cold, so no cache filled by other tests hides a slow path
    code, out, err, elapsed = run_cli(argv, 2.0)
    assert elapsed < 2.0
    assert code == 3
    assert f"ceiling MAX_WEIGHT = {MAX_WEIGHT}" in err


def test_cold_start_imports_no_heavy_stdlib_modules():
    # what every cold query pays before its own work, in a fresh interpreter;
    # `import polylog` alone loads every package module but cli and
    # __main__, whatever __all__ names (perfbench's tracer wraps what it loads)
    env = dict(os.environ, PYTHONPATH=str(Path(polylog.__file__).parents[1]))
    code = ("import sys; before = set(sys.modules); import polylog; "
            "package = sorted(m for m in sys.modules if m.startswith('polylog.')); "
            "from polylog import cli; "
            "cli.main(['eval', 's-plus', '--r', '3']); "
            "print(*package); print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30, check=True)
    *_, package, loaded = proc.stdout.splitlines()
    assert set(package.split()) == {f"polylog.{path.stem}" for path in
                                    Path(polylog.__file__).parent.glob("*.py")} - {
        "polylog.__init__", "polylog.cli", "polylog.__main__"}
    loaded = set(loaded.split())
    assert "polylog.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "csv",
             "argparse", "gettext", "locale", "threading"}
    assert not loaded & heavy


def test_python_m_polylog_entry_point():
    # the one fresh-interpreter run of `python -m polylog`: an answer exits 0
    # with its JSON, a refused order exits 3 with an "error:" line, each as
    # cli.main answers in-process
    env = dict(os.environ, PYTHONPATH=str(Path(polylog.__file__).parents[1]))
    answers = {}
    for r in ("3", "1"):
        argv = ["eval", "s-plus", "--r", r]
        proc = subprocess.run([sys.executable, "-m", "polylog", *argv], env=env,
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv, 2.0)[:3]
        answers[r] = proc
    assert answers["3"].returncode == 0
    assert json.loads(answers["3"].stdout)["params"] == {"r": 3}
    assert answers["1"].returncode == 3
    assert answers["1"].stderr.startswith("error:")


# Each eval target just past its own cap: MAX_WEIGHT, or the narrower table
# caps of s_{n,p} and of the log integrals.  A target missing here fails.
_PAST_CAP = {
    "ipq": ["--family", "mixed", "--p", str(MAX_WEIGHT // 2),
            "--q", str(MAX_WEIGHT - MAX_WEIGHT // 2)],
    **{t: ["--r", str(MAX_WEIGHT)]
       for t in ("s-plus", "s-minus", "jordan1", "jordan2", "milgram", "c")},
    "s-np": ["--n", "1", "--p", str(SNP_TABLE_WEIGHT)],
    "sigma-np": ["--n", str(MAX_WEIGHT - 1), "--p", "2"],
    "inm": ["--n", "1", "--m", str(TABLE_WEIGHT)],
    "hnm": ["--n", "1", "--m", str(TABLE_WEIGHT)],
    "approx": ["--p", str(MAX_WEIGHT), "--kt", "1"],
}


@pytest.mark.parametrize("target", _EVAL_TARGETS)
def test_every_eval_target_fails_fast_past_its_cap(target):
    code, out, err, elapsed = run_cli(["eval", target, *_PAST_CAP[target]], 2.0)
    assert elapsed < 2.0
    assert code == 3, err
    assert "above" in err and "cap" in err


def test_truncation_depth_past_its_cap_fails_fast():
    code, out, err, elapsed = run_cli(["eval", "approx", "--p", "5", "--kt", str(MAX_KT + 1)], 2.0)
    assert elapsed < 2.0
    assert code == 3, err
    assert f"above cap MAX_KT = {MAX_KT}" in err


def test_weight_above_twelve_within_ceiling_returns_value(capsys):
    code, out = _run(capsys, "eval", "s-minus", "--r", "12")   # weight 13
    assert code == 0
    # S-(12) = sum_k (-1)^k H_k / k^12; 40 terms are far below double precision
    direct = sum((-1) ** k * sum(1 / j for j in range(1, k + 1)) / k ** 12 for k in range(1, 41))
    assert json.loads(out)["decimal"] == pytest.approx(direct, abs=1e-15)


def test_ipq_table_beyond_ceiling_refused_before_any_build(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["table", "--kind", "ipq", "--max-weight", str(MAX_WEIGHT),
                 "--out", str(tmp_path)])
    assert time.perf_counter() - t0 < 0.5
    assert code == 3
    # the one weight check's message: I(p,q) to p+q = MAX_WEIGHT has weight MAX_WEIGHT + 1
    assert f"weight {MAX_WEIGHT + 1} above cap {MAX_WEIGHT}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_ipq_table_above_weight_twelve_is_written(tmp_path, capsys):
    code, _ = _run(capsys, "table", "--kind", "ipq", "--max-weight", "12",
                   "--out", str(tmp_path))
    assert code == 0
    obj = json.loads((tmp_path / "ipq_table.json").read_text())
    assert len(obj["entries"]) == 3 * 66   # p, q >= 1 with p + q <= 12
