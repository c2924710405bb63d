"""The order rule, the weight ceiling and memoization are written once, in
closedform's builder declaration: every order-taking public function is
declared, and no body checks its own orders or weight again, beyond the
hand-written guards listed here with their reasons."""

import ast
import importlib
from pathlib import Path

import polylog
from polylog.eulersums import s_plus
from polylog.ipq import Family, ipq_final, ipq_numeric
from polylog.quadrature import nodes

from conftest import clear_package_caches

_PACKAGE = Path(polylog.__file__).parent
_DECLARATIONS = {"builder", "bind_orders"}
_CHECKS = {"_check_order", "_check_weight"}

_TABLE_CAP = "lognm.TABLE_WEIGHT, the i/h tables' narrower cap"
# the calls of _check_order and _check_weight outside closedform's
# declaration: (module, enclosing function, callee) -> why it stays by hand
_HAND_WRITTEN = {
    ("approx", "_check_kt", "_check_order"):
        "MAX_KT: a truncation depth is bound with its cap, after s_minus_truncated's weight",
    ("closedform", "monomial", "_check_order"): "a value check on a monomial's exponents",
    ("closedform", "ClosedForm.combination", "_check_order"): "a value check on combination's den",
    ("seriesring", "gamma_ratio_series", "_check_order"): "its orders come as one tuple argument",
    ("seriesring", "BivariateSeries.__init__", "_check_weight"):
        "each truncation order is held to MAX_WEIGHT alone, as gamma_ratio_series' pair",
    ("seriesring", "kolbig_snp", "_check_weight"):
        "max_weight, the narrower table cap that perfbench and cli pass",
    ("lognm", "i_closed", "_check_weight"): _TABLE_CAP,
    ("lognm", "h_closed", "_check_weight"): _TABLE_CAP,
    ("lognm", "i_pde_residual", "_check_weight"): _TABLE_CAP,
    ("lognm", "h_pde_residual", "_check_weight"): _TABLE_CAP,
    ("cli", "_table_entries", "_check_weight"):
        "a relation between arguments: the ipq table's top weight is its max weight + 1",
}


def _scopes(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function and class, outermost first."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _scopes(node, prefix + node.name + ".")


def _modules():
    for path in sorted(_PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _declaration(node: ast.FunctionDef) -> str | None:
    """builder or bind_orders, if a decorator of node calls one."""
    for d in node.decorator_list:
        if isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in _DECLARATIONS:
            return d.func.id
    return None


def _declared() -> list[tuple[str, str, str]]:
    """(module, qualified name, declaration) of every declared function."""
    return [(module, name, kind) for module, tree in _modules()
            for name, node in _scopes(tree)
            if isinstance(node, ast.FunctionDef) and (kind := _declaration(node))]


def test_orders_and_weights_are_checked_by_hand_only_as_listed():
    found = set()
    for module, tree in _modules():
        for name, node in _scopes(tree):
            if not isinstance(node, ast.FunctionDef) or name.startswith("_declaration"):
                continue
            inner = {id(n) for child in ast.iter_child_nodes(node) if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) for n in ast.walk(child)}
            for call in ast.walk(node):
                if (id(call) not in inner and isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name) and call.func.id in _CHECKS):
                    found.add((module, name, call.func.id))
    assert found == set(_HAND_WRITTEN)


def test_every_order_taking_public_function_is_declared():
    # an int (or grid level) parameter is an order; BivariateSeries binds its
    # truncation orders in __init__, before the box is allocated
    undeclared = []
    for module, tree in _modules():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and any(isinstance(a.annotation, ast.Name)
                            and a.annotation.id in ("int", "Grid") for a in node.args.args)
                    and not _declaration(node)):
                undeclared.append(f"{module}.{node.name}")
    assert undeclared == []
    assert ("seriesring", "BivariateSeries.__init__", "bind_orders") in _declared()


def test_declared_names_keep_what_the_tracer_and_the_tests_read():
    # perfbench's tracer names a span by __module__ and __name__;
    # conftest.package_cache_misses keys by __qualname__ and reads cache_info
    declared = _declared()
    assert declared
    for module, name, kind in declared:
        obj = importlib.import_module(f"polylog.{module}")
        for part in name.split("."):
            obj = getattr(obj, part)
        assert (obj.__module__, obj.__qualname__) == (f"polylog.{module}", name)
        assert obj.__name__ == name.rpartition(".")[2] and callable(obj.__wrapped__)
        assert (kind == "builder") == hasattr(obj, "cache_info") == hasattr(obj, "cache_clear")


def test_the_wrapped_builder_runs_uncached():
    # the node-column thread test calls ipq_numeric.__wrapped__ for a fresh
    # quadrature on every call
    ipq_numeric.cache_clear()
    value = ipq_numeric.__wrapped__(Family.MIXED, 2, 3)
    assert ipq_numeric.cache_info().currsize == 0 and value == ipq_numeric(Family.MIXED, 2, 3)


def test_an_integral_float_order_shares_the_int_entry():
    # 3.0 is bound to 3 on its miss and returns 3's entry: one build, one
    # object, whichever comes first; before, a lone float order keyed apart
    # and built again
    for call, floated, integral in ((s_plus, (3.0,), (3,)), (nodes, (2.0,), (2,)),
                                    (ipq_final, (Family.PLUS, 2.0, 3), (Family.PLUS, 2, 3))):
        clear_package_caches()
        first = call(*integral)
        assert call(*floated) is first
        clear_package_caches()
        first = call(*floated)
        hits = call.cache_info().hits
        assert call(*integral) is first and call.cache_info().hits == hits + 1
