"""Every public function is reached by a production route: the verification
suites, the CLI or the scripts.  A closed-form builder that none of them
calls is certified by no verify entry, and a numeric kernel that none of
them calls is code that only the tests keep alive."""

import importlib.util
import inspect
import sys
from pathlib import Path

import polylog
from polylog import cli
from polylog.verify import run_suite

from conftest import clear_package_caches

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# public functions that no production route reaches, each with its reason
_UNREACHED = {
    "gamma_ratio_series": "perfbench job_micro times it; moves to tests/ after ROADMAP item 6",
}

# one in-domain value for each flag an eval target may require
_EVAL_FLAGS = {"family": "mixed", "p": 3, "q": 3, "r": 3, "n": 2, "m": 2, "kt": 3}


def _script_main(name: str):
    spec = importlib.util.spec_from_file_location(f"_script_{name}", _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _production_routes(tmp_path, monkeypatch) -> None:
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
    monkeypatch.setattr(sys, "argv", ["truncation_study.py"])
    _script_main("truncation_study")()
    monkeypatch.setattr(sys, "argv", ["make_tables.py", "--out", str(tmp_path / "tables")])
    assert _script_main("make_tables")() == 0


def test_every_public_function_is_reached_by_a_production_route(tmp_path, monkeypatch,
                                                                 capsys):
    public = {}
    for name in polylog.__all__:
        function = inspect.unwrap(getattr(polylog, name))  # through functools.cache
        if inspect.isfunction(function):
            public[function.__code__] = name
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    clear_package_caches()  # a cached value would skip its function's body
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _production_routes(tmp_path, monkeypatch)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    unreached = {name for code, name in public.items() if code not in called}
    assert unreached == set(_UNREACHED)
