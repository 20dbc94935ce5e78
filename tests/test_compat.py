"""The package still reads as Python 3.10, the oldest version it declares.

This proves syntax and names only, not behaviour: every module under
``src/`` must parse with the 3.10 grammar and must not use the standard
library names that arrived in 3.11, and, where a CPython 3.10 interpreter
is installed, must compile under it.  Running the suite on 3.10 is what
would show behaviour.

The same walk over the sources holds one format decision in one place,
only `ingest` calls ``json.dumps``; holds one rank rule for every linear
solve, only `solver` calls numpy's QR, least squares or SVD; keeps the
two models apart: both are fitted by `solver`, and neither model module
imports the other; passes a seed one way, as a function's ``seed``
argument, so the only dataclasses with a ``seed`` field are the config that
holds the run's one seed and the report that records it.
"""

import ast
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chaincast
from chaincast import arima, neuralnet, synthetic

PACKAGE = Path(chaincast.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))

# module -> names it gained in Python 3.11; None: the module itself is new
NEW_IN_311 = {"tomllib": None, "datetime": {"UTC"}, "typing": {"Self"},
              "enum": {"StrEnum"}}


def newer_names(tree: ast.AST) -> list[str]:
    """Uses of `NEW_IN_311` in ``tree``, and ``except*`` clauses."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name in NEW_IN_311 and NEW_IN_311[a.name] is None]
        elif isinstance(node, ast.ImportFrom) and node.module in NEW_IN_311:
            names = NEW_IN_311[node.module]
            found += [f"{node.module}.{a.name}" for a in node.names
                      if names is None or a.name in names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.attr in (NEW_IN_311.get(node.value.id) or ())):
            found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, getattr(ast, "TryStar", ())):
            found.append("except*")
    return found


def test_sources_are_found():
    assert PACKAGE / "neuralnet.py" in SOURCES and len(SOURCES) >= 12


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_as_python_310_without_311_names(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path), feature_version=(3, 10))
    assert newer_names(tree) == []


def _python_310() -> str | None:
    """A CPython 3.10 that runs: ``python3.10`` on ``PATH``, else the newest
    3.10 that pyenv installed (a pyenv shim on ``PATH`` may not run)."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which("python3.10"),
                  *sorted(pyenv.glob("versions/3.10.*/bin/python"), reverse=True)]
    for candidate in filter(None, candidates):
        probe = [candidate, "-c", "import sys; sys.exit(sys.version_info[:2] != (3, 10))"]
        if subprocess.run(probe, capture_output=True).returncode == 0:
            return str(candidate)
    return None


def test_modules_compile_under_a_real_python_310():
    """Every module compiles under CPython 3.10 itself, without writing
    bytecode.  Compilation only: the package's imports and behaviour need
    numpy there."""
    python = _python_310()
    if python is None:
        pytest.skip("no CPython 3.10 interpreter installed")
    code = ("import sys\n"
            "for path in sys.argv[1:]:\n"
            "    with open(path, encoding='utf-8') as fh:\n"
            "        compile(fh.read(), path, 'exec', dont_inherit=True)\n")
    done = subprocess.run([python, "-B", "-c", code, *map(str, SOURCES)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("snippet, expected", [
    ("import tomllib", ["tomllib"]),
    ("from tomllib import loads", ["tomllib.loads"]),
    ("import datetime\nx = datetime.UTC", ["datetime.UTC"]),
    ("from datetime import UTC, date", ["datetime.UTC"]),
    ("from typing import Self", ["typing.Self"]),
    ("import enum\nclass C(enum.StrEnum): pass", ["enum.StrEnum"]),
    ("from enum import StrEnum", ["enum.StrEnum"]),
    ("import datetime, enum, typing\nx = datetime.date", []),
])
def test_guard_catches_each_311_name(snippet, expected):
    assert newer_names(ast.parse(snippet)) == expected


def json_dumps_calls(tree: ast.AST) -> int:
    """Calls of ``json.dumps`` in ``tree``, by attribute or imported name."""
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"
                for a in node.names if a.name == "dumps"}
    return sum(isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        or isinstance(node.func, ast.Name) and node.func.id in imported)
        for node in ast.walk(tree))


def test_only_ingest_writes_json():
    """Every JSON artifact goes through `ingest.json_text`, so one module
    decides the format."""
    calls = {path.name: json_dumps_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    assert {name for name, n in calls.items() if n} == {"ingest.py"}


FACTORIZATIONS = {"qr", "lstsq", "svd"}


def factorization_calls(tree: ast.AST) -> int:
    """Calls of ``numpy.linalg``'s qr, lstsq or svd in ``tree``, through a
    ``linalg`` attribute, a module imported as ``linalg`` or a name imported
    from it."""
    imported, modules = set(), {"linalg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            imported.update(a.asname or a.name for a in node.names if a.name in FACTORIZATIONS)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            modules.update(a.asname or a.name for a in node.names if a.name == "linalg")
    return sum(isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr in FACTORIZATIONS
        and (isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"
             or isinstance(node.func.value, ast.Name) and node.func.value.id in modules)
        or isinstance(node.func, ast.Name) and node.func.id in imported)
        for node in ast.walk(tree))


def test_only_solver_factors_designs():
    """Every least-squares solve goes through `solver`, so one rank rule,
    `solver.RANK_TOL` against each column's own norm, decides them all."""
    calls = {path.name: factorization_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    assert {name for name, n in calls.items() if n} == {"solver.py"}


def defined_names(tree: ast.AST) -> set[str]:
    """Functions and classes defined at the top level of ``tree``."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def imported_modules(tree: ast.AST) -> set[str]:
    """Dotted names ``tree`` imports, relative ones without their dots:
    ``from chaincast import arima`` gives ``chaincast`` and
    ``chaincast.arima``, ``from . import arima`` gives ``arima``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            names.update([base] if base else [])
            names.update(f"{base}.{a.name}" if base else a.name for a in node.names)
    return names


def test_models_share_one_solver_and_import_neither_other():
    """`minimize`, `MinimizeResult` and the QR `_householder` live in
    `solver` alone, and `arima` and `neuralnet` do not import each other."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    for name in ("minimize", "MinimizeResult", "_householder"):
        assert [f for f, tree in trees.items() if name in defined_names(tree)] == ["solver.py"]
    assert not {"arima", "chaincast.arima"} & imported_modules(trees["neuralnet.py"])
    assert not {"neuralnet", "chaincast.neuralnet"} & imported_modules(trees["arima.py"])


def seed_fields(tree: ast.AST) -> set[str]:
    """Names of the dataclasses in ``tree`` that declare a ``seed`` field."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            found.update(node.name for field in node.body if isinstance(field, ast.AnnAssign)
                         and isinstance(field.target, ast.Name) and field.target.id == "seed")
    return found


SEEDED = (arima.fit, arima.select_order, neuralnet.train, neuralnet.sweep,
          neuralnet.gradient_check, synthetic.simulate_arma, synthetic.simulate_arima,
          synthetic.random_frame, synthetic.make_fixture)


def test_a_seed_is_an_argument_and_one_config_key():
    """Every seeded function takes its seed as ``seed``; the only
    dataclasses with a ``seed`` field are `PipelineConfig`, whose key it
    is, and `TrainReport`, which records the seed a network trained at."""
    holders = set().union(*(seed_fields(ast.parse(path.read_text(encoding="utf-8")))
                            for path in SOURCES))
    assert holders == {"PipelineConfig", "TrainReport"}
    assert [f.__name__ for f in SEEDED if "seed" not in inspect.signature(f).parameters] == []


@pytest.mark.parametrize("snippet, expected", [
    ("@dataclass(frozen=True)\nclass A:\n    seed: int = 0", {"A"}),
    ("@dataclasses.dataclass\nclass A:\n    epochs: int\n    seed: int", {"A"}),
    ("@dataclass\nclass A:\n    seeds: int\n    def f(self, seed: int): pass", set()),
    ("class A:\n    seed: int = 0", set()),
])
def test_guard_finds_each_dataclass_seed_field(snippet, expected):
    assert seed_fields(ast.parse(snippet)) == expected


@pytest.mark.parametrize("snippet, expected", [
    ("from . import arima", {"arima"}),
    ("from .arima import fit", {"arima", "arima.fit"}),
    ("from chaincast import arima", {"chaincast", "chaincast.arima"}),
    ("import chaincast.arima", {"chaincast.arima"}),
])
def test_guard_reads_each_import_form(snippet, expected):
    assert imported_modules(ast.parse(snippet)) == expected


@pytest.mark.parametrize("snippet, expected", [
    ("import json\njson.dumps({})", 1),
    ("from json import dumps\ndumps({})", 1),
    ("from json import dumps as d\nd({})", 1),
    ("import json\njson.loads('{}')", 0),
])
def test_guard_counts_json_dumps_calls(snippet, expected):
    assert json_dumps_calls(ast.parse(snippet)) == expected


@pytest.mark.parametrize("snippet, expected", [
    ("import numpy as np\nnp.linalg.qr(a, mode='r')", 1),
    ("import numpy\nnumpy.linalg.lstsq(a, b, rcond=None)", 1),
    ("from numpy import linalg\nlinalg.svd(a)", 1),
    ("from numpy import linalg as la\nla.svd(a)", 1),
    ("from numpy.linalg import qr as q\nq(a)", 1),
    ("import numpy as np\nnp.linalg.solve(a, b)\nnp.linalg.norm(a)", 0),
])
def test_guard_counts_factorization_calls(snippet, expected):
    assert factorization_calls(ast.parse(snippet)) == expected


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 cannot parse except* at all")
def test_guard_catches_except_star():
    snippet = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(snippet, feature_version=(3, 10))
    assert newer_names(ast.parse(snippet)) == ["except*"]
