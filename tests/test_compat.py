"""The package still reads as Python 3.10, the oldest version it declares.

This proves syntax and names only, not behaviour: every module under
``src/`` must parse with the 3.10 grammar and must not use the standard
library names that arrived in 3.11.  Running the suite on 3.10 is what
would show behaviour.

The same walk over the sources holds one format decision in one place:
only `ingest` calls ``json.dumps``.
"""

import ast
import sys
from pathlib import Path

import pytest

import chaincast

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


@pytest.mark.parametrize("snippet, expected", [
    ("import json\njson.dumps({})", 1),
    ("from json import dumps\ndumps({})", 1),
    ("from json import dumps as d\nd({})", 1),
    ("import json\njson.loads('{}')", 0),
])
def test_guard_counts_json_dumps_calls(snippet, expected):
    assert json_dumps_calls(ast.parse(snippet)) == expected


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 cannot parse except* at all")
def test_guard_catches_except_star():
    snippet = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(snippet, feature_version=(3, 10))
    assert newer_names(ast.parse(snippet)) == ["except*"]
