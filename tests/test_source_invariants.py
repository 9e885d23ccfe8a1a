"""Hard invariants in the package are explicit checks: ``python -O`` strips
``assert`` statements, so none may appear in the package source."""

import ast
import pathlib

import daggerkit

SOURCES = sorted(pathlib.Path(daggerkit.__file__).parent.glob("*.py"))


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"ring.py", "linalg.py",
                                         "spectral.py", "cli.py"}


def test_no_assert_statements_in_package():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
