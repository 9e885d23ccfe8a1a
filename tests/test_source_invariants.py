"""Invariants of the package source, read off its syntax trees.  Hard
invariants are explicit checks: ``python -O`` strips ``assert``
statements, so none may appear in the package source.  Residue arithmetic
runs in ``ring.py`` only, so the scalar rules stay the one place that
decides which digits are known."""

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


# the residue operations whose use decides which digits of a result are
# known; only the scalar rules of ring.py apply them
RESIDUE_ARITHMETIC = {"add", "neg", "mul", "fma", "val", "inv", "pow",
                      "shift_up", "shift_down", "mod_pi_power"}


def test_only_ring_reads_residue_arithmetic_off_ops():
    """No module but ring.py reads ``ops.mul``, ``ring.ops.val`` and the
    like: every other layer computes through the scalar rules."""
    found = [f"{path.name}:{node.lineno} {node.attr}"
             for path in SOURCES if path.name != "ring.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and node.attr in RESIDUE_ARITHMETIC
             and (isinstance(node.value, ast.Name) and node.value.id == "ops"
                  or isinstance(node.value, ast.Attribute)
                  and node.value.attr == "ops")]
    assert not found, f"residue arithmetic read outside ring.py: {found}"
