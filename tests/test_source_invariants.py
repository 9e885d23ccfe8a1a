"""Invariants of the package source, read off its syntax trees.  Hard
invariants are explicit checks: ``python -O`` strips ``assert``
statements, so none may appear in the package source.  Residue arithmetic
runs in ``ring.py`` only, so the scalar rules stay the one place that
decides which digits are known.  The elimination steps stay inside
``linalg.py``: the algebra contexts reach products and dots through the
ring's rules."""

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


# the pivot steps of elimination, private to linalg.py
ELIMINATION_STEPS = {"_pivot", "_scale", "_eliminate", "_settle"}


def linalg_names(path):
    """(line, name) of each name ``path`` takes from linalg: imported from
    it, or read as ``linalg.<name>``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) \
                and node.module in ("linalg", "daggerkit.linalg"):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "linalg":
            yield node.lineno, node.attr


def test_only_linalg_runs_elimination_steps():
    """No module but linalg.py takes a pivot step from linalg, and the
    algebra contexts take from it only public names plus the triple
    helpers ``_raw`` and ``_sparse``."""
    steps = [f"{path.name}:{line} {name}"
             for path in SOURCES if path.name != "linalg.py"
             for line, name in linalg_names(path)
             if name in ELIMINATION_STEPS]
    assert not steps, f"elimination steps used outside linalg.py: {steps}"
    contexts = [path for path in SOURCES
                if path.name in ("spectral.py", "crossed.py")]
    assert len(contexts) == 2
    private = [f"{path.name}:{line} {name}"
               for path in contexts for line, name in linalg_names(path)
               if name.startswith("_") and name not in ("_raw", "_sparse")]
    assert not private, f"private linalg names in the contexts: {private}"
