"""``daggerkit`` loads its submodules on first use (PEP 562).

In-process: the package's exported names are the objects of their home
modules, read afresh each time.  In child interpreters: each CLI subcommand
family imports only the modules it runs, so a stray top-level import shows
up here as a changed module set.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import daggerkit
from daggerkit import linalg


def test_every_export_is_its_home_modules_object():
    for name in daggerkit.__all__:
        home = importlib.import_module(f"daggerkit.{daggerkit._HOME[name]}")
        assert getattr(daggerkit, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    ns = {}
    exec("from daggerkit import *", ns)
    assert set(daggerkit.__all__) <= set(ns)
    for name in daggerkit.__all__:
        assert ns[name] is getattr(daggerkit, name), name


def test_dir_lists_every_export():
    assert set(daggerkit.__all__) <= set(dir(daggerkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        daggerkit.no_such_name  # noqa: B018
    assert not hasattr(daggerkit, "cmd_snf")


def test_submodule_import_from_the_package():
    from daggerkit import serialize
    assert serialize is sys.modules["daggerkit.serialize"]


def test_reads_follow_the_home_module(monkeypatch):
    original = linalg.snf
    monkeypatch.setattr(linalg, "snf", lambda A: None)
    assert daggerkit.snf is linalg.snf is not original
    monkeypatch.undo()
    assert daggerkit.snf is original
    assert "snf" not in vars(daggerkit)


CHILD = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "daggerkit")

import daggerkit
report = [["import", None, loaded()]]
daggerkit.RingDescriptor
report.append(["RingDescriptor", None, loaded()])
from daggerkit.cli import dispatch
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(argv)
    report.append([argv[0], code, loaded()])
print(json.dumps(report))
"""

P5 = ["--p", "5", "--precision", "12"]
Z2 = '{"kind":"Z","rank":2}'
LAT = '{"ambient_rank":2,"generators":[["1","0"],["pi","pi^2"]]}'
SERIES = '{"monoid":' + Z2 + ',"D":3,"terms":[{"s":[1,0],"x":"2"}]}'
BASE = {"daggerkit", "daggerkit.cli", "daggerkit.gallery", "daggerkit.ring",
        "daggerkit.serialize"}

FAMILIES = {
    "scalar": (BASE, [
        ["scalar", *P5, "--op", "mul", "--x", '"3"', "--y", '"pi"'],
        ["scalar", *P5, "--op", "div", "--x", '"3"', "--y", '"2"'],
        ["scalar", *P5, "--op", "val", "--x", '"pi^2"'],
    ]),
    "linalg": (BASE | {"daggerkit.linalg"}, [
        ["snf", *P5, "--matrix", '[["1","pi"],["pi^2","3"]]'],
        ["torsion", *P5, "--relations", '[["pi"]]'],
        ["lattice", "--op", "sum", *P5, "--lattice", LAT,
         "--other", '{"ambient_rank":2,"generators":[["0"],["pi"]]}'],
        ["lattice", "--op", "membership", *P5, "--lattice", LAT,
         "--vector", '["1","pi"]'],
        ["lattice", "--op", "gauge", *P5, "--lattice", LAT],
    ]),
    "monoid": (BASE | {"daggerkit.monoid"}, [
        ["monoid", "--monoid", Z2, "--op", "compose", "--s", "[1,0]",
         "--t", "[0,1]"],
        ["cocycle-check", *P5, "--monoid", Z2, "--samples", "5",
         "--cocycle", '{"kind":"bicharacter","lambda":"2",'
                      '"Q":[[0,1],[-1,2]]}'],
    ]),
    "series": (BASE | {"daggerkit.chains", "daggerkit.monoid",
                       "daggerkit.series"}, [
        ["series-mul", *P5, "--a", SERIES, "--b", SERIES],
        ["certify", *P5, "--series", SERIES, "--c", "1/2",
         "--filtration", "1,2"],
        ["nctorus", *P5, "--D", "3"],
    ]),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_subcommands_import_only_what_they_run(family):
    expected, argvs = FAMILIES[family]
    src = os.path.dirname(os.path.dirname(os.path.abspath(daggerkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    (_, _, at_import), (_, _, at_read), *runs = json.loads(proc.stdout)
    assert at_import == ["daggerkit"]
    assert at_read == ["daggerkit", "daggerkit.ring"]
    for cmd, code, modules in runs:
        assert code in (0, 1), (cmd, code)
        assert set(modules) == expected, (cmd, modules)
