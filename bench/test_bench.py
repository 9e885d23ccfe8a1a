"""Smoke tests of the benchmark at tiny sizes.

    python -m pytest bench/test_bench.py -q

They are outside the package's test suite on purpose: each spawns child
interpreters and takes a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as fh:
    SPEC = json.load(fh)

# layer metrics that must be nonzero on the workload doing most of that work
BUSY = {
    "padic-spectral": ("ring.scalar_ops", "linalg.matmul.calls",
                       "linalg.hermite.calls", "linalg.snf.calls",
                       "spectral.lattice_product.calls",
                       "spectral.lattice_product.pairs",
                       "spectral.charpoly.self_s",
                       "spectral.rho1_estimate.self_s",
                       "spectral.lgb_closure.self_s",
                       "spectral.semi_dagger_probe.self_s"),
    "eqchar-lattice": ("ring.scalar_ops", "ring.self_s", "linalg.snf.calls",
                       "linalg.hermite.calls", "linalg.lattice_ops.self_s"),
    "series-crossed": ("series.mul.calls", "series.mul.term_pairs",
                       "series.add_scale.self_s", "series.certify.self_s",
                       "monoid.compose.calls", "monoid.cocycle.calls",
                       "crossed.act.calls", "crossed.crossed_mul.self_s",
                       "crossed.ubprobe.self_s"),
    "cli": ("cli.dispatch.self_s", "serialize.parse.self_s",
            "serialize.dump.self_s", "gallery.run.self_s",
            "linalg.det_inverse.self_s"),
}
EVERYWHERE = ("trace.overhead_ratio", "ring.mul_us", "ring.add_us",
              "cli.process_start_ms", "cli.import_ms")


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_end_to_end_metrics(name):
    lines, result = run.run_workload(name, seed=3, seconds=0, trace=False,
                                     tiny=True)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1
    assert any(line.startswith("latency samples") for line in lines)
    assert any(line.startswith("failed_ratio") for line in lines)
    if name != "cli":
        assert result["failed"] == 0


def _first_cycle(name, seed):
    wl = run.importlib.import_module(run.WORKLOADS[name])
    warm = run.inputs(wl, seed, -1, tiny=True)
    first = run.inputs(wl, seed, 0, tiny=True)
    _, queries = run.setup(wl, warm, first)
    tally = run.Tally()
    tally.record(wl, queries, run.timed_pass(wl, queries, wl.run), True)
    return tally.first


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_same_outputs(name):
    assert _first_cycle(name, 5) == _first_cycle(name, 5)
    assert _first_cycle(name, 5) != _first_cycle(name, 6)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_layers(name):
    lines, result = run.run_workload(name, seed=3, seconds=0, trace=True,
                                     tiny=True)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert result["correct"], lines
    for key in BUSY[name] + EVERYWHERE:
        assert metrics[key]["value"] > 0, key


def test_tracer_restores_the_package():
    import daggerkit
    from daggerkit import series, spectral
    from tracer import Tracer
    before = (series.mul, spectral.series_mul, daggerkit.mul,
              daggerkit.ScalarElem.__mul__, daggerkit.Lattice.from_columns)
    tracer = Tracer()
    tracer.install()
    try:
        assert spectral.series_mul is series.mul is daggerkit.mul
        assert series.mul is not before[0]
    finally:
        tracer.uninstall()
    assert (series.mul, spectral.series_mul, daggerkit.mul,
            daggerkit.ScalarElem.__mul__,
            daggerkit.Lattice.from_columns) == before


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    out = subprocess.run([sys.executable, *SPEC["command"][1:],
                          "--workload", "cli", "--seed", "1", "--seconds",
                          "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
