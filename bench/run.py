"""The daggerkit benchmark: one closed-loop client, four workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: padic-spectral, eqchar-lattice, series-crossed, cli
(see the ``wl_*.py`` docstrings for each mix and why it was chosen).

Inputs come from the seed only, one cycle of the workload's mix at a time,
and each cycle is parsed before it runs, outside the timed region.  The
shapes of the queries (sizes, valuations, zero patterns, supports: what
sets their cost) are the same in every cycle; the unit residues and the
order come from (seed, cycle), so every cycle of every run does the same
work on its own numbers (see ``common.Draw``).  One client in one process
sends each query after the last one returned.  The run ends at the first cycle
boundary after ``--seconds`` of query time, so every run holds whole
cycles of the stated mix.  Every answer is checked after its cycle, outside
the timed region; the first cycle gets the costly checks too, and for the
default seed its canonical content must match ``expected.json``.

``--trace 0`` prints the end-to-end metrics:

  queries_per_s   queries over their summed wall time
  latency_p50_ms  median wall time of one query
  latency_p90_ms  90th percentile, with the number of samples beyond it
                  (both percentiles are Harrell-Davis estimates)
  setup_s         fresh interpreter to first timed query: imports, rings
                  (with the GF(q) modulus search), contexts, parsing the
                  first cycle and one untimed warm-up query; the median of
                  seven child processes

The four timings are given at a reference host speed.  A shared host
changes speed by up to a factor of two over seconds to minutes, for the
same work and with no stolen time, so raw wall times of identical runs
spread far wider than any gain worth reporting.  Each query is therefore
preceded by a calibration slice (``common.python_slice``: fixed pure-Python
big-integer work that does not touch the package; ``cli``, whose queries
are mostly process start-up, uses ``common.spawn_slice``, which starts a
trivial process).  A query's wall time t is reported as t * ref / c, where
c is the median of the 2 * CAL_WINDOW + 1 slices nearest to it and ref the
slice time of the reference speed: the time the query would take on a host
where one slice takes ref.  ``setup_s``, mostly process start and imports,
is scaled the same way by the spawn slices run just before and after each
probe.  The raw wall-time figures and the median slice are printed above
the JSON line.

``--trace 1`` runs the first cycle twice, untraced and then traced with
fresh objects, checks that both give the same answers, and prints the
per-layer metrics of ``tracer.py`` plus ``trace.overhead_ratio``, the
``ring.*_us`` scalar timings and the ``cli.*_ms`` start-up timings.  The
``cli`` workload replays its argv in-process through ``cli.dispatch`` in
both passes of a traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every query that broke the CLI contract or failed a check; ``correct`` is
false when a well-formed query failed, the default-seed digest differs,
or traced and untraced answers differ.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

WORKLOADS = {"padic-spectral": "wl_padic", "eqchar-lattice": "wl_eqchar",
             "series-crossed": "wl_series", "cli": "wl_cli"}
DEFAULT_SEED = 0
SETUP_PROBES = 7
WALL_LIMIT_S = 120
CAL_WINDOW = 8
SETUP_CAL_SLICES = 9


def at_reference_speed(times, cals, ref):
    """Each time scaled by ref over the median of the calibration slices
    nearest to it; cals[i] ran just before times[i]."""
    return [t * ref / statistics.median(
        cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
        for i, t in enumerate(times)]


class Env:
    """Rings and algebra contexts shared by the parsed queries."""

    src = SRC

    def __init__(self):
        self._rings = {}
        self._contexts = {}

    def ring(self, obj):
        from daggerkit import serialize
        key = json.dumps(obj, sort_keys=True)
        if key not in self._rings:
            self._rings[key] = serialize.ring_from_json(obj)
        return self._rings[key]

    def matrix_context(self, ring, d):
        from daggerkit.spectral import MatrixAlgebraContext
        key = (ring, d)
        if key not in self._contexts:
            self._contexts[key] = MatrixAlgebraContext(ring, d)
        return self._contexts[key]


def inputs(wl, seed, c, tiny=False):
    """The generated inputs of cycle c, in the order they run.  Cycle -1
    is the warm-up query alone."""
    from common import Draw
    rng = Draw(seed, c)
    slots = list(wl.cycle(tiny))
    if c < 0:
        return [wl.generate(rng, slots[0])]
    out = [wl.generate(rng, slot) for slot in slots]
    rng.value.shuffle(out)
    return out


def setup(wl, warm, first):
    """Everything between a fresh interpreter and the first timed query."""
    import daggerkit  # noqa: F401  (import time is part of set-up)
    env = Env()
    queries = wl.parse(first, env)
    wl.run(wl.parse(warm, env)[0])
    return env, queries


def setup_probe(name):
    """Child side of the set-up measurement: prints the seconds since the
    parent's clock reading passed in argv."""
    t0 = float(sys.argv[sys.argv.index("--setup-probe") + 1])
    wl = importlib.import_module(WORKLOADS[name])
    blob = json.load(sys.stdin)
    setup(wl, blob["warm"], blob["first"])
    print(time.monotonic() - t0, flush=True)


def measure_setup(name, warm, first):
    """Median set-up time of fresh child processes, raw and at the reference
    speed of the spawn slices run before and after each."""
    from common import SPAWN_REF_S, spawn_slice
    blob = json.dumps({"warm": warm, "first": first})
    times, scaled = [], []
    spawn_slice()
    for _ in range(SETUP_PROBES):
        cals = [spawn_slice() for _ in range(SETUP_CAL_SLICES)]
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--setup-probe", repr(t0)],
            input=blob, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
        cals += [spawn_slice() for _ in range(SETUP_CAL_SLICES)]
        scaled.append(times[-1] * SPAWN_REF_S / statistics.median(cals))
    return statistics.median(times), statistics.median(scaled)


def timed_pass(wl, queries, runner, calibrate=None):
    """Run queries one after another; returns [(seconds, result, error)].
    ``calibrate``, if given, is called before each query."""
    out = []
    for q in queries:
        if calibrate is not None:
            calibrate()
        t0 = time.perf_counter()
        try:
            res, err = runner(q), None
        except Exception:  # a failed query is counted, not fatal
            res, err = None, traceback.format_exc(limit=3)
        out.append((time.perf_counter() - t0, res, err))
    return out


def content_of(wl, q, res):
    from common import canon
    return canon(getattr(wl, "content", lambda q, r: r)(q, res))


class Tally:
    """Failure counts, the checked content of cycle 0 and problem notes."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.first = []
        self.notes = []
        self.late = []

    def record(self, wl, queries, done, first_cycle):
        for q, (_, res, err) in zip(queries, done):
            self.attempted += 1
            malformed = q["input"].get("malformed", False)
            if err is not None:
                problems = [err.strip().splitlines()[-1]]
            else:
                problems = wl.check(q, res, first_cycle)
                if first_cycle and not malformed:
                    self.first.append(content_of(wl, q, res))
            kind = next(q["input"][k] for k in ("kind", "cmd", "family")
                        if k in q["input"])
            late = getattr(wl, "late_check", None)
            if not problems and late is not None:
                oracle = late(q, res, first_cycle)
                if oracle is not None:
                    self.late.append((kind, oracle))
            self.fail(kind, problems, malformed)

    def fail(self, kind, problems, malformed=False):
        if problems:
            self.failed += 1
            self.correct = self.correct and malformed
            self.notes.append(f"{kind}: {'; '.join(problems)}")

    def run_late(self):
        for kind, oracle in self.late:
            self.fail(kind, oracle())
        self.late.clear()


def quantiles(latencies):
    """Harrell-Davis estimates of the median and the 90th percentile: a
    weighted mean of all order statistics, so a gap between two kinds of
    query at the quantile does not make the estimate jump between runs."""
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    from scipy.stats.mstats import hdquantiles
    p50, p90 = hdquantiles(latencies, prob=[0.5, 0.9])
    return float(p50), float(p90)


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (report lines, JSON result)."""
    wl = importlib.import_module(WORKLOADS[name])
    warm, first = inputs(wl, seed, -1, tiny), inputs(wl, seed, 0, tiny)
    lines = []
    if trace:
        return _traced(wl, name, warm, first, lines)
    from common import PYTHON_REF_S, python_slice
    probe = getattr(wl, "calibration_slice", python_slice)
    ref = getattr(wl, "CAL_REF_S", PYTHON_REF_S)
    setup_raw, setup_s = measure_setup(name, warm, first)
    env, queries = setup(wl, warm, first)
    tally, cycles, cals = Tally(), [], []
    rss_kb, wall0 = 0, time.monotonic()
    while True:
        done = timed_pass(wl, queries, wl.run,
                          lambda: cals.append(probe()))
        cycles.append([t for t, _, _ in done])
        rss_kb = max([rss_kb] + [r["rss_kb"] for _, r, _ in done
                                 if isinstance(r, dict) and "rss_kb" in r])
        tally.record(wl, queries, done, len(cycles) == 1)
        if sum(map(sum, cycles)) >= seconds or \
                time.monotonic() - wall0 > WALL_LIMIT_S:
            break
        queries = wl.parse(inputs(wl, seed, len(cycles), tiny), env)
    if name != "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _finish_checks(wl, name, seed, tiny, tally)
    wall = [t for c in cycles for t in c]
    latencies = at_reference_speed(wall, cals, ref)
    p50, p90 = quantiles(latencies)
    metrics = {"queries_per_s": (len(latencies) / sum(latencies), "1/s"),
               "latency_p50_ms": (p50 * 1e3, "ms"),
               "latency_p90_ms": (p90 * 1e3, "ms"),
               "setup_s": (setup_s, "s"),
               "peak_rss_mb": (rss_kb / 1024, "MB")}
    raw50, raw90 = quantiles(wall)
    lines.append(f"workload {name} seed {seed}: {len(cycles)} cycles of "
                 f"{len(queries)} queries in {sum(wall):.2f} s of query "
                 f"time")
    lines.append(f"raw wall time: {len(wall) / sum(wall):.6g} queries/s, "
                 f"p50 {raw50 * 1e3:.6g} ms, p90 {raw90 * 1e3:.6g} ms, "
                 f"setup {setup_raw:.6g} s; median calibration slice "
                 f"{statistics.median(cals) * 1e6:.6g} us (reference "
                 f"{ref * 1e6:.6g} us)")
    lines.append(f"latency samples {len(latencies)}, beyond p90 "
                 f"{sum(t > p90 for t in latencies)}")
    lines.append(f"failed_ratio {tally.failed / tally.attempted:.6g} 1 "
                 f"({tally.failed} failed of {tally.attempted} attempted)")
    result = _result(tally, metrics, lines)
    return lines + tally.notes[:20], result


def _finish_checks(wl, name, seed, tiny, tally):
    from common import digest
    tally.run_late()
    got = digest(tally.first)
    expected = {}
    path = os.path.join(HERE, "expected.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
    if seed == DEFAULT_SEED and not tiny and name in expected \
            and expected[name] != got:
        tally.correct = False
        tally.notes.append(f"digest {got} differs from expected.json")
    tally.notes.insert(0, f"digest {got}")


def _result(tally, metrics, lines, note=lambda key: ""):
    for key, (value, unit) in metrics.items():
        lines.append(f"{key} {value:.6g} {unit}"
                     + (f"  (moves {note(key)})" if note(key) else ""))
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def _child_ms(code, env=None, repeat=5):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _traced(wl, name, warm, first, lines):
    from tracer import Tracer, layer_metrics, moves, scalar_op_us
    runner = getattr(wl, "replay", wl.run)
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        env = Env()
        queries = wl.parse(first, env)
        runner(wl.parse(warm, env)[0])
    finally:
        setup_tracer.uninstall()
    plain = timed_pass(wl, queries, runner)
    fresh = wl.parse(first, env)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_pass(wl, fresh, runner)
    finally:
        tracer.uninstall()
    tally = Tally()
    tally.record(wl, queries, plain, True)
    tally.run_late()
    answers = [content_of(wl, q, r) for q, (_, r, e) in zip(fresh, traced)
               if e is None]
    if answers != [content_of(wl, q, r) for q, (_, r, e) in
                   zip(queries, plain) if e is None]:
        tally.correct = False
        tally.notes.append("traced answers differ from untraced answers")
    metrics = layer_metrics(tracer, setup_tracer.per_span())
    for op, us in scalar_op_us(tracer.operands).items():
        metrics[f"ring.{op}_us"] = (us, "us")
    start_ms = _child_ms("pass")
    metrics["cli.process_start_ms"] = (start_ms, "ms")
    metrics["cli.import_ms"] = (_child_ms(
        "import daggerkit", dict(os.environ, PYTHONPATH=SRC)) - start_ms, "ms")
    metrics["trace.overhead_ratio"] = (
        sum(t for t, _, _ in plain) / sum(t for t, _, _ in traced), "1")
    lines.append(f"workload {name} traced: {len(fresh)} queries, "
                 f"{len(tracer.name)} spans")
    result = _result(tally, metrics, lines, moves)
    return lines + tally.notes[:20], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "daggerkit", "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}; run from a checkout")
    if args.setup_probe is not None:
        setup_probe(args.workload)
        return
    lines, result = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
