"""In-memory span tracer for the traced run, and the per-layer metrics.

``Tracer.install`` wraps every public function of the package's modules,
and every public method and arithmetic dunder of the classes the package
exports, in a span (internal helpers such as ``FiniteField`` stay inside
the span of their caller), and
rebinds every alias of a wrapped function (``spectral.series_mul``,
``series.compose``, the names re-exported by ``daggerkit``).  ``uninstall``
puts the originals back.  Each span keeps a name, start, end and parent in
flat arrays; self time is a span's duration minus its children's, and
counts are span counts plus a few counters taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("ring", "linalg", "spectral", "series", "monoid", "crossed",
           "serialize", "cli", "gallery")
DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
           "__pow__", "__call__")
SCALAR_OPS = tuple(f"ring.ScalarElem.{op}" for op in DUNDERS[:-1])
LATTICE_OPS = tuple(f"linalg.Lattice.{op}" for op in (
    "sum", "intersect", "intersect_with_standard", "membership", "contains",
    "__eq__"))
CAPTURE = {"ring.ScalarElem.__mul__": "mul", "ring.ScalarElem.__add__": "add",
           "ring.ScalarElem.__truediv__": "inv"}
CAPTURE_EVERY = 97
CAPTURE_MAX = 64


def _hermite(tracer, args, kwargs, result):
    columns = args[3] if len(args) > 3 else kwargs["columns"]
    tracer.counters["hermite.cols_in"] += len(columns)
    tracer.counters["hermite.rank_out"] += result.rank


def _lattice_product(tracer, args, kwargs, result):
    tracer.counters["lattice_product.pairs"] += args[1].rank * args[2].rank


def _series_mul(tracer, args, kwargs, result):
    a, b = args[0], args[1]
    tracer.counters["series.term_pairs"] += len(a.terms) * len(b.terms)
    cap = a.degree_cap
    if a.monoid.kind == "Z":
        dropped = sum(1 for s in a.terms for t in b.terms
                      if sum(abs(x + y) for x, y in zip(s.data, t.data)) > cap)
    else:
        lengths = Counter(t.length for t in b.terms)
        dropped = sum(n for s in a.terms for length, n in lengths.items()
                      if s.length + length > cap)
    tracer.counters["series.dropped_pairs"] += dropped


def _capture(op):
    def counter(tracer, args, kwargs, result):
        tracer.calls[op] += 1
        kept = tracer.operands[op]
        if tracer.calls[op] % CAPTURE_EVERY == 0 and len(kept) < CAPTURE_MAX:
            kept.append((args[0], args[1]))
    return counter


COUNTERS = {"linalg.Lattice.from_columns": _hermite,
            "spectral.lattice_product": _lattice_product,
            "series.mul": _series_mul}
COUNTERS.update({name: _capture(op) for name, op in CAPTURE.items()})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.operands: dict[str, list] = {op: [] for op in CAPTURE.values()}
        self._patches: list = []

    def _wrap(self, span_name, fn):
        idx = self._ids.setdefault(span_name, len(self._ids))
        if idx == len(self.names):
            self.names.append(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, \
            self.end
        stack, clock = self.stack, time.perf_counter
        counter = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        import daggerkit
        modules = {m: importlib.import_module(f"daggerkit.{m}")
                   for m in MODULES}
        namespaces = [daggerkit, *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for alias, bound in list(vars(ns).items()):
                            if bound is obj:
                                self._set(ns, alias, wrapped)
                elif inspect.isclass(obj) and attr in daggerkit.__all__:
                    self._install_class(short, obj)

    def _install_class(self, short, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS and \
                    f"{short}.{cls.__name__}.{attr}" not in LATTICE_OPS:
                continue
            span = f"{short}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr,
                          type(member)(self._wrap(span, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(span, member))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def per_span(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        import numpy as np
        n = len(self.name)
        names = np.frombuffer(self.name, dtype=np.intc)
        parents = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=dur[nested],
                               minlength=n)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        own = np.bincount(names, weights=dur - children, minlength=k)
        return {name: (int(calls[i]), float(own[i]))
                for i, name in enumerate(self.names)}


# Which end-to-end metric each layer's figures should move, and where.
MOVES = (
    ("spectral.charpoly", "latency_p90_ms on padic-spectral (ROADMAP 3)"),
    ("spectral.", "queries_per_s on padic-spectral; watch peak_rss_mb "
                  "(ROADMAP 3)"),
    ("ring.", "queries_per_s and latency_p50_ms on eqchar-lattice, a little "
              "on series-crossed, barely on padic-spectral (ROADMAP 2a)"),
    ("linalg.", "queries_per_s on padic-spectral and eqchar-lattice; none on "
                "series-crossed or cli (ROADMAP 2b)"),
    ("series.", "queries_per_s on series-crossed; none on padic-spectral or "
                "eqchar-lattice"),
    ("monoid.", "queries_per_s on series-crossed; none on padic-spectral or "
                "eqchar-lattice"),
    ("crossed.", "queries_per_s and latency_p90_ms on series-crossed"),
    ("cli.", "latency_p50_ms on cli; setup_s on every workload"),
    ("serialize.", "latency_p50_ms on cli; setup_s on every workload"),
    ("gallery.", "latency_p50_ms on cli; setup_s on every workload"),
)


def moves(metric: str) -> str:
    return next((text for prefix, text in MOVES
                 if metric.startswith(prefix)), "")


def _total(spans, match):
    calls = self_s = 0
    for name, (c, s) in spans.items():
        if match(name):
            calls += c
            self_s += s
    return calls, self_s


def _in(*names):
    return lambda name: name in names


def _module(prefix):
    return lambda name: name.startswith(prefix + ".")


def _serialize(suffixes):
    return lambda name: name.startswith("serialize.") and \
        name.endswith(suffixes)


def layer_metrics(tracer: Tracer, parse_spans: dict) -> dict:
    """Per-layer metrics of a traced pass, as {name: (value, unit)}.

    ``parse_spans`` are the spans of the traced set-up, where the inputs
    are parsed; ``serialize.parse.self_s`` covers both.  ``cli.dispatch``
    and ``gallery.run`` take the self time of their whole module.
    """
    spans = tracer.per_span()
    c = tracer.counters
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("ring.scalar_ops", _total(spans, _in(*SCALAR_OPS))[0], "count")
    put("ring.self_s", _total(spans, _module("ring"))[1], "s")
    for metric, match in (
            ("linalg.matmul", _in("linalg.MatrixV.__mul__")),
            ("linalg.hermite", _in("linalg.Lattice.from_columns")),
            ("linalg.snf", _in("linalg.snf")),
            ("spectral.lattice_product", _in("spectral.lattice_product")),
            ("series.mul", _in("series.mul")),
            ("crossed.act", _in("crossed.act"))):
        calls, self_s = _total(spans, match)
        put(f"{metric}.calls", calls, "count")
        put(f"{metric}.self_s", self_s, "s")
    put("linalg.hermite.cols_in", c["hermite.cols_in"], "count")
    put("linalg.hermite.rank_out", c["hermite.rank_out"], "count")
    put("linalg.hermite.useful_ratio",
        c["hermite.rank_out"] / c["hermite.cols_in"]
        if c["hermite.cols_in"] else 0.0, "1")
    put("spectral.lattice_product.pairs", c["lattice_product.pairs"], "count")
    put("series.mul.term_pairs", c["series.term_pairs"], "count")
    put("series.mul.dropped_ratio",
        c["series.dropped_pairs"] / c["series.term_pairs"]
        if c["series.term_pairs"] else 0.0, "1")
    for metric, match in (
            ("linalg.lattice_ops", _in(*LATTICE_OPS)),
            ("linalg.det_inverse", _in("linalg.MatrixV.det",
                                       "linalg.MatrixV.inverse")),
            ("spectral.charpoly", _in("spectral.characteristic_polynomial")),
            ("spectral.rho1_estimate", _in("spectral.rho1_estimate")),
            ("spectral.lgb_closure", _in("spectral.lgb_closure")),
            ("spectral.semi_dagger_probe", _in("spectral.semi_dagger_probe")),
            ("series.add_scale", _in("series.add_scale")),
            ("series.certify", _in("series.certify")),
            ("monoid", _module("monoid")),
            ("crossed.crossed_mul", _in("crossed.crossed_mul")),
            ("crossed.ubprobe", _in("crossed.uniform_boundedness_probe")),
            ("cli.dispatch", _module("cli")),
            ("serialize.dump", _serialize(("_to_json", "fraction_str"))),
            ("gallery.run", _module("gallery"))):
        put(f"{metric}.self_s", _total(spans, match)[1], "s")
    put("monoid.compose.calls", _total(spans, _in("monoid.compose"))[0],
        "count")
    put("monoid.cocycle.calls", _total(
        spans, lambda n: n.startswith("monoid.") and n.endswith(".value"))[0],
        "count")
    parse = _serialize(("_from_json", "parse_scalar"))
    put("serialize.parse.self_s",
        _total(spans, parse)[1] + _total(parse_spans, parse)[1], "s")
    return out


def scalar_op_us(operands: dict) -> dict:
    """Untraced time per scalar op, in microseconds, on captured operands:
    the median of five timed passes."""
    out = {}
    for op, pairs in operands.items():
        if op == "inv":
            pairs = [(b.ring.one(), b) for _, b in pairs]
        if not pairs:
            out[op] = 0.0
            continue
        fn = {"mul": lambda a, b: a * b, "add": lambda a, b: a + b,
              "inv": lambda a, b: a / b}[op]
        t0 = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        repeat = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-9)))
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(repeat):
                for a, b in pairs:
                    fn(a, b)
            samples.append((time.perf_counter() - t0) / (repeat * len(pairs)))
        out[op] = statistics.median(samples) * 1e6
    return out
