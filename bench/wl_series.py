"""series-crossed: twisted series, growth certificates, affine actions and
crossed products.

Why: convolution, cocycle values and substitution take the time and
elimination barely runs, so the scalar layer is used as many small sparse
accumulations rather than dense elimination.  Mix per cycle of 27 queries,
the last slot of each kind over F_5[[t]] and the rest over Z_5, all at
N = 40: torus relation and monomial table (7, D from 6 to 12), twisted mul and
series_pow (bicharacter and table cocycles), certify / best_certificate /
membership_filtration, act of random GL_2(Z) affine actions on N^2 at
D <= 8, crossed_mul with Z-cap <= 4, and uniform_boundedness_probe at
D <= 4.
"""

from __future__ import annotations

from fractions import Fraction

from common import contains, ring_json, scalar

PRECISION = 40
# The size parameter of each kind's slots, the last one over F_5[[t]]:
# torus D, twisted (power, cocycle), certify c, act D, crossed Z-cap,
# ubprobe D.  The four D = 10 tori are the 82nd to 96th percentile of a
# cycle's latencies, so p90 falls among queries of one kind.
PARAMS = {"torus": (6, 8, 10, 10, 10, 10, 12),
          "twisted": ((2, "bicharacter"), (3, "table"), (4, "bicharacter"),
                      (3, "table")),
          "certify": ("1/2", "1", "3/2", "2"),
          "act": (4, 6, 8, 6),
          "crossed": (2, 3, 4, 3),
          "ubprobe": (2, 3, 3, 2)}
TINY = {"torus": 4, "twisted": (2, "table"), "certify": "1", "act": 4,
        "crossed": 2, "ubprobe": 2}


def cycle(tiny: bool = False):
    if tiny:
        return [(kind, "padic" if i % 2 else "eqchar", 12, TINY[kind])
                for i, kind in enumerate(PARAMS)]
    return [(kind, "eqchar" if i == len(params) - 1 else "padic", PRECISION,
             param)
            for kind, params in PARAMS.items()
            for i, param in enumerate(params)]


def _series(rng, ring, monoid, cap, count, vmax=3):
    """Random series as JSON: count terms of length <= cap."""
    terms = {}
    for _ in range(count):
        budget = rng.randint(0, cap)
        data = [0] * monoid["rank"]
        for _ in range(budget):
            i = rng.randrange(monoid["rank"])
            data[i] += rng.choice((1, -1)) if monoid["kind"] == "Z" else 1
        terms[tuple(data)] = scalar(rng, ring, rng.randint(0, vmax))
    return {"monoid": monoid, "ring": ring, "D": cap,
            "terms": [{"s": list(s), "x": x} for s, x in terms.items()]}


def _gl2z(rng):
    """A random element of GL_2(Z) as a product of elementary matrices."""
    a = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(-2, 2)
        e = [[1, c], [0, 1]] if rng.random() < 0.5 else [[1, 0], [c, 1]]
        a = [[sum(a[i][k] * e[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
    if rng.random() < 0.3:
        a = [a[1], a[0]]
    return a


def _action(rng, k):
    a = _gl2z(rng) if k == 2 else [[rng.choice((1, -1))]]
    return {"a": [[str(x) for x in row] for row in a],
            "b": [str(rng.randint(-3, 3)) for _ in range(k)]}


def generate(rng, slot) -> dict:
    kind, backend, precision, param = slot
    ring = ring_json(backend, 5, precision)
    inp = {"kind": kind, "ring": ring}
    z2, n1, n2 = ({"kind": k, "rank": r} for k, r in
                  (("Z", 2), ("N", 1), ("N", 2)))
    if kind == "torus":
        inp["D"] = param
        inp["lambda"] = scalar(rng, ring, 0)
    elif kind == "twisted":
        power, cocycle = param
        cap = 2 * power
        if cocycle == "bicharacter":
            inp["cocycle"] = {"kind": "bicharacter",
                              "lambda": scalar(rng, ring, 0),
                              "Q": [[rng.randint(-2, 2) for _ in range(2)]
                                    for _ in range(2)]}
            monoid = z2
        else:
            monoid = n2
            inp["table"] = [{"s": [rng.randint(0, 2), rng.randint(0, 2)],
                             "t": [rng.randint(0, 2), rng.randint(0, 2)],
                             "x": scalar(rng, ring, 0)} for _ in range(6)]
        inp["a"] = _series(rng, ring, monoid, cap, 6, 2)
        inp["b"] = _series(rng, ring, monoid, cap, 6, 2)
        inp["power"] = power
    elif kind == "certify":
        inp["series"] = _series(rng, ring, rng.choice((z2, n2)), 8, 10, 6)
        inp["c"] = param
        inp["filtration"] = [1, 2, 3]
    elif kind == "act":
        inp["action"] = _action(rng, 2)
        inp["series"] = _series(rng, ring, n2, param, 6)
        inp["n"] = rng.choice((-3, -2, -1, 1, 2, 3))
        inp["m"] = rng.choice((-2, -1, 1, 2))
    elif kind == "crossed":
        k = 1 + param % 2
        inp["action"] = _action(rng, k)
        for key in ("u", "v"):
            support = rng.sample(range(-param, param + 1), 2)
            inp[key] = {"Dz": param, "terms": [
                {"n": n, "series": _series(rng, ring, n1 if k == 1 else n2,
                                           6, 3)}
                for n in sorted(support)]}
    else:
        inp["action"] = _action(rng, 2)
        inp["D"] = param
        inp["generators"] = [_series(rng, ring, n2, param, 2)
                             for _ in range(2)]
    return inp


def parse(inputs, env):
    from daggerkit import monoid as mon
    from daggerkit import serialize
    from daggerkit.spectral import SeriesAlgebraContext
    out = []
    for inp in inputs:
        ring = env.ring(inp["ring"])
        q = {"input": inp, "ring": ring}
        kind = inp["kind"]
        if kind == "torus":
            q["lambda"] = serialize.parse_scalar(ring, inp["lambda"])
        elif kind == "twisted":
            q["a"] = serialize.series_from_json(inp["a"], ring)
            q["b"] = serialize.series_from_json(inp["b"], ring)
            if "cocycle" in inp:
                q["cocycle"] = serialize.cocycle_from_json(ring,
                                                           inp["cocycle"])
            else:
                m = q["a"].monoid
                q["cocycle"] = mon.TableCocycle(ring, {
                    (serialize.element_from_json(m, e["s"]),
                     serialize.element_from_json(m, e["t"])):
                    serialize.parse_scalar(ring, e["x"])
                    for e in inp["table"]})
        elif kind == "certify":
            q["series"] = serialize.series_from_json(inp["series"], ring)
        elif kind == "act":
            q["action"] = serialize.action_from_json(ring, inp["action"])
            q["series"] = serialize.series_from_json(inp["series"], ring)
        elif kind == "crossed":
            q["action"] = serialize.action_from_json(ring, inp["action"])
            q["u"] = serialize.crossed_from_json(inp["u"], ring)
            q["v"] = serialize.crossed_from_json(inp["v"], ring)
        else:
            q["action"] = serialize.action_from_json(ring, inp["action"])
            q["ctx"] = SeriesAlgebraContext(ring, q["action"].monoid,
                                            inp["D"])
            q["generators"] = [serialize.series_from_json(g, ring)
                               for g in inp["generators"]]
        out.append(q)
    return out


def _torus(q):
    from daggerkit import series
    ring, cap = q["ring"], q["input"]["D"]
    lam = q["lambda"]
    u1, u2, cocycle, monoid = series.nc_torus(ring, lam, cap)
    zero = series.DaggerSeries.zero(ring, monoid, cap)
    relation = series.mul(u2, u1, cocycle) == \
        series.add_scale(zero, series.mul(u1, u2, cocycle), lam)
    table = []
    for s in monoid.elements_up_to_length(cap):
        mono = series.torus_monomial(ring, monoid, cocycle, s.data[0],
                                     s.data[1], cap)
        table.append(mono == series.DaggerSeries.delta(ring, monoid, s, cap))
    return {"relation": relation, "table": table}


def run(q):
    from daggerkit import crossed, series, spectral
    kind = q["input"]["kind"]
    if kind == "torus":
        return _torus(q)
    if kind == "twisted":
        return [series.mul(q["a"], q["b"], q["cocycle"]),
                series.series_pow(q["a"], q["input"]["power"], q["cocycle"])]
    if kind == "certify":
        a = q["series"]
        ok, k = series.certify(a, Fraction(q["input"]["c"]))
        env = series.best_certificate(a) if not a.is_zero else None
        return {"ok": ok, "k": k,
                "envelope": env.vertices if env is not None else None,
                "filtration": [series.membership_filtration(a, n)
                               for n in q["input"]["filtration"]]}
    if kind == "act":
        return crossed.act(q["action"], q["input"]["n"], q["series"])
    if kind == "crossed":
        return crossed.crossed_mul(q["u"], q["v"], q["action"])
    ctx = q["ctx"]
    U = spectral.lattice_from_elements(ctx, q["generators"])
    return crossed.uniform_boundedness_probe(q["action"], U, ctx, depth=8)


def _naive_mul(a, b, value):
    """Twisted convolution written out term by term: the oracle for mul."""
    out = {}
    for s, x in a.terms.items():
        for t, y in b.terms.items():
            u = tuple(i + j for i, j in zip(s.data, t.data))
            if sum(abs(c) for c in u) > a.degree_cap:
                continue
            term = x * y * value(s, t)
            out[u] = term if u not in out else out[u] + term
    return out


def _same_terms(series, terms):
    ring = series.ring
    keys = {s.data for s in series.terms} | set(terms)
    return all(series.terms.get(series.monoid.element(k), ring.zero())
               == terms.get(k, ring.zero()) for k in keys)


def check(q, res, full: bool):
    from daggerkit import crossed, series, spectral
    inp, kind = q["input"], q["input"]["kind"]
    if kind == "torus":
        ok = res["relation"] and all(res["table"])
        return [] if ok else ["torus relation or monomial table fails"]
    if kind == "twisted":
        if not full:
            return []
        cocycle = q["cocycle"]
        if "cocycle" in inp:
            lam, Q = q["cocycle"].lam, q["cocycle"].Q

            def value(s, t):
                return lam ** sum(s.data[i] * Q[i][j] * t.data[j]
                                  for i in range(2) for j in range(2))
        else:
            table = cocycle.table
            one = q["ring"].one()

            def value(s, t):
                return table.get((s, t), one)
        problems = []
        if not _same_terms(res[0], _naive_mul(q["a"], q["b"], value)):
            problems.append("twisted mul disagrees with the term-by-term sum")
        power = series.DaggerSeries.unit(q["ring"], q["a"].monoid,
                                         q["a"].degree_cap)
        for _ in range(inp["power"]):
            power = series.DaggerSeries(q["ring"], q["a"].monoid, {
                q["a"].monoid.element(k): x for k, x in
                _naive_mul(power, q["a"], value).items()}, q["a"].degree_cap)
        if not _same_terms(res[1], {s.data: x for s, x in
                                    power.terms.items()}):
            problems.append("series_pow disagrees with repeated products")
        return problems
    if kind == "certify":
        a, c = q["series"], Fraction(inp["c"])
        problems = []
        if res["envelope"] is not None and \
                series.CertificateEnvelope(res["envelope"]).minimal_offset(c) \
                != res["k"]:
            problems.append("certificate offset disagrees with the envelope")
        if res["ok"] != (res["k"] == 0):
            problems.append("certify verdict disagrees with its offset")
        expect = [all((x.valuation + 1) * n >= s.length
                      for s, x in a.terms.items()) for n in inp["filtration"]]
        if res["filtration"] != expect:
            problems.append("membership_filtration disagrees with its terms")
        return problems
    if kind == "act":
        problems = []
        if res.max_length() > q["series"].max_length():
            problems.append("act raised the degree")
        if full:
            alpha, f, n, m = q["action"], q["series"], inp["n"], inp["m"]
            if crossed.act(alpha, m, res) != crossed.act(alpha, m + n, f):
                problems.append("act(m) o act(n) != act(m + n)")
        return problems
    if kind == "crossed":
        u, v, alpha = q["u"], q["v"], q["action"]
        if any(abs(n) > u.z_cap for n in res.terms):
            return ["crossed product left the Z-cap"]
        if not full:
            return []
        expect = {}
        for p, a in u.terms.items():
            for r, b in v.terms.items():
                if abs(p + r) <= u.z_cap:
                    term = series.mul(a, crossed.act(alpha, p, b))
                    prev = expect.get(p + r)
                    expect[p + r] = term if prev is None else series.add_scale(
                        prev, term, q["ring"].one())
        zero = series.DaggerSeries.zero(q["ring"], u.monoid, u.degree_cap)
        ok = all(res.coefficient(n) == expect.get(n, zero)
                 for n in set(expect) | set(res.terms))
        return [] if ok else ["crossed_mul disagrees with its defining sum"]
    problems = []
    ctx, alpha = q["ctx"], q["action"]
    if res.verdict == "stabilized":
        T = res.lattice
        U = spectral.lattice_from_elements(ctx, q["generators"])
        images = [ctx.to_vector(crossed.act(alpha, e, g)) for g in
                  spectral.lattice_elements(ctx, T) for e in (1, -1)]
        if not contains(T, U.generator_vectors() + images, T.lossy):
            problems.append("stabilized lattice is not invariant")
    elif res.verdict == "diverging":
        window = -(-8 // 2)
        tail = res.gauges[-window - 1:]
        if any(b >= a for a, b in zip(tail, tail[1:])):
            problems.append("diverging without decreasing gauges")
    return problems
