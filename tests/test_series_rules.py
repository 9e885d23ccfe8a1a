"""Differential tests of the rules shared by twisted series and crossed
products.

Each rule has one implementation in ``daggerkit.series``: ``_add_term``
sums every coefficient (in ``mul``, ``add_scale``, ``act`` and
``crossed_mul``), ``_product_certificate`` combines the certificates of a
product, ``_minimal_offset`` computes the least certificate offset (for
``certify``, ``crossed_certify`` and the check in ``CrossedElem``) and
``_lower_hull`` scans the certificate envelope and the Newton polygon.
The versions that each call site used to carry are kept here as the
reference, and the outputs must be identical: the (v, u, lossy) triple of
every coefficient in dict order, the ``truncated`` flags, the
certificates, the offsets, the envelope vertices and the Newton slopes.

The one intended difference is the cancellation flag of ``crossed_mul``.
The reference rebuilt a pruned ``DaggerSeries`` after every (p, q) pair,
so a coefficient whose running sum cancelled to zero lost its ``lossy``
flag when the next summand arrived; ``crossed_mul`` now keeps it, as
``mul`` always has.  The sweep allows exactly that difference, at the
positions where the reference's running sum cancelled, and
``test_crossed_mul_keeps_cancellation_flag`` asserts it.

Inputs run over padic p in {2, 5} and eqchar q in {4, 9} at N in
{1, 3, 40}, over N^2, Z^2 and the free monoid on two letters, under
trivial, bicharacter and table cocycles.  Coefficients come from a small
pool holding each value and its negative, so running sums cancel, and
degree and support caps are small, so products drop terms; each sweep
asserts that it met both.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from daggerkit.crossed import (AffineAction, CrossedElem, act,
                               crossed_certify, crossed_mul)
from daggerkit.linalg import MatrixV
from daggerkit.monoid import (BicharacterCocycle, MonoidDescriptor,
                              TableCocycle, TrivialCocycle, compose)
from daggerkit.ring import INFINITY, RingDescriptor, ScalarElem
from daggerkit.series import (DaggerSeries, GrowthCertificate, add_scale,
                              best_certificate, certify, mul, series_pow,
                              torus_monomial)
from daggerkit.spectral import characteristic_polynomial, newton_polygon_rho

RINGS = [("padic", 2), ("padic", 5), ("eqchar", 4), ("eqchar", 9)]
PRECISIONS = (1, 3, 40)
CASES = [(b, base, n) for b, base in RINGS for n in PRECISIONS]
N2 = MonoidDescriptor("N", 2)
Z2 = MonoidDescriptor("Z", 2)
FREE2 = MonoidDescriptor("free", 2)
CONSTANTS = (Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(5, 2))

# what the reference met: running sums that cancelled, dropped terms
SEEN = Counter()


# -- the reference: each call site as it was before the shared helpers --

def _ceil(x):
    return -((-x.numerator) // x.denominator)


def _reference_sum(out, key, x, cancelled=None):
    acc = out.get(key)
    out[key] = x if acc is None else acc + x
    if out[key].is_zero:
        SEEN["cancelled"] += 1
        if cancelled is not None:
            cancelled.add(key)


def ref_mul(a, b, cocycle=None):
    a._compat(b)
    if cocycle is None:
        cocycle = TrivialCocycle(a.ring)
    out = {}
    dropped = False
    for s, x in a.terms.items():
        for t, y in b.terms.items():
            u = compose(s, t)
            if u.length > a.degree_cap:
                dropped = True
                SEEN["dropped"] += 1
                continue
            _reference_sum(out, u, x * y * cocycle.value(s, t))
    cert = None
    if a.certificate is not None and b.certificate is not None:
        cert = GrowthCertificate(min(a.certificate.c, b.certificate.c),
                                 a.certificate.k + b.certificate.k + 1)
    return DaggerSeries(a.ring, a.monoid, out, a.degree_cap, cert,
                        truncated=dropped or a.truncated or b.truncated)


def _ref_sum_certificate(a, b, s):
    if s.is_zero or b.is_zero:
        return a.certificate
    if b.certificate is None:
        return None
    shifted = GrowthCertificate(b.certificate.c,
                                max(0, b.certificate.k - s.valuation))
    if a.is_zero:
        return shifted
    if a.certificate is None:
        return None
    return GrowthCertificate(min(a.certificate.c, shifted.c),
                             max(a.certificate.k, shifted.k))


def ref_add_scale(a, b, s):
    a._compat(b)
    if s.ring != a.ring:
        raise ValueError("scalar from the wrong ring")
    out = dict(a.terms)
    if not s.is_zero:
        for t, y in b.terms.items():
            _reference_sum(out, t, s * y)
    return DaggerSeries(a.ring, a.monoid, out, a.degree_cap,
                        _ref_sum_certificate(a, b, s),
                        truncated=a.truncated or b.truncated)


def ref_series_pow(x, n, cocycle=None, inverse=None):
    if n < 0:
        return ref_series_pow(inverse, -n, cocycle)
    out = DaggerSeries.unit(x.ring, x.monoid, x.degree_cap)
    for _ in range(n):
        out = ref_mul(out, x, cocycle)
    return out


def ref_torus_monomial(ring, monoid, cocycle, s1, s2, degree_cap):
    def delta(e):
        return DaggerSeries.delta(ring, monoid, monoid.element(e), degree_cap)

    out = ref_series_pow(delta((1, 0)), s1, cocycle, inverse=delta((-1, 0)))
    second = ref_series_pow(delta((0, 1)), s2, cocycle,
                            inverse=delta((0, -1)))
    return ref_mul(out, second, cocycle)


def ref_substitute(ring, monoid, f, matrix, shift):
    cap = f.degree_cap
    k = monoid.rank
    lines = []
    for j in range(k):
        terms = {}
        if not shift[j].is_zero:
            terms[monoid.identity()] = shift[j]
        for i in range(k):
            c = matrix[j, i]
            if not c.is_zero:
                e = [0] * k
                e[i] = 1
                terms[monoid.element(tuple(e))] = c
        lines.append(DaggerSeries(ring, monoid, terms, cap))
    powers = [[DaggerSeries.unit(ring, monoid, cap)] for _ in range(k)]

    def power(j, e):
        while len(powers[j]) <= e:
            powers[j].append(ref_mul(powers[j][-1], lines[j]))
        return powers[j][e]

    acc = {}
    for s, x in f.terms.items():
        term = None
        for j, e in enumerate(s.data):
            if e == 0:
                continue
            p = power(j, e)
            term = p if term is None else ref_mul(term, p)
        if term is None:
            contrib = {monoid.identity(): x}
        else:
            contrib = {t: x * y for t, y in term.terms.items()}
        for t, y in contrib.items():
            _reference_sum(acc, t, y)
    return DaggerSeries(ring, monoid, acc, cap)


def ref_act(alpha, n, f):
    if f.monoid != alpha.monoid:
        raise ValueError("series monoid does not match the action")
    if n == 0 or f.is_zero:
        return f
    matrix, shift = alpha.pair(n)
    return ref_substitute(alpha.ring, alpha.monoid, f, matrix, shift)


def ref_crossed_mul(u, v, alpha, z_cap=None, cancelled=None):
    """The reference product; ``cancelled`` collects the (n, s) whose
    running sum cancelled to zero."""
    cap = u.z_cap if z_cap is None else z_cap
    out = {}
    dropped = False
    zero = DaggerSeries.zero(u.ring, u.monoid, u.degree_cap)
    for p, a_p in u.terms.items():
        for q, b_q in v.terms.items():
            n = p + q
            if abs(n) > cap:
                dropped = True
                SEEN["dropped"] += 1
                continue
            coefficient = ref_mul(a_p, ref_act(alpha, p, b_q))
            acc = out.get(n, zero)
            merged = dict(acc.terms)
            hit = set()
            for s, x in coefficient.terms.items():
                _reference_sum(merged, s, x, hit)
            if cancelled is not None:
                cancelled.update((n, s) for s in hit)
            out[n] = DaggerSeries(u.ring, u.monoid, merged, u.degree_cap,
                                  truncated=acc.truncated
                                  or coefficient.truncated)
    cert = None
    if u.certificate is not None and v.certificate is not None:
        cert = GrowthCertificate(min(u.certificate.c, v.certificate.c),
                                 u.certificate.k + v.certificate.k + 1)
    return CrossedElem(u.ring, u.monoid, out, cap, u.degree_cap, cert,
                       truncated=dropped or u.truncated or v.truncated)


def ref_certify(a, c):
    c = Fraction(c)
    worst = Fraction(0)
    for s, x in a.terms.items():
        gap = c * s.length - 1 - x.valuation
        if gap > worst:
            worst = gap
    k = max(0, _ceil(worst))
    return k == 0, k


def ref_crossed_certify(u, c):
    c = Fraction(c)
    worst = Fraction(0)
    for n, series in u.terms.items():
        for s, x in series.terms.items():
            gap = c * (abs(n) + s.length) - 1 - x.valuation
            if gap > worst:
                worst = gap
    k = max(0, _ceil(worst))
    return k == 0, k


def ref_hull(points):
    """The hull loop of ``best_certificate``."""
    hull = []
    for L, m in points:
        while len(hull) >= 2:
            (L1, m1), (L2, m2) = hull[-2], hull[-1]
            if (m2 - m1) * (L - L1) >= (m - m1) * (L2 - L1):
                hull.pop()
            else:
                break
        hull.append((L, m))
    return hull


def ref_envelope(a):
    by_length = {}
    for s, x in a.terms.items():
        m = by_length.get(s.length)
        if m is None or x.valuation + 1 < m:
            by_length[s.length] = x.valuation + 1
    return ref_hull(sorted(by_length.items()))


def ref_newton(a):
    """``newton_polygon_rho`` with its own hull loop."""
    points = []
    for i, c in enumerate(characteristic_polynomial(a)):
        if not c.effectively_zero:
            points.append((i, c.valuation))
    if len(points) <= 1:
        return INFINITY
    hull = []
    for (i, v) in points:
        while len(hull) >= 2:
            (i1, v1), (i2, v2) = hull[-2], hull[-1]
            if (v2 - v1) * (i - i1) >= (v - v1) * (i2 - i1):
                hull.pop()
            else:
                break
        hull.append((i, v))
    (i1, v1), (i2, v2) = hull[-2], hull[-1]
    return Fraction(v1 - v2, i2 - i1)


# -- inputs --

def make_ring(backend, base, n):
    return RingDescriptor(backend, base, n)


def unit(ring, rng):
    b = ring.base
    return ring.from_valuation_unit(
        0, rng.randrange(1, b) + b * rng.randrange(b ** min(ring.precision
                                                           - 1, 2)))


def pool(ring, rng):
    """A few scalars with their negatives, so running sums cancel; one
    flagged entry and one effectively zero (N <= v < inf)."""
    xs = [unit(ring, rng).scaled_by_pi(rng.choice((-1, 0, 0, 1, 2)))
          for _ in range(3)]
    x = xs[0]
    return xs + [-y for y in xs] + [
        ring.one(), -ring.one(), ScalarElem(ring, x.v, x.u, True),
        ring.pi(ring.precision)]


def cocycles(ring, monoid, rng):
    out = [None, TrivialCocycle(ring)]
    if monoid.kind == "Z":
        out.append(BicharacterCocycle(unit(ring, rng), [[0, 0], [1, 0]]))
        out.append(BicharacterCocycle(unit(ring, rng),
                                      [[rng.randint(-1, 1) for _ in range(2)]
                                       for _ in range(2)]))
    table = {(monoid.random_element(rng, 2), monoid.random_element(rng, 2)):
             unit(ring, rng) for _ in range(12)}
    out.append(TableCocycle(ring, table))
    return out


def series(ring, monoid, cap, rng, xs, count, certified=False):
    terms = {monoid.random_element(rng, cap): rng.choice(xs)
             for _ in range(count)}
    a = DaggerSeries(ring, monoid, terms, cap)
    if not certified:
        return a
    c = rng.choice(CONSTANTS)
    k = ref_certify(a, c)[1] + rng.choice((0, 0, 1))
    return DaggerSeries(ring, monoid, a.terms, cap, GrowthCertificate(c, k),
                        truncated=rng.random() < 0.2)


def action(ring, k, rng):
    entries = [ring.zero(), ring.one(), -ring.one(), ring.scalar(2),
               ring.pi(), unit(ring, rng)]
    while True:
        a = MatrixV(ring, [[rng.choice(entries) for _ in range(k)]
                           for _ in range(k)])
        det = a.det()
        if not det.is_zero and det.valuation == 0:
            return AffineAction(a, [rng.choice(entries) for _ in range(k)])


def crossed(ring, monoid, z_cap, cap, rng, xs, certified=False):
    terms = {rng.randint(-z_cap, z_cap): series(ring, monoid, cap, rng, xs, 3)
             for _ in range(3)}
    u = CrossedElem(ring, monoid, terms, z_cap, cap)
    if not certified:
        return u
    c = rng.choice(CONSTANTS)
    k = ref_crossed_certify(u, c)[1] + rng.choice((0, 1))
    return CrossedElem(ring, monoid, u.terms, z_cap, cap,
                       GrowthCertificate(c, k))


# -- comparisons --

def triples(a):
    return [(s.data, x.v, x.u, x.lossy) for s, x in a.terms.items()]


def assert_same_series(new, ref):
    assert triples(new) == triples(ref)
    assert (new.truncated, new.certificate, new.degree_cap) == \
        (ref.truncated, ref.certificate, ref.degree_cap)


def assert_same_crossed(new, ref, cancelled):
    """Identical, except that a coefficient whose running sum cancelled in
    the reference may keep the flag that the reference lost."""
    assert (new.z_cap, new.truncated, new.certificate) == \
        (ref.z_cap, ref.truncated, ref.certificate)
    assert list(new.terms) == list(ref.terms)
    for n, b in ref.terms.items():
        a = new.terms[n]
        assert (a.truncated, a.certificate) == (b.truncated, b.certificate)
        if not any(m == n for m, _ in cancelled):
            assert triples(a) == triples(b)
            continue
        assert {s: (x.v, x.u) for s, x in a.terms.items()} == \
            {s: (x.v, x.u) for s, x in b.terms.items()}
        for s, x in a.terms.items():
            assert x.lossy == b.terms[s].lossy or \
                (x.lossy and (n, s) in cancelled)


@pytest.fixture(autouse=True)
def fresh_counts():
    SEEN.clear()


# -- the sweep --

@pytest.mark.parametrize("backend,base,n", CASES)
def test_mul_and_add_scale(backend, base, n):
    ring = make_ring(backend, base, n)
    rng = random.Random(f"mul {backend} {base} {n}")
    for monoid in (N2, Z2, FREE2):
        xs = pool(ring, rng)
        for cocycle in cocycles(ring, monoid, rng):
            for _ in range(3):
                cap = rng.randint(1, 4)
                a = series(ring, monoid, cap, rng, xs, 6, rng.random() < 0.7)
                b = series(ring, monoid, cap, rng, xs, 6, rng.random() < 0.7)
                assert_same_series(mul(a, b, cocycle),
                                   ref_mul(a, b, cocycle))
                s = rng.choice(xs + [ring.zero()])
                assert_same_series(add_scale(a, b, s), ref_add_scale(a, b, s))
    assert SEEN["cancelled"] and SEEN["dropped"]


@pytest.mark.parametrize("backend,base,n", CASES)
def test_powers_and_torus_monomials(backend, base, n):
    ring = make_ring(backend, base, n)
    rng = random.Random(f"pow {backend} {base} {n}")
    for monoid in (N2, Z2, FREE2):
        xs = pool(ring, rng)
        for cocycle in cocycles(ring, monoid, rng):
            x = series(ring, monoid, 3, rng, xs, 3, rng.random() < 0.5)
            for e in range(4):
                assert_same_series(series_pow(x, e, cocycle),
                                   ref_series_pow(x, e, cocycle))
            if monoid is not Z2:
                continue
            for s1 in range(-3, 4):
                for s2 in range(-2, 3):
                    assert_same_series(
                        torus_monomial(ring, Z2, cocycle, s1, s2, 3),
                        ref_torus_monomial(ring, Z2, cocycle, s1, s2, 3))
    assert SEEN["dropped"]


@pytest.mark.parametrize("backend,base,n", CASES)
def test_chains_shared_across_calls(backend, base, n):
    """Powers come from chains kept on the cocycle and the action, so
    later calls reuse links that earlier calls built.  Calls that reuse
    one cocycle or action while alternating caps, equal but distinct rings
    and the cocycle None still give the reference's series, in the ring
    they were asked for; so do repeated ``series_pow`` calls."""
    ring = make_ring(backend, base, n)
    twin = make_ring(backend, base, n)  # equal to ring, not the same object
    rng = random.Random(f"chains {backend} {base} {n}")
    xs = pool(ring, rng)
    for cocycle in cocycles(ring, Z2, rng):
        steps = [(r, cap, s1, s2) for r in (ring, twin, ring)
                 for cap in (3, 2, 4, 3)
                 for s1, s2 in ((2, -1), (-3, 0), (0, 2), (1, 1))]
        rng.shuffle(steps)
        for r, cap, s1, s2 in steps:
            got = torus_monomial(r, Z2, cocycle, s1, s2, cap)
            assert got.ring is r
            assert_same_series(got, ref_torus_monomial(r, Z2, cocycle,
                                                       s1, s2, cap))
    for monoid in (N2, Z2, FREE2):
        x = series(ring, monoid, 3, rng, xs, 3, True)
        flagged = DaggerSeries(ring, monoid, {
            s: ScalarElem(ring, y.v, y.u, True) for s, y in x.terms.items()},
            3)
        for cocycle in cocycles(ring, monoid, rng) * 2:
            for e in (3, 1, 4, 0, 2):
                for y in (x, flagged):
                    assert_same_series(series_pow(y, e, cocycle),
                                       ref_series_pow(y, e, cocycle))
    for k in (1, 2):
        monoid = MonoidDescriptor("N", k)
        alpha = action(ring, k, rng)
        for cap in (3, 2, 4, 2, 3):
            f = series(ring, monoid, cap, rng, xs, 5)
            for m in (1, -1, 2, 1):
                assert_same_series(act(alpha, m, f), ref_act(alpha, m, f))


@pytest.mark.parametrize("backend,base,n", CASES)
def test_act(backend, base, n):
    ring = make_ring(backend, base, n)
    rng = random.Random(f"act {backend} {base} {n}")
    for k in (1, 2):
        monoid = MonoidDescriptor("N", k)
        alpha = action(ring, k, rng)
        xs = pool(ring, rng)
        for _ in range(4):
            f = series(ring, monoid, 4, rng, xs, 5)
            for m in (-2, -1, 0, 1, 3):
                assert_same_series(act(alpha, m, f), ref_act(alpha, m, f))
    assert SEEN["cancelled"]


@pytest.mark.parametrize("backend,base,n", CASES)
def test_crossed_mul(backend, base, n):
    ring = make_ring(backend, base, n)
    rng = random.Random(f"crossed {backend} {base} {n}")
    for k in (1, 2):
        monoid = MonoidDescriptor("N", k)
        alpha = action(ring, k, rng)
        xs = pool(ring, rng)
        for _ in range(4):
            u = crossed(ring, monoid, 2, 3, rng, xs, rng.random() < 0.7)
            v = crossed(ring, monoid, 2, 3, rng, xs, rng.random() < 0.7)
            for z_cap in (None, 1, 3):
                cancelled = set()
                ref = ref_crossed_mul(u, v, alpha, z_cap, cancelled)
                assert_same_crossed(crossed_mul(u, v, alpha, z_cap), ref,
                                    cancelled)
    assert SEEN["cancelled"] and SEEN["dropped"]


@pytest.mark.parametrize("backend,base,n", CASES)
def test_offsets_and_envelopes(backend, base, n):
    ring = make_ring(backend, base, n)
    rng = random.Random(f"offsets {backend} {base} {n}")
    for monoid in (N2, Z2, FREE2):
        xs = pool(ring, rng)
        for _ in range(6):
            a = series(ring, monoid, rng.randint(0, 6), rng, xs, 6)
            for c in CONSTANTS:
                assert certify(a, c) == ref_certify(a, c)
            if not a.is_zero:
                assert best_certificate(a).vertices == ref_envelope(a)
    for k in (1, 2):
        monoid = MonoidDescriptor("N", k)
        xs = pool(ring, rng)
        for _ in range(6):
            u = crossed(ring, monoid, 3, 4, rng, xs)
            for c in CONSTANTS:
                ok, offset = ref_crossed_certify(u, c)
                assert crossed_certify(u, c) == (ok, offset)
                # the check in CrossedElem accepts exactly these offsets
                CrossedElem(ring, monoid, u.terms, 3, 4,
                            GrowthCertificate(c, offset))
                if offset:
                    with pytest.raises(ValueError):
                        CrossedElem(ring, monoid, u.terms, 3, 4,
                                    GrowthCertificate(c, offset - 1))


@pytest.mark.parametrize("backend,base,n", CASES)
def test_newton_slopes(backend, base, n):
    ring = make_ring(backend, base, n)
    rng = random.Random(f"newton {backend} {base} {n}")
    xs = pool(ring, rng) + [ring.zero()] * 4
    for d in (1, 2, 3, 4):
        for _ in range(4):
            a = MatrixV(ring, [[rng.choice(xs) for _ in range(d)]
                               for _ in range(d)])
            assert newton_polygon_rho(a) == ref_newton(a)


def test_envelope_of_random_points():
    """One term per length, so the envelope's points are exactly the
    (L, v + 1) drawn here, collinear runs and negative v included."""
    ring = make_ring("padic", 5, 10)
    n1 = MonoidDescriptor("N", 1)
    rng = random.Random(7)
    for _ in range(300):
        lengths = sorted(rng.sample(range(12), rng.randint(1, 12)))
        points = [(L, rng.randint(-6, 6)) for L in lengths]
        a = DaggerSeries(ring, n1, {n1.element((L,)): ring.pi(m - 1)
                                    for L, m in points}, 11)
        assert best_certificate(a).vertices == ref_hull(points)


def test_invalid_constants_still_rejected():
    ring = make_ring("padic", 5, 10)
    a = DaggerSeries.unit(ring, N2, 2)
    u = CrossedElem.monomial(ring, N2, 0, a, 2)
    for c in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            certify(a, c)
        with pytest.raises(ValueError):
            crossed_certify(u, c)


# -- the intended difference --

def test_crossed_mul_keeps_cancellation_flag():
    """At n = 0 the summands arrive as 1, -1, 3 from three (p, q) pairs.
    A scalar sum, or one ``mul``, flags the result; ``crossed_mul`` now does
    too, where the reference's pruned rebuild dropped the flag."""
    ring = make_ring("padic", 5, 10)
    n1 = MonoidDescriptor("N", 1)
    trivial = AffineAction(MatrixV.identity(ring, 1), [ring.zero()])

    def const(x):
        return DaggerSeries(ring, n1, {n1.identity(): ring.scalar(x)}, 2)

    u = CrossedElem(ring, n1, {0: const(1), 1: const(1), -1: const(3)}, 2, 2)
    v = CrossedElem(ring, n1, {0: const(1), -1: const(-1), 1: const(1)}, 2, 2)
    scalar_sum = ring.scalar(1) + ring.scalar(-1) + ring.scalar(3)
    assert scalar_sum.lossy
    x = crossed_mul(u, v, trivial).coefficient(0).coefficient(n1.identity())
    assert x == ring.scalar(3)
    assert x.lossy
    y = ref_crossed_mul(u, v, trivial).coefficient(0).coefficient(
        n1.identity())
    assert y == ring.scalar(3) and not y.lossy
    # the same three summands, in the same order, inside one series product
    z1 = MonoidDescriptor("Z", 1)

    def poly(coeffs):
        return DaggerSeries(ring, z1, {z1.element((e,)): ring.scalar(x)
                                       for e, x in coeffs.items()}, 3)

    z = mul(poly({0: 1, 1: 1, 2: 3}), poly({1: 1, 0: -1, -1: 1})).coefficient(
        z1.element((1,)))
    assert z == ring.scalar(3) and z.lossy
