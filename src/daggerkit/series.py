"""Truncated twisted monoid series with overconvergence certificates.

A series is a finitely supported coefficient map on a finitely generated
monoid, truncated at a degree cap D and at the ring precision N.  A growth
certificate (c, k) asserts nu(x_s) + 1 + k >= c * l(s) for every stored
term; c is an exact rational and k an integer offset.  Products combine
certificates as (min(c1, c2), k1 + k2 + 1), which is sound because
nu(x_s y_t) + 1 >= c * l(s t) - 1 - k1 - k2 termwise and the ultrametric
inequality preserves the bound under coefficient summation.

Everything is scoped to the truncation (D, N): products drop terms above
the cap and set a truncation flag instead of failing.

Stored form: ``DaggerSeries.raw`` maps the key of each term's index (its
monoid's ``Packing`` at the cap D: an int of fixed-width exponent fields,
or the word of a free monoid) to the coefficient's (v, u, lossy) triple,
and holds no zero.  ``terms`` (MonoidElem -> ScalarElem) is a view built on
first read.  ``mul``, ``add_scale``, ``certify`` and the rest run on the
keys and triples, with the ring's scalar rules (``ring._scalar_rules``);
``_add_term`` is the one place where coefficients of a series or crossed
product are summed, so a coefficient whose summands cancelled is ``lossy``.
A product of keys is ``monoid.compose`` and each term pair's cocycle value
is the cocycle's ``value`` on the keys; a value of exactly 1 is not
multiplied in.  Two one-term factors (most products: torus monomials and
chain steps) skip the accumulator and test only the length of their one
product.  Beyond its terms, a call pays a small fixed cost: ``_of`` takes
the packing its caller already holds, ``mul`` passes factors with the same
ring and packing (so the same monoid and cap) on identity tests alone and
reads the ring's 1 kept on the ring, and two series with equal raw dicts
are equal after one dict comparison, with no triple windowed.  Powers are
left-to-right chains 1, 1 * x, (1 * x) * x, ... (``chains.link``).
``torus_monomial`` reads the powers of U1 and U2 off chains the cocycle
keeps while it lives, where a link already made costs one dict read and
two identity tests; the products are the ones repeated multiplication
makes, so the results are the same, but a cocycle must not change once it
has been used.  ``series_pow`` keeps nothing.
"""

from __future__ import annotations

from fractions import Fraction

from . import chains
from .monoid import (BicharacterCocycle, Cocycle, MonoidDescriptor,
                     MonoidElem, TrivialCocycle, compose)
from .ring import INFINITY, RingDescriptor, ScalarElem


def _add_term(terms: dict, key, x, plus) -> None:
    """terms[key] += x on (v, u, lossy) triples, an absent key read as
    zero, by the ring rule ``plus``.  A cancelled sum stays as a flagged
    zero for the next summand; ``DaggerSeries._of`` prunes it."""
    acc = terms.get(key)
    terms[key] = x if acc is None else plus(acc, x)


def _minimal_offset(c, points) -> int:
    """Least k >= 0 with v + 1 + k >= c * L for every (L, v) in points."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("growth constant c must be positive")
    # with c = n / d and d > 0, max(c L - v - 1) = max(n L - d (v + 1)) / d
    n, d = c.numerator, c.denominator
    worst = max((n * L - d * (v + 1) for L, v in points), default=0)
    return max(0, -(-worst // d))


def _lower_hull(points) -> list:
    """Vertices of the lower convex hull of points sorted by abscissa."""
    hull: list = []
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


class GrowthCertificate:
    """Asserts nu(x_s) + 1 + k >= c * l(s) on all stored terms."""

    __slots__ = ("c", "k")

    def __init__(self, c, k: int):
        c = Fraction(c)
        if c <= 0:
            raise ValueError("growth constant c must be positive")
        if k < 0:
            raise ValueError("offset k must be nonnegative")
        self.c = c
        self.k = int(k)

    def __eq__(self, other):
        return (isinstance(other, GrowthCertificate)
                and (self.c, self.k) == (other.c, other.k))

    def __repr__(self):
        return f"GrowthCertificate(c={self.c}, k={self.k})"

    def admits(self, length: int, valuation) -> bool:
        return valuation + 1 + self.k >= self.c * length


def _product_certificate(a, b) -> GrowthCertificate | None:
    """(min(c1, c2), k1 + k2 + 1), or None unless both factors have one."""
    if a is None or b is None:
        return None
    return GrowthCertificate(min(a.c, b.c), a.k + b.k + 1)


class DaggerSeries:
    """Finitely supported map MonoidElem -> ScalarElem at truncation (D, N),
    stored as ``raw``: key -> (v, u, lossy) under ``packing``, the keys of
    the monoid at the cap D."""

    __slots__ = ("ring", "monoid", "packing", "raw", "degree_cap",
                 "certificate", "truncated", "_terms")

    def __init__(self, ring: RingDescriptor, monoid: MonoidDescriptor,
                 terms, degree_cap: int,
                 certificate: GrowthCertificate | None = None,
                 truncated: bool = False):
        packing = monoid.packing(degree_cap)
        key = packing.key
        clean, raw = {}, {}
        for s, x in terms.items():
            if x.is_zero:
                continue
            if s.descriptor is not monoid and s.descriptor != monoid:
                raise ValueError("term index from the wrong monoid")
            if x.ring is not ring and x.ring != ring:
                raise ValueError("coefficient from the wrong ring")
            if s.length > degree_cap:
                raise ValueError(
                    f"term of length {s.length} above the degree cap "
                    f"{degree_cap}")
            clean[s] = x
            raw[key(s.data)] = (x.v, x.u, x.lossy)
        self.ring, self.monoid, self.packing, self.raw = \
            ring, monoid, packing, raw
        self.degree_cap, self.truncated, self.certificate, self._terms = \
            degree_cap, truncated, None, clean
        if certificate is not None:
            self._certify(certificate)

    def _certify(self, certificate: GrowthCertificate) -> None:
        """Keep certificate, which must hold on every stored term."""
        if _minimal_offset(certificate.c, self._points()) > certificate.k:
            bad = [s for s, x in self.terms.items()
                   if not certificate.admits(s.length, x.valuation)]
            raise ValueError(
                f"certificate {certificate!r} fails on stored terms {bad}")
        self.certificate = certificate

    @classmethod
    def _of(cls, ring, monoid, raw: dict, packing,
            certificate: GrowthCertificate | None = None,
            truncated: bool = False) -> "DaggerSeries":
        """A series on raw, a dict of triples keyed by ``packing``, the
        monoid's packing at the series' cap, which the caller holds already
        (so a call makes no lookup); its zeros (v = inf) are removed in
        place."""
        for x in raw.values():  # a list of keys only when there is a zero
            if x[0] == INFINITY:
                for key in [k for k, y in raw.items() if y[0] == INFINITY]:
                    del raw[key]
                break
        a = object.__new__(cls)
        a.ring, a.monoid, a.packing, a.raw = ring, monoid, packing, raw
        a.degree_cap, a.truncated, a.certificate, a._terms = \
            packing.cap, truncated, None, None
        if certificate is not None:
            a._certify(certificate)
        return a

    # -- constructors --

    @classmethod
    def zero(cls, ring, monoid, degree_cap,
             certificate: GrowthCertificate | None = None) -> "DaggerSeries":
        return cls(ring, monoid, {}, degree_cap, certificate)

    @classmethod
    def delta(cls, ring, monoid, s: MonoidElem, degree_cap,
              coefficient: ScalarElem | None = None) -> "DaggerSeries":
        """The basis series delta_s, optionally scaled; unscaled, it builds
        no scalar (``_basis`` raises what ``__init__`` would)."""
        if coefficient is None and (s.descriptor is monoid
                                    or s.descriptor == monoid):
            return cls._basis(ring, monoid, s.data, s.length, degree_cap)
        x = ring.one() if coefficient is None else coefficient
        return cls(ring, monoid, {s: x}, degree_cap)

    @classmethod
    def unit(cls, ring, monoid, degree_cap) -> "DaggerSeries":
        p = monoid.packing(degree_cap)
        return cls._of(ring, monoid, {p.identity: (0, ring._one, False)}, p)

    @classmethod
    def _basis(cls, ring, monoid, data, length, degree_cap) -> "DaggerSeries":
        """delta_s for the element s of monoid with valid data and length,
        keyed through the packing with no element or scalar built."""
        p = monoid.packing(degree_cap)
        if length > degree_cap:
            raise ValueError(f"term of length {length} above the degree cap "
                             f"{degree_cap}")
        return cls._of(ring, monoid, {p.key(data): (0, ring._one, False)}, p)

    # -- queries --

    @property
    def terms(self) -> dict:
        """The terms as MonoidElem -> ScalarElem, built on first read."""
        if self._terms is None:
            ring, monoid, p = self.ring, self.monoid, self.packing
            self._terms = {
                MonoidElem._of(monoid, p.data(key), p.length(key)):
                ScalarElem(ring, *x) for key, x in self.raw.items()}
        return self._terms

    def _points(self):
        """(l(s), nu(x_s)) for every stored term."""
        length = self.packing.length
        return ((length(key), x[0]) for key, x in self.raw.items())

    @property
    def is_zero(self) -> bool:
        return not self.raw

    def coefficient(self, s: MonoidElem) -> ScalarElem:
        return self.terms.get(s, self.ring.zero())

    def support(self):
        return sorted(self.terms, key=lambda s: (s.length, s.data))

    def max_length(self) -> int:
        return max(map(self.packing.length, self.raw), default=0)

    def __eq__(self, other):
        """Coefficientwise equality at the truncation (``RingDescriptor.seen``
        on the triples); certificates and flags are metadata and do not
        participate.  Equal raw dicts are equal at once; otherwise only the
        triples whose v or u differ are windowed."""
        if not isinstance(other, DaggerSeries):
            return NotImplemented
        if (self.ring is not other.ring or self.packing is not other.packing) \
                and (self.ring, self.monoid, self.degree_cap) != \
                (other.ring, other.monoid, other.degree_cap):
            return False
        mine, theirs = self.raw, other.raw
        if mine == theirs:  # equal triples agree in every window
            return True
        seen = self.ring.seen
        for key, x in mine.items():
            y = theirs.get(key, _ZERO)
            if x[:2] != y[:2] and seen(x) != seen(y):
                return False
        for key, y in theirs.items():
            if key not in mine and seen(y) is not None:
                return False
        return True

    def __repr__(self):
        if self.is_zero:
            return "DaggerSeries(0)"
        parts = [f"{x!r}*d{s.data!r}" for s, x in
                 sorted(self.terms.items(), key=lambda kv: (kv[0].length,
                                                            str(kv[0].data)))]
        return "DaggerSeries(" + " + ".join(parts) + ")"

    def _compat(self, other: "DaggerSeries"):
        if (self.ring is not other.ring and self.ring != other.ring) or \
                (self.monoid is not other.monoid
                 and self.monoid != other.monoid):
            raise ValueError("series descriptor mismatch")
        if self.degree_cap != other.degree_cap:
            raise ValueError("degree cap mismatch")


_ZERO = (INFINITY, None, False)


def _by_elements(cocycle: Cocycle, monoid: MonoidDescriptor):
    """The value of a cocycle that takes elements only (``keyed`` False) as
    a function of two keys and their packing."""
    def value(s, t, p):
        return cocycle.value(MonoidElem._of(monoid, p.data(s), p.length(s)),
                             MonoidElem._of(monoid, p.data(t), p.length(t)))
    return value


def mul(a: DaggerSeries, b: DaggerSeries,
        cocycle: Cocycle | None = None) -> DaggerSeries:
    """Twisted convolution: coefficient of u is the sum over s t = u of
    x_s y_t c(s, t), truncated to lengths <= D with a flag on drops.  Two
    one-term factors make their one term with no accumulator."""
    ring, packing = a.ring, a.packing
    # a packing belongs to one monoid at one cap, so identical rings and
    # packings need no further test
    if ring is not b.ring or packing is not b.packing:
        a._compat(b)
    if cocycle is None:
        # kept on the ring: a module-level cache would keep rings alive
        cocycle = getattr(ring, "_trivial", None)
        if cocycle is None:
            cocycle = ring._trivial = TrivialCocycle(ring)
    value = cocycle.value if cocycle.keyed else \
        _by_elements(cocycle, a.monoid)
    times, one, length, cap = ring._times, ring._one, packing.length, \
        packing.cap
    out: dict = {}
    if len(a.raw) == 1 == len(b.raw):
        (s, x), = a.raw.items()
        (t, y), = b.raw.items()
        u = compose(packing.lead(s), t)
        # the test the loop below short-cuts: l(s t) <= l(s) + l(t)
        dropped = length(u) > cap
        if not dropped:
            xy = times(x, y)
            c = value(s, t, packing)
            if c.v or c.u != one or c.lossy:
                xy = times(xy, (c.v, c.u, c.lossy))
            out[u] = xy
    else:
        plus, additive = ring._plus, packing.additive
        right = [(t, y, length(t)) for t, y in b.raw.items()]
        dropped = False
        for s, x in a.raw.items():
            ls, lead = length(s), packing.lead(s)
            for t, y, lt in right:
                u = compose(lead, t)
                # l(s t) <= l(s) + l(t), with equality unless on Z^k
                if ls + lt > cap and (additive or length(u) > cap):
                    dropped = True
                    continue
                xy = times(x, y)
                c = value(s, t, packing)
                if c.v or c.u != one or c.lossy:
                    xy = times(xy, (c.v, c.u, c.lossy))
                _add_term(out, u, xy, plus)
    return DaggerSeries._of(ring, a.monoid, out, packing,
                            _product_certificate(a.certificate,
                                                 b.certificate),
                            truncated=dropped or a.truncated or b.truncated)


def add_scale(a: DaggerSeries, b: DaggerSeries,
              s: ScalarElem) -> DaggerSeries:
    """a + s*b with zero pruning; certificates combine componentwise
    (min c, worst offset adjusted by nu(s))."""
    a._compat(b)
    if s.ring != a.ring:
        raise ValueError("scalar from the wrong ring")
    out = dict(a.raw)
    if not s.is_zero:
        plus, times, scale = a.ring._plus, a.ring._times, (s.v, s.u, s.lossy)
        for t, y in b.raw.items():
            _add_term(out, t, times(scale, y), plus)
    cert = _sum_certificate(a, b, s)
    return DaggerSeries._of(a.ring, a.monoid, out, a.packing, cert,
                            truncated=a.truncated or b.truncated)


def _sum_certificate(a, b, s):
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


def certify(a: DaggerSeries, c) -> tuple[bool, int]:
    """Minimal offset k with nu(x_s) + 1 + k >= c * l(s) over all stored
    terms, and whether the paper-style condition (k = 0) holds.  Scoped to
    the truncation (D, N)."""
    k = _minimal_offset(c, a._points())
    return k == 0, k


class CertificateEnvelope:
    """Exact lower convex envelope of the points (l(s), nu(x_s) + 1).

    The minimal certificate offset for any growth constant c is read off
    the envelope vertices: k(c) = max(0, ceil(max_i c*L_i - m_i)).  Used as
    the brute-force oracle for certificate soundness.
    """

    def __init__(self, vertices):
        self.vertices = list(vertices)

    def minimal_offset(self, c) -> int:
        c = Fraction(c)
        if c <= 0:
            raise ValueError("growth constant c must be positive")
        worst = max((c * L - m for L, m in self.vertices),
                    default=Fraction(0))
        return max(0, -((-worst.numerator) // worst.denominator))

    def admits(self, cert: GrowthCertificate) -> bool:
        return cert.k >= self.minimal_offset(cert.c)


def best_certificate(a: DaggerSeries) -> CertificateEnvelope:
    """Lower convex hull of the constraint points of a nonzero series."""
    if a.is_zero:
        raise ValueError("the zero series has no certificate envelope")
    by_length: dict[int, int] = {}
    for length, v in a._points():
        m = by_length.get(length)
        if m is None or v + 1 < m:
            by_length[length] = v + 1
    return CertificateEnvelope(_lower_hull(sorted(by_length.items())))


def membership_filtration(a: DaggerSeries, n: int) -> bool:
    """Does every stored term satisfy nu(x_s) + 1 >= l(s) / n?"""
    if n < 1:
        raise ValueError("filtration index must be positive")
    return all((v + 1) * n >= length for length, v in a._points())


def series_pow(x: DaggerSeries, n: int, cocycle: Cocycle | None = None,
               inverse: DaggerSeries | None = None) -> DaggerSeries:
    """n-th twisted power ((1 * x) * x) * ..., made afresh on every call;
    negative n needs an explicit inverse element."""
    if n < 0:
        if inverse is None:
            raise ValueError("negative power needs an inverse element")
        return series_pow(inverse, -n, cocycle)
    return chains.link(
        None, None, (),
        lambda: DaggerSeries.unit(x.ring, x.monoid, x.degree_cap),
        lambda p: mul(p, x, cocycle), n)


def nc_torus(ring: RingDescriptor, lam: ScalarElem, degree_cap: int):
    """The twisted Z^2 convolution algebra with c(s, t) = lambda^(s2 t1).

    Returns (U1, U2, cocycle, monoid) where U1, U2 are the two generating
    basis series; they satisfy U2 U1 = lambda U1 U2.
    """
    monoid = MonoidDescriptor("Z", 2)
    cocycle = BicharacterCocycle(lam, [[0, 0], [1, 0]])
    u1 = DaggerSeries.delta(ring, monoid, monoid.element((1, 0)), degree_cap)
    u2 = DaggerSeries.delta(ring, monoid, monoid.element((0, 1)), degree_cap)
    return u1, u2, cocycle, monoid


def torus_monomial(ring, monoid, cocycle, s1: int, s2: int,
                   degree_cap: int) -> DaggerSeries:
    """U1^s1 * U2^s2, where each factor is a left-to-right power of U_i or
    of its inverse, whichever the sign asks for.  The powers are links of
    chains the cocycle keeps while it lives, one per cap, generator and
    sign, so a table of monomials makes one product per monomial plus one
    per new link, and reads a link already made with one dict read and
    two identity tests (``chains.held``); a cocycle of None keeps none.
    The chains are read, not rebuilt, so a cocycle must not change once it
    has been used."""
    context = (ring, monoid)
    return mul(_torus_power(context, cocycle, degree_cap, 0, s1),
               _torus_power(context, cocycle, degree_cap, 1, s2), cocycle)


def _torus_power(context, cocycle, cap: int, axis: int, n: int):
    """U_axis^n: link |n| of the chain of U_axis, or of its inverse."""
    sign = 1 if n >= 0 else -1
    x = chains.held(cocycle, (cap, axis, sign), context, sign * n)
    if x is not None:
        return x
    ring, monoid = context
    return chains.link(
        cocycle, (cap, axis, sign), context,
        lambda: DaggerSeries.unit(ring, monoid, cap),
        lambda p, g: mul(p, g, cocycle), sign * n,
        lambda: DaggerSeries._basis(ring, monoid, *monoid.normal(
            (sign, 0) if axis == 0 else (0, sign)), cap))
