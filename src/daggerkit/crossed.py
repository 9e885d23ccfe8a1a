"""Crossed products of truncated polynomial algebras by affine actions of Z.

The action generator is the substitution f(x) |-> f(a x + b); its n-th
power is memoised through the affine pair (a^n, (a^(n-1) + ... + 1) b)
computed by repeated squaring on (v, u, lossy) triples, so act(n, .) costs
one substitution for any n.  Substitution never raises total degree, so no
truncation occurs inside the action.

What a substitution makes is kept on the action while it lives, for each
n and degree cap: the powers of each substituted line are links of chains
(``chains.link``, in the action's ``_chains``), and the image of each
monomial, the left-to-right product of the powers of its lines, is kept in
``_images`` by the monomial's key.  Repeated substitutions under one
action therefore multiply each power and each monomial out once, and an
action must not change once it has been used.

Crossed elements are finitely supported maps n -> series over N^k with a
support cap |n| <= Dz; multiplication follows
(a_p delta_p)(b_q delta_q) = a_p alpha_p(b_q) delta_(p+q) and certificates
over the combined length |n| + |m| compose as (min c, k1 + k2 + 1).
Coefficients are summed only through ``series._add_term`` on the series'
raw triples, in ``act`` as in ``crossed_mul``, and certificates use the
rules of ``series``.
"""

from __future__ import annotations

from . import chains
from .linalg import Lattice, MatrixV, _Kernel, _raw
from .monoid import MonoidDescriptor
from .ring import RingDescriptor
from .series import (DaggerSeries, GrowthCertificate, _add_term,
                     _minimal_offset, _product_certificate,
                     mul as series_mul)


class AffineAction:
    """x |-> a x + b with a in GL_k(V), b in V^k, acting on polynomials.

    Pass strict=False to probe substitutions whose matrix is invertible
    over K but not over V; such actions are legitimate inputs to the
    uniform-boundedness probe (and are exactly the ones it may reject).
    """

    def __init__(self, a: MatrixV, b, strict: bool = True):
        if a.rows != a.cols:
            raise ValueError("action matrix must be square")
        if len(b) != a.rows:
            raise ValueError("translation vector has wrong length")
        self.ring = a.ring
        self.k = a.rows
        det = a.det()
        if det.is_zero:
            raise ValueError("action matrix is singular at precision N")
        if strict:
            if a.min_valuation() < 0 or any(x.valuation < 0 for x in b):
                raise ValueError("affine data must lie in V")
            if det.valuation != 0:
                raise ValueError("action matrix must be invertible over V")
        self.a = a
        self.b = list(b)
        self.a_inv = a.inverse()
        # pair for the inverse map x |-> a^(-1) x - a^(-1) b
        self.b_inv = [-x for x in self.a_inv.apply(self.b)]
        self.monoid = MonoidDescriptor("N", self.k)
        self._pairs: dict[int, tuple[MatrixV, tuple]] = {
            0: (MatrixV.identity(self.ring, self.k),
                _raw(self.ring, [self.ring.zero()] * self.k)),
            1: (self.a, _raw(self.ring, self.b)),
            -1: (self.a_inv, _raw(self.ring, self.b_inv)),
        }
        # (n, cap) -> {monomial key: its image}
        self._images: dict[tuple[int, int], dict] = {}

    def _compose(self, first, second):
        """Affine pair of x |-> second(first(x))."""
        m1, v1 = first
        m2, v2 = second
        dot, plus = _Kernel.of(self.ring).dot, self.ring._plus
        return m2 * m1, tuple(plus(dot(row, v1), y)
                              for row, y in zip(m2.raw, v2))

    def pair(self, n: int):
        """Memoised affine pair of the n-th power, by binary decomposition:
        the matrix and the translation as (v, u, lossy) triples."""
        if n in self._pairs:
            return self._pairs[n]
        half = self.pair(n // 2) if n > 0 else self.pair(-((-n) // 2))
        out = self._compose(half, half)
        if n % 2:
            out = self._compose(out, self._pairs[1 if n > 0 else -1])
        self._pairs[n] = out
        return out


def _image(alpha: AffineAction, n: int, cap: int, data) -> DaggerSeries:
    """x^data substituted by alpha's n-th power at cap: the powers of each
    line in turn, multiplied left to right.  Line j is shift_j +
    sum_i matrix[j, i] x_i; its powers are links of a chain alpha keeps
    per n, cap and coordinate, which keeps the line too."""
    ring, monoid, packing = alpha.ring, alpha.monoid, alpha.monoid.packing(cap)

    def line(j):
        matrix, shift = alpha.pair(n)
        basis = [packing.identity] + [
            packing.key([int(i == c) for c in range(alpha.k)])
            for i in range(alpha.k)]
        return DaggerSeries._of(ring, monoid, dict(zip(
            basis, (shift[j], *matrix.raw[j]))), packing)

    term = None
    for j, e in enumerate(data):
        if e == 0:
            continue
        p = chains.link(alpha, (n, cap, j), (),
                        lambda: DaggerSeries.unit(ring, monoid, cap),
                        series_mul, e, lambda: line(j))
        term = p if term is None else series_mul(term, p)
    return term


def _substitute(alpha: AffineAction, n: int,
                f: DaggerSeries) -> DaggerSeries:
    """f(a x + b) for the affine pair (a, b) of alpha's n-th power, with
    exact series products.  The image of each monomial of f is made once
    per n and cap and kept on alpha."""
    ring, cap, packing = alpha.ring, f.degree_cap, f.packing
    images = alpha._images.setdefault((n, cap), {})
    plus, times = ring._plus, ring._times
    acc: dict = {}
    for s, x in f.raw.items():
        if s == packing.identity:
            _add_term(acc, s, x, plus)
            continue
        image = images.get(s)
        if image is None:
            image = images[s] = _image(alpha, n, cap, packing.data(s))
        for t, y in image.raw.items():
            _add_term(acc, t, times(x, y), plus)
    return DaggerSeries._of(ring, alpha.monoid, acc,
                            alpha.monoid.packing(cap))


def act(alpha: AffineAction, n: int, f: DaggerSeries) -> DaggerSeries:
    """Apply the n-th power of the action to a series over N^k.

    Total degree never increases, so the result carries no truncation flag
    of its own.
    """
    if f.monoid != alpha.monoid:
        raise ValueError("series monoid does not match the action")
    if f.ring != alpha.ring:
        raise ValueError("ring descriptor mismatch")
    if n == 0 or f.is_zero:
        return f
    return _substitute(alpha, n, f)


class CrossedElem:
    """Finitely supported map Z -> DaggerSeries over N^k, support |n| <= Dz.

    An optional certificate (c, k) asserts nu(a_{n,m}) + 1 + k >= c(|n|+|m|)
    on every stored coefficient.
    """

    __slots__ = ("ring", "monoid", "terms", "z_cap", "degree_cap",
                 "certificate", "truncated")

    def __init__(self, ring: RingDescriptor, monoid: MonoidDescriptor,
                 terms, z_cap: int, degree_cap: int,
                 certificate: GrowthCertificate | None = None,
                 truncated: bool = False):
        clean = {}
        for n, series in terms.items():
            if series.is_zero:
                continue
            if abs(n) > z_cap:
                raise ValueError(f"support point {n} above the cap {z_cap}")
            if series.ring != ring or series.monoid != monoid:
                raise ValueError("inner series descriptor mismatch")
            if series.degree_cap != degree_cap:
                raise ValueError("inner series degree cap mismatch")
            clean[int(n)] = series
            truncated = truncated or series.truncated
        self.ring = ring
        self.monoid = monoid
        self.terms = clean
        self.z_cap = z_cap
        self.degree_cap = degree_cap
        self.truncated = truncated
        if certificate is not None:
            if _minimal_offset(certificate.c, self._points()) > \
                    certificate.k:
                raise ValueError(
                    f"certificate {certificate!r} fails on stored terms")
        self.certificate = certificate

    @classmethod
    def zero(cls, ring, monoid, z_cap, degree_cap) -> "CrossedElem":
        return cls(ring, monoid, {}, z_cap, degree_cap)

    @classmethod
    def monomial(cls, ring, monoid, n: int, series: DaggerSeries,
                 z_cap: int) -> "CrossedElem":
        return cls(ring, monoid, {n: series}, z_cap, series.degree_cap)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, n: int) -> DaggerSeries:
        return self.terms.get(n,
                              DaggerSeries.zero(self.ring, self.monoid,
                                                self.degree_cap))

    def support(self):
        return sorted(self.terms)

    def _points(self):
        """(|n| + |m|, nu(a_{n,m})) for every stored coefficient."""
        return ((abs(n) + length, v) for n, series in self.terms.items()
                for length, v in series._points())

    def __eq__(self, other):
        """Coefficientwise equality; certificates and flags are metadata."""
        if not isinstance(other, CrossedElem):
            return NotImplemented
        if (self.ring, self.monoid, self.z_cap, self.degree_cap) != \
                (other.ring, other.monoid, other.z_cap, other.degree_cap):
            return False
        keys = set(self.terms) | set(other.terms)
        return all(self.coefficient(n) == other.coefficient(n) for n in keys)

    def __repr__(self):
        parts = [f"({series!r})*d[{n}]" for n, series in
                 sorted(self.terms.items())]
        return "CrossedElem(" + (" + ".join(parts) or "0") + ")"


def crossed_mul(u: CrossedElem, v: CrossedElem, alpha: AffineAction,
                z_cap: int | None = None) -> CrossedElem:
    """(sum a_p delta_p)(sum b_q delta_q) = sum a_p alpha_p(b_q) delta_(p+q),
    truncated to |n| <= Dz with a flag.  Dz is ``z_cap`` when given, else
    the factors' support cap."""
    if (u.ring, u.monoid, u.z_cap, u.degree_cap) != \
            (v.ring, v.monoid, v.z_cap, v.degree_cap):
        raise ValueError("crossed element descriptor mismatch")
    cap = u.z_cap if z_cap is None else z_cap
    if cap < 0:
        raise ValueError("support cap must be at least 0")
    # one term dict per support point, and the points whose sum truncated
    sums: dict[int, dict] = {}
    truncated_at = set()
    dropped = False
    plus, packing = u.ring._plus, u.monoid.packing(u.degree_cap)
    for p, a_p in u.terms.items():
        for q, b_q in v.terms.items():
            n = p + q
            if abs(n) > cap:
                dropped = True
                continue
            coefficient = series_mul(a_p, act(alpha, p, b_q))
            terms = sums.setdefault(n, {})
            for s, x in coefficient.raw.items():
                _add_term(terms, s, x, plus)
            if coefficient.truncated:
                truncated_at.add(n)
    out = {n: DaggerSeries._of(u.ring, u.monoid, terms, packing,
                               truncated=n in truncated_at)
           for n, terms in sums.items()}
    return CrossedElem(u.ring, u.monoid, out, cap, u.degree_cap,
                       _product_certificate(u.certificate, v.certificate),
                       truncated=dropped or u.truncated or v.truncated)


def crossed_certify(u: CrossedElem, c) -> tuple[bool, int]:
    """Minimal k with nu(a_{n,m}) + 1 + k >= c(|n| + |m|) over all stored
    coefficients; scoped to the caps (Dz, D, N)."""
    k = _minimal_offset(c, u._points())
    return k == 0, k


class BoundednessReport:
    """Verdict of the uniform-boundedness probe.

    On stabilisation the invariant lattice T satisfies both
    alpha_1(T) inside T and alpha_(-1)(T) inside T; for the invertible
    actions probed here the two inclusions together verify the equality
    alpha_n(T) = T, recorded in ``condition_verified``.
    """

    def __init__(self, verdict, lattice=None, gauges=None, steps=0):
        self.verdict = verdict
        self.lattice = lattice
        self.gauges = gauges or []
        self.steps = steps
        self.condition_verified = ("alpha(T) = T via inclusions both ways"
                                   if verdict == "stabilized" else None)

    def __repr__(self):
        return f"BoundednessReport({self.verdict}, steps={self.steps})"


def uniform_boundedness_probe(alpha: AffineAction, U: Lattice,
                              ctx, depth: int = 8) -> BoundednessReport:
    """Iterate T <- T + alpha_1(T) + alpha_(-1)(T) with reduction.

    "stabilized" returns the invariant lattice T containing U; "diverging"
    reports gauge exponents strictly decreasing over half the depth;
    otherwise "inconclusive".
    """
    from .spectral import lattice_elements, lattice_from_elements

    if depth < 1:
        raise ValueError("depth must be at least 1")
    if U.is_zero:
        return BoundednessReport("stabilized", U, [U.gauge_exponent()], 0)
    T = U
    gauges = [T.gauge_exponent()]
    decrease_window = -(-depth // 2)
    decreasing = 0
    for step in range(1, depth + 1):
        gens = lattice_elements(ctx, T)
        images = [act(alpha, 1, g) for g in gens]
        images += [act(alpha, -1, g) for g in gens]
        nxt = T.sum(lattice_from_elements(ctx, images))
        gauges.append(nxt.gauge_exponent())
        if nxt == T:
            return BoundednessReport("stabilized", T, gauges, step)
        if gauges[-1] < gauges[-2]:
            decreasing += 1
        else:
            decreasing = 0
        if decreasing >= decrease_window:
            return BoundednessReport("diverging", None, gauges, step)
        T = nxt
    return BoundednessReport("inconclusive", None, gauges, depth)


def shift_action(ring: RingDescriptor, k: int = 1) -> AffineAction:
    """The translation action f(x) |-> f(x + 1) on each coordinate."""
    return AffineAction(MatrixV.identity(ring, k), [ring.one()] * k)
