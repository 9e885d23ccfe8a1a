"""Crossed products of truncated polynomial algebras by affine actions of Z.

The action generator is the substitution f(x) |-> f(a x + b); its n-th
power is memoised through the affine pair (a^n, (a^(n-1) + ... + 1) b)
computed by repeated squaring, so act(n, .) costs one substitution for any
n.  The powers of each substituted line are links of memoised chains the
action keeps while it lives (``chains.link``), so repeated substitutions
under one action multiply out each power once.  Substitution never raises
total degree, so no truncation occurs inside the action.

Crossed elements are finitely supported maps n -> series over N^k with a
support cap |n| <= Dz; multiplication follows
(a_p delta_p)(b_q delta_q) = a_p alpha_p(b_q) delta_(p+q) and certificates
over the combined length |n| + |m| compose as (min c, k1 + k2 + 1).
Coefficients are summed only through ``series._add_term``, in ``act`` as in
``crossed_mul``, and certificates use the rules of ``series``.
"""

from __future__ import annotations

from . import chains
from .linalg import Lattice, MatrixV
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
        self._pairs: dict[int, tuple[MatrixV, list]] = {
            0: (MatrixV.identity(self.ring, self.k),
                [self.ring.zero()] * self.k),
            1: (self.a, self.b),
            -1: (self.a_inv, self.b_inv),
        }

    def _compose(self, first, second):
        """Affine pair of x |-> second(first(x))."""
        m1, v1 = first
        m2, v2 = second
        return m2 * m1, [x + y for x, y in zip(m2.apply(v1), v2)]

    def pair(self, n: int):
        """Memoised affine pair of the n-th power, by binary decomposition."""
        if n in self._pairs:
            return self._pairs[n]
        half = self.pair(n // 2) if n > 0 else self.pair(-((-n) // 2))
        out = self._compose(half, half)
        if n % 2:
            out = self._compose(out, self._pairs[1 if n > 0 else -1])
        self._pairs[n] = out
        return out

    def __call__(self, n: int, f: DaggerSeries) -> DaggerSeries:
        return act(self, n, f)


def _substitute(alpha: AffineAction, n: int,
                f: DaggerSeries) -> DaggerSeries:
    """f(a x + b) for the affine pair (a, b) of alpha's n-th power, with
    exact series products.  The powers of each substituted line are links
    of chains alpha keeps while it lives, one per n, cap and coordinate."""
    ring, monoid, k, cap = alpha.ring, alpha.monoid, alpha.k, f.degree_cap
    matrix, shift = alpha.pair(n)
    # line j is shift_j + sum_i matrix[j, i] x_i (DaggerSeries drops zeros)
    basis = [monoid.identity(), *monoid.generators()]
    lines = [DaggerSeries(ring, monoid, dict(zip(
        basis, [shift[j]] + [matrix[j, i] for i in range(k)])), cap)
        for j in range(k)]

    def power(j, e):
        return chains.link(alpha, (n, cap, j), (),
                           lambda: DaggerSeries.unit(ring, monoid, cap),
                           lambda p: series_mul(p, lines[j]), e)

    acc = {}
    for s, x in f.terms.items():
        term = None
        for j, e in enumerate(s.data):
            if e == 0:
                continue
            p = power(j, e)
            term = p if term is None else series_mul(term, p)
        if term is None:
            _add_term(acc, monoid.identity(), x)
        else:
            for t, y in term.terms.items():
                _add_term(acc, t, x * y)
    return DaggerSeries(ring, monoid, acc, cap)


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
        return ((abs(n) + s.length, x.valuation)
                for n, series in self.terms.items()
                for s, x in series.terms.items())

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
    for p, a_p in u.terms.items():
        for q, b_q in v.terms.items():
            n = p + q
            if abs(n) > cap:
                dropped = True
                continue
            coefficient = series_mul(a_p, act(alpha, p, b_q))
            terms = sums.setdefault(n, {})
            for s, x in coefficient.terms.items():
                _add_term(terms, s, x)
            if coefficient.truncated:
                truncated_at.add(n)
    out = {n: DaggerSeries(u.ring, u.monoid, terms, u.degree_cap,
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
