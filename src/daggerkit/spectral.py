"""Gauge norms, truncated spectral radii, linear-growth closures and
semi-dagger probes for finitely generated lattices in algebras over K.

All radii are reported as exact rational exponents of eps = |pi| (never as
decimals): an exponent t stands for the radius eps^t, so smaller radii have
larger exponents and rho >= 1 exactly when the exponent is <= 0.

Lattice powers are computed by pairwise generator products with immediate
Hermite reduction at every step, which keeps generator counts small and is
exact at precision N.  Generators travel as coordinate vectors of
(v, u, lossy) triples: each algebra context's ``_products`` multiplies two
lists of them, and ``Lattice.from_columns`` reduces the result.
``rho1_estimate``, ``lgb_closure`` and ``semi_dagger_probe`` read S^n off
one memoised chain S, S^2, ... kept on S while it lives (``chains.link``),
so a query that asks all three builds each power once; the probe reads
(pi^m S^j)^l as pi^(ml) S^(jl) wherever the context is ``associative``,
and the closure builds no power past its first stable step.
"""

from __future__ import annotations

from fractions import Fraction

from . import chains
from .linalg import Lattice, MatrixV, _Kernel, _raw, _sparse
from .monoid import MonoidDescriptor
from .ring import INFINITY, PrecisionExhausted, RingDescriptor, ScalarElem
from .series import DaggerSeries, _lower_hull, mul as series_mul


class MatrixAlgebraContext:
    """d x d matrices over K, coordinatised by their entries."""

    associative = True

    def __init__(self, ring: RingDescriptor, d: int):
        if d < 1:
            raise ValueError("d must be at least 1")
        self.ring = ring
        self.d = d
        self.dim = d * d

    def _vector(self, a: MatrixV) -> list:
        """The entries of a, row by row, as (v, u, lossy) triples."""
        if a.ring is not self.ring and a.ring != self.ring:
            raise ValueError("ring descriptor mismatch")
        return [x for row in a.raw[:self.d] for x in row[:self.d]]

    def to_vector(self, a: MatrixV):
        return [ScalarElem(self.ring, *x) for x in self._vector(a)]

    def from_vector(self, vec) -> MatrixV:
        it = iter(vec)
        return MatrixV(self.ring,
                       [[next(it) for _ in range(self.d)]
                        for _ in range(self.d)])

    def _products(self, xs, ys):
        """Vectors of a * b for a in xs, then b in ys, all vectors of
        triples; the product visits only the nonzero pairs of the factors,
        each cut into sparse rows once per call."""
        d, product = self.d, _Kernel.of(self.ring).product
        left, right = ([_sparse(x[i:i + d] for i in range(0, self.dim, d))
                        for x in vs] for vs in (xs, ys))
        return [[x for row in product(a, b, d) for x in row]
                for a in left for b in right]

    def __repr__(self):
        return f"MatrixAlgebraContext(d={self.d})"


class SeriesAlgebraContext:
    """Truncated monoid series with lengths <= D; products drop overflow.

    For N^1 this is V[x] truncated at degree D: monomials above the cap
    multiply to zero.
    """

    def __init__(self, ring: RingDescriptor, monoid: MonoidDescriptor,
                 degree_cap: int, cocycle=None):
        self.ring = ring
        self.monoid = monoid
        self.degree_cap = degree_cap
        self.cocycle = cocycle
        self.basis = monoid.elements_up_to_length(degree_cap)
        self.dim = len(self.basis)
        self._packing = monoid.packing(degree_cap)
        key = self._packing.key
        self._keys = [key(s.data) for s in self.basis]
        self._slots = {k: i for i, k in enumerate(self._keys)}

    @property
    def associative(self) -> bool:
        """No cocycle, and lengths add (N^k): overflow terms form an ideal."""
        return (self.cocycle is None
                and self._packing.additive)

    def _vector(self, a: DaggerSeries) -> list:
        """The coordinates of a as (v, u, lossy) triples."""
        if a.ring != self.ring or a.monoid != self.monoid or \
                a.max_length() > self.degree_cap:
            raise ValueError(f"series outside {self!r} over {self.ring!r}")
        vec = [(INFINITY, None, False)] * self.dim
        slots, raw = self._slots, a.raw
        if a.degree_cap != self.degree_cap:
            # a's keys have fields of another width
            key, data = self._packing.key, a.packing.data
            raw = {key(data(s)): x for s, x in raw.items()}
        for s, x in raw.items():
            vec[slots[s]] = x
        return vec

    def to_vector(self, a: DaggerSeries):
        return [ScalarElem(self.ring, *x) for x in self._vector(a)]

    def from_vector(self, vec) -> DaggerSeries:
        """The series with coordinates vec, of ScalarElem or triples."""
        return DaggerSeries._of(self.ring, self.monoid, dict(zip(
            self._keys, _raw(self.ring, vec))), self._packing)

    def product(self, a: DaggerSeries, b: DaggerSeries) -> DaggerSeries:
        return series_mul(a, b, self.cocycle)

    def _products(self, xs, ys):
        """Vectors of a * b for a in xs, then b in ys, all vectors of
        triples; the products are taken on the series' raw triples."""
        left = [self.from_vector(x) for x in xs]
        right = [self.from_vector(y) for y in ys]
        return [self._vector(self.product(a, b)) for a in left for b in right]

    def __repr__(self):
        return (f"SeriesAlgebraContext({self.monoid!r}, "
                f"D={self.degree_cap})")


def lattice_from_elements(ctx, elements) -> Lattice:
    return Lattice.from_columns(ctx.ring, ctx.dim,
                                [ctx._vector(a) for a in elements])


def lattice_elements(ctx, L: Lattice):
    return [ctx.from_vector(v) for v in L.generator_triples()]


def _generators(ctx, L: Lattice):
    """L's generator triples, once L is checked to lie in ctx's K^dim."""
    if L.ring is not ctx.ring and L.ring != ctx.ring:
        raise ValueError("ring descriptor mismatch")
    if L.ambient_rank != ctx.dim:
        raise ValueError("ambient rank mismatch")
    return L.generator_triples()


def lattice_product(ctx, L1: Lattice, L2: Lattice) -> Lattice:
    """Reduced span of pairwise products of generators."""
    return Lattice.from_columns(ctx.ring, ctx.dim, ctx._products(
        _generators(ctx, L1), _generators(ctx, L2)))


def _lattice_power(S: Lattice, ctx, n: int) -> Lattice:
    """S^n for n >= 1: link n - 1 of S's chain S, S^2, ... under ctx, each
    new power lattice_product(ctx, S^(k-1), S).  The chain lives on S
    (``chains.link``) for the last context asked; until S is collected it
    holds every power up to the largest n asked for
    (``rho1_estimate(S, ctx, n_max)`` keeps n_max - 1 lattices)."""
    return chains.link(S, None, (ctx,), lambda: S,
                       lambda P: lattice_product(ctx, P, S), n - 1)


def star_scale(t, L: Lattice) -> Lattice:
    """r * S for r = eps^t <= 1: multiply by pi^ceil(t)."""
    t = Fraction(t)
    if t < 0:
        raise ValueError("star scaling needs r <= 1, i.e. exponent t >= 0")
    return L.scale_by_pi(-(-t.numerator // t.denominator))


class RadiusReport:
    """Estimates nu_n / n of the spectral exponent and the truncated radius.

    rho_exponent is sup_n nu_n/n (Fekete superadditive limit, approached
    from below); the truncated radius is rho1 = eps^rho1_exponent with
    rho1_exponent = min(0, rho_exponent) <= 0.  A nilpotent lattice has
    rho_exponent = +inf and rho1_exponent = 0.
    """

    def __init__(self, exponent_estimates, rho_exponent, verdict):
        self.exponent_estimates = exponent_estimates
        self.rho_exponent = rho_exponent
        self.verdict = verdict

    @property
    def rho1_exponent(self):
        if self.rho_exponent == INFINITY:
            return Fraction(0)
        return min(Fraction(0), self.rho_exponent)

    def __repr__(self):
        return (f"RadiusReport(rho_exponent={self.rho_exponent}, "
                f"rho1_exponent={self.rho1_exponent}, {self.verdict})")


def rho1_estimate(S: Lattice, ctx, n_max: int) -> RadiusReport:
    """Gauge exponents of S^n for n <= n_max and the resulting radius
    estimate; verdict "converged" when the running estimate is stationary
    over the last ceil(n_max/4) steps."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    ring = ctx.ring
    estimates = []
    running: list[Fraction] = []
    nus = {}
    best = None
    for n in range(1, n_max + 1):
        nu = _lattice_power(S, ctx, n).gauge_exponent()
        if nu == INFINITY:
            # S^n = 0: nilpotent at the cap, radius exponent +inf
            return RadiusReport(estimates, INFINITY, "converged")
        if nu < -ring.precision:
            raise PrecisionExhausted(
                f"gauge exponent {nu} of the {n}-th power is below -N")
        nus[n] = nu
        estimates.append((n, Fraction(nu, n)))
        best = Fraction(nu, n) if best is None else max(best, Fraction(nu, n))
        running.append(best)
    window = -(-n_max // 4)
    converged = len(set(running[-window:])) == 1
    # superadditivity of the gauge exponents is a hard invariant
    for m, num in nus.items():
        for n, nun in nus.items():
            if m + n in nus and nus[m + n] < num + nun:
                raise ArithmeticError(
                    f"superadditivity violated at {m} + {n}")
    return RadiusReport(estimates, best, "converged" if converged
                        else "upper_bound_only")


def characteristic_polynomial(a: MatrixV):
    """Coefficients of det(x*I - a), degree 0 first.

    Berkowitz's division-free algorithm (IPL 1984): with A_r the leading
    r x r block of a, R and C the rest of its row and column r, the
    polynomial of A_(r+1) is the polynomial of A_r times the lower-
    triangular Toeplitz matrix with first column
    [1, -a_rr, -R C, -R A_r C, ..., -R A_r^(r-1) C].  That takes O(n^4)
    ring operations, all of them +, - and *, so over V the result is exact
    modulo pi^N.
    """
    ring = a.ring
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    dot, minus, rows = _Kernel.of(ring).dot, ring._minus, a.raw
    one = (0, ring.ops.one(), False)
    poly = [one]  # highest degree first while the block grows
    for r, row in enumerate(rows):
        # col has length r, so dot reads only the first r entries of row
        # (that is R) and of each row above (those of A_r)
        col = [above[r] for above in rows[:r]]
        t = [one, minus(row[r])]
        for k in range(r):
            if k:
                col = [dot(above, col) for above in rows[:r]]
            t.append(minus(dot(row, col)))
        # the first r + 2 terms of the convolution of t and poly
        poly = [dot(poly[:k + 1], t[k::-1]) for k in range(r + 2)]
    return [ScalarElem(ring, *x) for x in reversed(poly)]


def newton_polygon_rho(a: MatrixV):
    """Minimal eigenvalue valuation of a, read off the Newton polygon of
    its characteristic polynomial (+inf for nilpotent matrices).  The
    polynomial comes from Berkowitz's division-free algorithm, O(n^4) ring
    operations, so the slope costs little next to ``rho1_estimate``.

    Independent oracle for singleton spectral radii: the minimal root
    valuation equals lim nu(a^n)/n for diagonalisable (and nilpotent)
    matrices.
    """
    points = [(i, c.valuation)
              for i, c in enumerate(characteristic_polynomial(a))
              if not c.effectively_zero]
    if len(points) <= 1:
        return INFINITY
    (i1, v1), (i2, v2) = _lower_hull(points)[-2:]
    # the rightmost hull segment carries the roots of minimal valuation
    return Fraction(v1 - v2, i2 - i1)


def lgb_closure(S: Lattice, ctx, i_max: int):
    """The chain L_i = sum_{j<=i} pi^j S^(j+1) with reduced generators.

    Returns (chain, stabilized_at) where stabilized_at is the first i with
    L_i = L_(i+1), or None if the chain is still growing at i_max.  Past a
    stable i the chain repeats L_(i+1) and builds no later power.  That is
    exact: pi^(i+2) S^(i+3) = (pi^(i+1) S^(i+2)) * (pi S) lies in L_i * pi S,
    inside L_(i+1) = L_i (powers are built left to right and the product is
    bilinear; no associativity is used, so twisted contexts are covered
    too), and so on by induction.
    """
    if i_max < 1:
        raise ValueError("i_max must be at least 1")
    chain = [S]
    for i in range(1, i_max + 1):
        term = _lattice_power(S, ctx, i + 1).scale_by_pi(i)
        if term.gauge_exponent() < -ctx.ring.precision:
            raise PrecisionExhausted("closure term has gauge below -N")
        nxt = chain[-1].sum(term)
        if nxt == chain[-1]:
            return chain + [nxt] * (i_max - i + 1), i - 1
        chain.append(nxt)
    return chain, None


def pi_multiplicative(ctx, U: Lattice) -> bool:
    """Does pi * U * U lie inside U?  (Generator products suffice, and
    pi * a * b lies in U exactly when a * b lies in pi^-1 U.)  Products are
    tested one by one: at precision N the reduced U * U can fail to fit."""
    gens = _generators(ctx, U)
    inside = U.scale_by_pi(-1)
    return all(inside.membership(p) for p in ctx._products(gens, gens))


class ProbeReport:
    """Outcome of iterating powers of pi^m S^j: "bounded" when the partial
    sums stabilise, "diverging" when the gauge exponents strictly decrease
    long enough, "inconclusive" otherwise."""

    def __init__(self, j, verdict, gauges, stabilized_at=None):
        self.j = j
        self.verdict = verdict
        self.gauges = gauges
        self.stabilized_at = stabilized_at

    def __repr__(self):
        return f"ProbeReport(j={self.j}, {self.verdict})"


def semi_dagger_probe(S: Lattice, ctx, m: int, j_list, l_max: int = 8):
    """For each j: iterate powers of pi^m S^j, reducing at every step and
    tracking gauge exponents of the powers and of their partial sums.
    Where ctx is ``associative`` the l-th power is read as pi^(ml) S^(jl),
    a link of S's chain, and elsewhere multiplied out left to right."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    if any(j < 1 for j in j_list):
        raise ValueError("every j must be at least 1")
    reports, decrease_window = {}, -(-l_max // 2)
    for j in j_list:
        base = _lattice_power(S, ctx, j).scale_by_pi(m)
        power = base
        chain = base
        gauges = [power.gauge_exponent()]
        verdict, stab = "inconclusive", None
        decreasing = 0
        for l in range(2, l_max + 1):
            power = (_lattice_power(S, ctx, j * l).scale_by_pi(m * l)
                     if ctx.associative else lattice_product(ctx, power, base))
            gauges.append(power.gauge_exponent())
            if gauges[-1] < gauges[-2]:
                decreasing += 1
            else:
                decreasing = 0
            nxt = chain.sum(power)
            if nxt == chain:
                verdict, stab = "bounded", l - 1
                break
            chain = nxt
            if decreasing >= decrease_window:
                verdict = "diverging"
                break
        reports[j] = ProbeReport(j, verdict, gauges, stab)
    return reports
