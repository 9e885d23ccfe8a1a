"""Spectral radius estimates, Newton polygon oracle, closures, probes."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from daggerkit import linalg, spectral
from daggerkit import ring as ring_module
from daggerkit.linalg import Lattice, MatrixV
from daggerkit.monoid import MonoidDescriptor
from daggerkit.ring import INFINITY, RingDescriptor
from daggerkit.series import DaggerSeries
from daggerkit.spectral import (MatrixAlgebraContext, SeriesAlgebraContext,
                                characteristic_polynomial,
                                lattice_from_elements, lattice_product,
                                lgb_closure, newton_polygon_rho,
                                pi_multiplicative, rho1_estimate,
                                semi_dagger_probe, star_scale)


@pytest.fixture
def ring():
    return RingDescriptor("padic", 5, 40)


@pytest.fixture
def ctx(ring):
    return MatrixAlgebraContext(ring, 2)


def mat(ring, rows):
    out = []
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, tuple):
                r.append(ring.scalar(x[1]).scaled_by_pi(x[0]))
            else:
                r.append(ring.scalar(x))
        out.append(r)
    return MatrixV(ring, out)


def singleton(ctx, a):
    return lattice_from_elements(ctx, [a])


class TestStarScale:
    def test_integer_exponent(self, ring, ctx):
        L = singleton(ctx, MatrixV.identity(ring, 2))
        assert star_scale(2, L) == L.scale_by_pi(2)

    def test_half_exponent_rounds_up(self, ring, ctx):
        L = singleton(ctx, MatrixV.identity(ring, 2))
        assert star_scale(Fraction(1, 2), L) == L.scale_by_pi(1)

    def test_unit_radius(self, ring, ctx):
        L = singleton(ctx, mat(ring, [[0, 1], [(1, 1), 0]]))
        assert star_scale(0, L) == L

    def test_rejects_radius_above_one(self, ring, ctx):
        L = singleton(ctx, MatrixV.identity(ring, 2))
        with pytest.raises(ValueError):
            star_scale(-1, L)


class TestGauge:
    def test_scaled_full_matrix_lattice(self, ring, ctx):
        gens = [mat(ring, [[1, 0], [0, 0]]), mat(ring, [[0, 1], [0, 0]]),
                mat(ring, [[0, 0], [1, 0]]), mat(ring, [[0, 0], [0, 1]])]
        L = lattice_from_elements(ctx, gens).scale_by_pi(3)
        assert L.gauge_exponent() == 3

    def test_min_valuation(self, ring, ctx):
        L = lattice_from_elements(ctx, [
            mat(ring, [[(-1, 1), 0], [0, 0]]),
            mat(ring, [[0, 0], [0, 1]])])
        assert L.gauge_exponent() == -1

    def test_zero_lattice(self, ring, ctx):
        assert Lattice.zero(ring, 4).gauge_exponent() == INFINITY


class TestRho1:
    def test_nilpotent(self, ring, ctx):
        S = singleton(ctx, mat(ring, [[0, 1], [0, 0]]))
        report = rho1_estimate(S, ctx, 8)
        assert report.rho_exponent == INFINITY
        assert report.rho1_exponent == 0
        assert report.verdict == "converged"

    def test_companion_of_x2_minus_pi(self, ring, ctx):
        S = singleton(ctx, mat(ring, [[0, 1], [(1, 1), 0]]))
        report = rho1_estimate(S, ctx, 16)
        assert report.rho_exponent == Fraction(1, 2)
        assert report.rho1_exponent == 0
        assert report.verdict == "converged"

    def test_expanding_diagonal(self, ring, ctx):
        S = singleton(ctx, mat(ring, [[(-1, 1), 0], [0, 1]]))
        report = rho1_estimate(S, ctx, 12)
        assert report.rho_exponent == Fraction(-1)
        assert report.rho1_exponent == Fraction(-1)

    def test_superadditivity_of_gauges(self, ring, ctx):
        rng = random.Random(21)
        for _ in range(10):
            a = mat(ring, [[rng.randint(0, 20) for _ in range(2)]
                           for _ in range(2)])
            S = singleton(ctx, a)
            # the assert inside rho1_estimate is the check
            rho1_estimate(S, ctx, 8)


    @staticmethod
    def by_definition(nus):
        """(first (m, n) in the order of m, then n, over all pairs with
        m + n <= n_max and nu_(m+n) < nu_m + nu_n, or None; "converged"
        when max(nu_k / k, k <= n) is the same for the last ceil(n_max/4)
        n) for nus[n] = nu_n, n = 1 .. n_max."""
        n_max = len(nus) - 1
        bad = next(((m, n) for m in range(1, n_max + 1)
                    for n in range(1, n_max + 1)
                    if m + n <= n_max and nus[m + n] < nus[m] + nus[n]),
                   None)
        running = [max(Fraction(nus[k], k) for k in range(1, n + 1))
                   for n in range(1, n_max + 1)]
        window = -(-n_max // 4)
        converged = len(set(running[-window:])) == 1
        return bad, "converged" if converged else "upper_bound_only"

    def test_checks_agree_with_their_definitions(self, ring, ctx,
                                                 monkeypatch):
        """``rho1_estimate`` checks superadditivity for m <= n only and
        reads convergence off the last strict rise; on gauge sequences fed
        through the power chain, both agree with the full definitions for
        n_max <= 12, the error text included."""
        class Power:
            def __init__(self, nu):
                self.nu = nu

            def gauge_exponent(self):
                return self.nu

        nus = [None]
        monkeypatch.setattr(spectral, "_lattice_power",
                            lambda S, ctx, n: Power(nus[n]))
        rng = random.Random(16)
        met = set()
        for n_max in range(2, 13):
            for trial in range(60):
                # floor(n r) is superadditive; nudges break it sometimes
                r = Fraction(rng.randint(-3, 6), rng.randint(1, 4))
                nus[1:] = [(n * r.numerator) // r.denominator
                           - (rng.random() < trial / 200)
                           for n in range(1, n_max + 1)]
                bad, verdict = self.by_definition(nus)
                met.add((bad is None, verdict))
                if bad is None:
                    report = rho1_estimate(None, ctx, n_max)
                    assert report.verdict == verdict, nus
                else:
                    with pytest.raises(ArithmeticError) as err:
                        rho1_estimate(None, ctx, n_max)
                    assert str(err.value) == \
                        f"superadditivity violated at {bad[0]} + {bad[1]}"
        assert met == {(True, "converged"), (True, "upper_bound_only"),
                       (False, "converged"), (False, "upper_bound_only")}
        # nu_3 = 0 < nu_1 + nu_2 = 1: (1, 2) comes before (2, 1)
        nus[1:] = [0, 1, 0, 2]
        with pytest.raises(ArithmeticError,
                           match=r"^superadditivity violated at 1 \+ 2$"):
            rho1_estimate(None, ctx, 4)


class TestNewtonPolygon:
    def test_diagonal_matrix(self, ring):
        a = mat(ring, [[(2, 1), 0], [0, (5, 1)]])
        assert newton_polygon_rho(a) == 2

    def test_companion_slope_one_half(self, ring):
        a = mat(ring, [[0, 1], [(1, 1), 0]])
        coeffs = characteristic_polynomial(a)
        # char = x^2 - pi: constant term -pi, linear 0, quadratic 1
        assert coeffs[0] == -ring.pi()
        assert coeffs[1].is_zero
        assert coeffs[2] == ring.one()
        assert newton_polygon_rho(a) == Fraction(1, 2)

    def test_nilpotent_infinite(self, ring):
        a = mat(ring, [[0, 1], [0, 0]])
        assert newton_polygon_rho(a) == INFINITY

    def test_oracle_agreement_on_diagonalisable(self, ring, ctx):
        rng = random.Random(31)
        n_max = 16
        for _ in range(10):
            d = [(rng.randint(-1, 3), rng.randrange(1, 5)) for _ in range(2)]
            a = mat(ring, [[d[0], 0], [0, d[1]]])
            slope = newton_polygon_rho(a)
            report = rho1_estimate(singleton(ctx, a), ctx, n_max)
            assert abs(report.rho1_exponent - min(0, slope)) <= \
                Fraction(1, n_max)


def cofactor_charpoly(a):
    """Reference: det(x*I - a) by O(n!) cofactor expansion along the
    first column, degree 0 first; independent of Berkowitz's recursion."""
    ring = a.ring

    def poly_mul(f, g):
        out = [ring.zero()] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = out[i + j] + x * y
        return out

    def poly_add(f, g):
        n = max(len(f), len(g))
        f = f + [ring.zero()] * (n - len(f))
        g = g + [ring.zero()] * (n - len(g))
        return [x + y for x, y in zip(f, g)]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        out = [ring.zero()]
        for i in range(len(m)):
            minor = [row[1:] for j, row in enumerate(m) if j != i]
            term = poly_mul(m[i][0], det(minor))
            out = poly_add(out, [-x for x in term] if i % 2 else term)
        return out

    n = a.rows
    return det([[[-a[i, j], ring.one()] if i == j else [-a[i, j]]
                 for j in range(n)] for i in range(n)])


def random_entry(rng, ring, vmax=3, zeros=0.2):
    """A random element of V: zero with probability `zeros`, otherwise
    pi^v times a random unit with v <= vmax."""
    if rng.random() < zeros:
        return ring.zero()
    q, n = ring.base, ring.precision
    unit = rng.randrange(1, q ** n)
    while unit % q == 0:
        unit = rng.randrange(1, q ** n)
    return ring.from_valuation_unit(rng.randint(0, vmax), unit)


def int_lift(x):
    """The integer in [0, p^N) that a padic element of V stands for."""
    if x.effectively_zero:
        return 0
    assert x.valuation >= 0
    return x.ring.base ** x.valuation * x.unit_encoded() % \
        x.ring.base ** x.ring.precision


def family_matrix(rng, ring, family, d):
    """Random V-matrices, companions of monic polynomials with
    pi-divisible lower coefficients, and strictly upper triangular
    (nilpotent) matrices."""
    if family == "random":
        return MatrixV(ring, [[random_entry(rng, ring) for _ in range(d)]
                              for _ in range(d)])
    rows = [[ring.zero()] * d for _ in range(d)]
    if family == "companion":
        for i in range(d - 1):
            rows[i][i + 1] = ring.one()
        rows[d - 1] = [random_entry(rng, ring, zeros=0.3).scaled_by_pi(1)
                       for _ in range(d)]
    else:
        for i in range(d):
            for j in range(i + 1, d):
                rows[i][j] = random_entry(rng, ring, vmax=2, zeros=0.3)
    return MatrixV(ring, rows)


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def sympy_charpoly(sympy, ints, modulus):
    coeffs = sympy.Matrix(ints).charpoly().all_coeffs()[::-1]
    return [int(c) % modulus for c in coeffs]


class TestCharacteristicPolynomial:
    @pytest.mark.parametrize("backend,base", [
        ("padic", 5), ("eqchar", 4), ("eqchar", 5), ("eqchar", 9)])
    def test_equals_cofactor_expansion(self, backend, base):
        ring = RingDescriptor(backend, base, 20)
        rng = random.Random(base)
        for d in range(1, 7):
            for _ in range(3):
                a = family_matrix(rng, ring, "random", d)
                assert characteristic_polynomial(a) == cofactor_charpoly(a)

    @pytest.mark.parametrize("family", ["random", "companion", "nilpotent"])
    def test_matches_sympy_mod_p_to_the_n(self, ring, sympy, family):
        rng = random.Random(family)
        modulus = ring.base ** ring.precision
        for d in range(1, 9):
            a = family_matrix(rng, ring, family, d)
            ints = [[int_lift(a[i, j]) for j in range(d)] for i in range(d)]
            ours = [int_lift(c) for c in characteristic_polynomial(a)]
            assert ours == sympy_charpoly(sympy, ints, modulus)

    def test_entries_in_k(self, ring, sympy):
        # a = pi^-k b has coefficients c_i = pi^(-k (n - i)) * chi_b,i
        rng = random.Random(7)
        modulus = ring.base ** ring.precision
        for d in range(1, 7):
            for k in (1, 2):
                b = family_matrix(rng, ring, "random", d)
                a = MatrixV(ring, [[b[i, j].scaled_by_pi(-k)
                                    for j in range(d)] for i in range(d)])
                ints = [[int_lift(b[i, j]) for j in range(d)]
                        for i in range(d)]
                coeffs = characteristic_polynomial(a)
                ours = [int_lift(c.scaled_by_pi(k * (d - i)))
                        for i, c in enumerate(coeffs)]
                assert ours == sympy_charpoly(sympy, ints, modulus)

    def test_ring_multiplications_are_polynomial(self, monkeypatch):
        # a dense 8 x 8 matrix needs about 10^3 residue products here and
        # about 10^5 by cofactor expansion; n^4 separates the two.  The
        # scalar rules bind the residue operations when the ring is built,
        # so every residue product (``mul``, and ``fma`` a + f b) is
        # counted on the ring's ops before they are bound.
        calls = []
        bind = ring_module._scalar_rules

        def counting_rules(ops, N):
            for name in ("mul", "fma"):
                def counted(*xs, op=getattr(ops, name)):
                    calls.append(1)
                    return op(*xs)
                setattr(ops, name, counted)
            return bind(ops, N)

        monkeypatch.setattr(ring_module, "_scalar_rules", counting_rules)
        ring = RingDescriptor("padic", 5, 40)
        rng = random.Random(8)
        a = MatrixV(ring, [[random_entry(rng, ring, zeros=0)
                            for _ in range(8)] for _ in range(8)])
        characteristic_polynomial(a)
        assert 0 < len(calls) <= 8 ** 4

    def test_non_square_rejected(self, ring):
        with pytest.raises(ValueError):
            characteristic_polynomial(MatrixV(ring, [[ring.one()] * 2]))


class TestSeriesContext:
    def test_series_outside_the_context_rejected(self, ring):
        n1 = MonoidDescriptor("N", 1)
        sctx = SeriesAlgebraContext(ring, n1, 2)
        outside = [
            # a term above the context's degree cap
            DaggerSeries(ring, n1, {n1.element((3,)): ring.one()}, 4),
            # another monoid, another ring
            DaggerSeries.unit(ring, MonoidDescriptor("N", 2), 2),
            DaggerSeries.unit(RingDescriptor("padic", 5, 12), n1, 2)]
        for a in outside:
            with pytest.raises(ValueError):
                sctx.to_vector(a)
            with pytest.raises(ValueError):
                lattice_from_elements(sctx, [DaggerSeries.unit(ring, n1, 2),
                                             a])
        # a larger cap is fine while every term fits
        inside = DaggerSeries(ring, n1, {n1.element((2,)): ring.one()}, 4)
        assert sctx.to_vector(inside)[2] == ring.one()


class TestIterationBudgets:
    def test_budgets_below_one_rejected(self, ring, ctx):
        S = singleton(ctx, mat(ring, [[0, 1], [0, 0]]))
        for budget in (0, -1):
            with pytest.raises(ValueError):
                lgb_closure(S, ctx, budget)
            with pytest.raises(ValueError):
                semi_dagger_probe(S, ctx, 1, [1], l_max=budget)
        # a budget of 1 is a result, not an error
        assert lgb_closure(S, ctx, 1)[1] == 0
        assert semi_dagger_probe(S, ctx, 1, [1], l_max=1)[1].verdict == \
            "inconclusive"


class TestLgbClosure:
    def test_polynomial_context(self, ring):
        cap = 5
        sctx = SeriesAlgebraContext(ring, MonoidDescriptor("N", 1), cap)
        x = sctx.from_vector(
            [ring.zero(), ring.one()] + [ring.zero()] * (cap - 1))
        S = lattice_from_elements(sctx, [x])
        chain, stab = lgb_closure(S, sctx, cap + 3)
        assert stab == cap - 1
        final = chain[-1]
        expected = lattice_from_elements(
            sctx, [sctx.from_vector(
                [ring.pi(j) if i == j + 1 else ring.zero()
                 for i in range(cap + 1)]) for j in range(cap)])
        assert final == expected
        assert pi_multiplicative(sctx, final)

    def test_nilpotent_stabilises_immediately(self, ring, ctx):
        S = singleton(ctx, mat(ring, [[0, 1], [0, 0]]))
        chain, stab = lgb_closure(S, ctx, 6)
        assert stab == 0
        assert pi_multiplicative(ctx, chain[-1])

    def test_boundary_witness(self, ring, ctx):
        # diag(pi^-1, 1): the closure gains E22 at the first step and then
        # stabilises to span{pi^-1 E11, E22}
        S = singleton(ctx, mat(ring, [[(-1, 1), 0], [0, 1]]))
        chain, stab = lgb_closure(S, ctx, 6)
        assert stab == 1
        expected = lattice_from_elements(ctx, [
            mat(ring, [[(-1, 1), 0], [0, 0]]),
            mat(ring, [[0, 0], [0, 1]])])
        assert chain[-1] == expected
        assert pi_multiplicative(ctx, chain[-1])


class TestSemiDaggerProbe:
    def test_boundary_witness_bounded_then_diverging(self, ring, ctx):
        S = singleton(ctx, mat(ring, [[(-1, 1), 0], [0, 1]]))
        reports = semi_dagger_probe(S, ctx, 1, [1, 2], l_max=8)
        assert reports[1].verdict == "bounded"
        assert reports[2].verdict == "diverging"

    def test_nilpotent_bounded_everywhere(self, ring, ctx):
        S = singleton(ctx, mat(ring, [[0, 1], [0, 0]]))
        reports = semi_dagger_probe(S, ctx, 1, [1, 2, 3])
        assert all(r.verdict == "bounded" for r in reports.values())

    def test_contracting_bounded(self, ring, ctx):
        S = singleton(ctx, mat(ring, [[(1, 1), 0], [0, (2, 1)]]))
        reports = semi_dagger_probe(S, ctx, 1, [1, 2, 3])
        assert all(r.verdict == "bounded" for r in reports.values())

    def test_j_list_matches_single_j_calls(self, ring, ctx):
        # one power chain S, S^2, S^3 serves the whole j_list
        for a in (mat(ring, [[(-1, 1), 0], [0, 1]]),
                  mat(ring, [[1, 2], [(1, 3), 4]]),
                  mat(ring, [[(1, 1), 0], [0, (2, 1)]])):
            S = singleton(ctx, a)
            together = semi_dagger_probe(S, ctx, 1, [3, 1, 2])
            assert list(together) == [3, 1, 2]
            for j, report in together.items():
                alone = semi_dagger_probe(S, ctx, 1, [j])[j]
                assert (report.verdict, report.gauges, report.stabilized_at) \
                    == (alone.verdict, alone.gauges, alone.stabilized_at)


class TestLatticePowers:
    def test_one_chain_serves_the_consistency_triangle(self, monkeypatch):
        # acceptance 05 on A = [[1, 2], [3, 4]] over Z_5 at N = 40: rho1
        # builds S^2 .. S^16; the closure (S^2 .. S^9) reuses them, and so
        # does the probe, which reads (pi S^j)^l as pi^l S^(jl) off the
        # chain and needs no power past S^9, so it builds nothing new
        ring = RingDescriptor("padic", 5, 40)
        ctx = MatrixAlgebraContext(ring, 2)
        a = mat(ring, [[1, 2], [3, 4]])

        def triangle(S):
            return (rho1_estimate(S, ctx, 16), lgb_closure(S, ctx, 8),
                    semi_dagger_probe(S, ctx, 1, [1, 2, 3], l_max=8))

        # each function alone on its own S, before any chain is shared
        alone = [f(singleton(ctx, a)) for f in (
            lambda S: rho1_estimate(S, ctx, 16),
            lambda S: lgb_closure(S, ctx, 8),
            lambda S: semi_dagger_probe(S, ctx, 1, [1, 2, 3], l_max=8))]
        calls = []
        real = spectral.lattice_product

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(spectral, "lattice_product", counting)
        S = singleton(ctx, a)
        report = rho1_estimate(S, ctx, 16)
        assert len(calls) == 15
        chain, stabilized = lgb_closure(S, ctx, 8)
        assert len(calls) == 15
        probes = semi_dagger_probe(S, ctx, 1, [1, 2, 3], l_max=8)
        assert len(calls) == 15
        # sharing changes no output
        assert (report.exponent_estimates, report.rho_exponent,
                report.verdict) == (alone[0].exponent_estimates,
                                    alone[0].rho_exponent, alone[0].verdict)
        assert (chain, stabilized) == alone[1]
        assert [(r.verdict, r.gauges, r.stabilized_at)
                for r in probes.values()] == \
            [(r.verdict, r.gauges, r.stabilized_at)
             for r in alone[2].values()]
        # the chain lives on S: an equal lattice starts its own
        triangle(singleton(ctx, a))
        assert len(calls) == 30

    def test_sums_that_add_nothing_reduce_nothing(self, ring, monkeypatch):
        # the companion matrix of x^3 - 2 pi: the closure to i = 8
        # stabilises at i = 2 and stops there, so it builds S^2 .. S^4
        # only; the probe reads its powers off the same chain and builds
        # S^5 .. S^8 (j = 2 up to l = 4).  Each power is one Hermite form;
        # a sum that adds nothing is none, and each sum that grows here
        # (the closure's at i = 1, 2, the probe's at l = 2, 3 for j = 1 and
        # j = 2) adds one column at a row no pivot takes, inserted without
        # a form.
        ctx = MatrixAlgebraContext(ring, 3)
        S = singleton(ctx, mat(ring, [[0, 0, (1, 2)], [1, 0, 0], [0, 1, 0]]))
        calls = []
        real = linalg._column_hermite

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(linalg, "_column_hermite", counting)
        _, stabilized = lgb_closure(S, ctx, 8)
        assert (stabilized, len(calls)) == (2, 3)
        probes = semi_dagger_probe(S, ctx, 1, [1, 2, 3], l_max=8)
        assert [(r.verdict, r.stabilized_at) for r in probes.values()] == \
            [("bounded", 3), ("bounded", 3), ("bounded", 1)]
        assert len(calls) == 7

    def test_chain_goes_with_its_lattice(self, ring, ctx):
        S = singleton(ctx, mat(ring, [[1, 2], [3, 4]]))
        rho1_estimate(S, ctx, 4)
        # S's one chain: (context, [S^2, S^3, S^4])
        assert len(S._chains[None][1]) == 3
        # a new context starts a new chain instead of keeping both
        other = MatrixAlgebraContext(ring, 2)
        lgb_closure(S, other, 1)
        assert list(S._chains) == [None]
        assert S._chains[None][0][0] is other
        assert len(S._chains[None][1]) == 1
        # the chain, and the context it holds, go with S
        held = weakref.ref(other)
        del other
        gc.collect()
        assert held() is not None
        del S
        gc.collect()
        assert held() is None

    def test_two_generator_product(self, ring, ctx):
        e12 = mat(ring, [[0, 1], [0, 0]])
        e21 = mat(ring, [[0, 0], [1, 0]])
        S = lattice_from_elements(ctx, [e12, e21])
        S2 = lattice_product(ctx, S, S)
        expected = lattice_from_elements(
            ctx, [mat(ring, [[1, 0], [0, 0]]), mat(ring, [[0, 0], [0, 1]])])
        assert S2 == expected
