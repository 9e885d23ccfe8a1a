"""Affine actions, crossed multiplication, boundedness probes."""

import random

import pytest

from daggerkit.crossed import (AffineAction, BoundednessReport, CrossedElem,
                               act, crossed_certify, crossed_mul,
                               shift_action, uniform_boundedness_probe)
from daggerkit.linalg import MatrixV
from daggerkit.monoid import MonoidDescriptor
from daggerkit.ring import RingDescriptor
from daggerkit.series import DaggerSeries, GrowthCertificate, mul
from daggerkit.spectral import SeriesAlgebraContext, lattice_from_elements


@pytest.fixture
def ring():
    return RingDescriptor("padic", 5, 24)


N1 = MonoidDescriptor("N", 1)
N2 = MonoidDescriptor("N", 2)


def poly(ring, monoid, cap, coeffs):
    """coeffs: dict exponent-tuple -> int."""
    terms = {monoid.element(e): ring.scalar(c) for e, c in coeffs.items()}
    return DaggerSeries(ring, monoid, terms, cap)


def random_gl2_action(ring, rng):
    while True:
        a = MatrixV(ring, [[ring.scalar(rng.randint(-6, 6))
                            for _ in range(2)] for _ in range(2)])
        if not a.det().is_zero and a.det().valuation == 0:
            b = [ring.scalar(rng.randint(-4, 4)) for _ in range(2)]
            return AffineAction(a, b)


def random_poly(ring, monoid, rng, cap, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        s = monoid.random_element(rng, cap)
        terms[s] = ring.scalar(rng.randint(-20, 20))
    return DaggerSeries(ring, monoid, terms, cap)


class TestAct:
    def test_translation_of_x(self, ring):
        alpha = shift_action(ring)
        f = poly(ring, N1, 4, {(1,): 1})
        assert act(alpha, 1, f) == poly(ring, N1, 4, {(1,): 1, (0,): 1})

    def test_zero_power_is_identity(self, ring):
        alpha = shift_action(ring)
        f = poly(ring, N1, 4, {(3,): 2, (1,): 1})
        assert act(alpha, 0, f) == f

    def test_inverse_pair(self, ring):
        alpha = shift_action(ring)
        f = poly(ring, N1, 4, {(1,): 1})
        assert act(alpha, -1, f) == poly(ring, N1, 4, {(1,): 1, (0,): -1})
        assert act(alpha, 1, act(alpha, -1, f)) == f

    def test_action_identity_random(self, ring):
        rng = random.Random(14)
        for _ in range(25):
            alpha = random_gl2_action(ring, rng)
            f = random_poly(ring, N2, rng, 5)
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            assert act(alpha, m, act(alpha, n, f)) == act(alpha, m + n, f)

    def test_homomorphism_property(self, ring):
        rng = random.Random(15)
        for _ in range(25):
            alpha = random_gl2_action(ring, rng)
            cap = 6
            f = random_poly(ring, N2, rng, 3)
            g = random_poly(ring, N2, rng, 3)
            f = DaggerSeries(ring, N2, f.terms, cap)
            g = DaggerSeries(ring, N2, g.terms, cap)
            n = rng.randint(-2, 2)
            assert act(alpha, n, mul(f, g)) == mul(act(alpha, n, f),
                                                   act(alpha, n, g))

    def test_degree_never_increases(self, ring):
        rng = random.Random(16)
        for _ in range(25):
            alpha = random_gl2_action(ring, rng)
            f = random_poly(ring, N2, rng, 5)
            n = rng.randint(-4, 4)
            g = act(alpha, n, f)
            assert g.max_length() <= f.max_length()
            assert not g.truncated

    def test_rejects_non_unit_determinant(self, ring):
        a = MatrixV(ring, [[ring.pi(), ring.zero()],
                           [ring.zero(), ring.one()]])
        with pytest.raises(ValueError):
            AffineAction(a, [ring.zero(), ring.zero()])


class TestCrossedMul:
    def test_substituted_product(self, ring):
        # (x d1) (x d0) = x (x+1) d1 under the shift action
        alpha = shift_action(ring)
        x = poly(ring, N1, 4, {(1,): 1})
        u = CrossedElem.monomial(ring, N1, 1, x, 3)
        v = CrossedElem.monomial(ring, N1, 0, x, 3)
        prod = crossed_mul(u, v, alpha)
        assert prod.support() == [1]
        assert prod.coefficient(1) == poly(ring, N1, 4, {(2,): 1, (1,): 1})

    def test_no_substitution_at_zero(self, ring):
        alpha = shift_action(ring)
        x = poly(ring, N1, 4, {(1,): 1})
        u = CrossedElem.monomial(ring, N1, 0, x, 3)
        v = CrossedElem.monomial(ring, N1, 1, x, 3)
        prod = crossed_mul(u, v, alpha)
        assert prod.coefficient(1) == poly(ring, N1, 4, {(2,): 1})

    def test_delta_zero_is_unit(self, ring):
        alpha = shift_action(ring)
        rng = random.Random(18)
        one = CrossedElem.monomial(ring, N1, 0,
                                   DaggerSeries.unit(ring, N1, 4), 3)
        u = CrossedElem(ring, N1,
                        {n: random_poly(ring, N1, rng, 4)
                         for n in (-2, 0, 1)}, 3, 4)
        assert crossed_mul(u, one, alpha) == u
        assert crossed_mul(one, u, alpha) == u

    def test_support_cap_flags(self, ring):
        alpha = shift_action(ring)
        x = DaggerSeries.unit(ring, N1, 2)
        u = CrossedElem.monomial(ring, N1, 2, x, 2)
        prod = crossed_mul(u, u, alpha)
        assert prod.is_zero
        assert prod.truncated

    def test_associativity_when_unflagged(self, ring):
        rng = random.Random(19)
        alpha = shift_action(ring)
        for _ in range(15):
            us = []
            for _ in range(3):
                terms = {}
                for n in rng.sample(range(-1, 2), 2):
                    low = random_poly(ring, N1, rng, 2, n_terms=2)
                    terms[n] = DaggerSeries(ring, N1, low.terms, 6)
                us.append(CrossedElem(ring, N1, terms, 6, 6))
            a, b, c = us
            left = crossed_mul(crossed_mul(a, b, alpha), c, alpha)
            right = crossed_mul(a, crossed_mul(b, c, alpha), alpha)
            assert not left.truncated and not right.truncated
            assert left == right


class TestCrossedCertify:
    def test_geometric_in_n(self, ring):
        z_cap = 4
        terms = {n: DaggerSeries.delta(ring, N1, N1.identity(), 6,
                                       ring.pi(abs(n)))
                 for n in range(-z_cap, z_cap + 1)}
        u = CrossedElem(ring, N1, terms, z_cap, 6)
        assert crossed_certify(u, 1) == (True, 0)

    def test_flat_monomial_needs_offset(self, ring):
        cap = 6
        xm = poly(ring, N1, cap, {(cap,): 1})
        u = CrossedElem.monomial(ring, N1, 0, xm, 4)
        ok, k = crossed_certify(u, 1)
        assert not ok
        assert k == cap - 1

    def test_product_of_certified_recertifies(self, ring):
        alpha = shift_action(ring)
        cap, z_cap = 8, 4
        x = poly(ring, N1, cap, {(1,): 1})
        g = CrossedElem(ring, N1, {0: x}, z_cap, cap,
                        GrowthCertificate(1, 0))
        h = CrossedElem(ring, N1,
                        {1: DaggerSeries.unit(ring, N1, cap)}, z_cap, cap,
                        GrowthCertificate(1, 0))
        prod = crossed_mul(g, h, alpha)
        assert prod.certificate == GrowthCertificate(1, 1)
        ok, k = crossed_certify(prod, 1)
        assert k <= prod.certificate.k


class TestUniformBoundedness:
    def test_affine_action_preserves_degree_lattice(self, ring):
        cap = 3
        ctx = SeriesAlgebraContext(ring, N1, cap)
        alpha = shift_action(ring)
        U = lattice_from_elements(ctx, [
            poly(ring, N1, cap, {(e,): 1}) for e in range(cap + 1)])
        report = uniform_boundedness_probe(alpha, U, ctx)
        assert report.verdict == "stabilized"
        assert report.lattice == U
        assert report.condition_verified is not None

    def test_scaling_action_diverges(self, ring):
        cap = 3
        ctx = SeriesAlgebraContext(ring, N1, cap)
        a = MatrixV(ring, [[ring.pi(-1)]])
        alpha = AffineAction(a, [ring.zero()], strict=False)
        U = lattice_from_elements(ctx, [poly(ring, N1, cap, {(1,): 1})])
        report = uniform_boundedness_probe(alpha, U, ctx, depth=8)
        assert report.verdict == "diverging"

    def test_zero_lattice(self, ring):
        from daggerkit.linalg import Lattice
        ctx = SeriesAlgebraContext(ring, N1, 3)
        alpha = shift_action(ring)
        report = uniform_boundedness_probe(alpha, Lattice.zero(ring, ctx.dim),
                                           ctx)
        assert report.verdict == "stabilized"
        assert report.lattice.is_zero

    def test_depth_below_one_rejected(self, ring):
        from daggerkit.linalg import Lattice
        ctx = SeriesAlgebraContext(ring, N1, 3)
        alpha = shift_action(ring)
        U = lattice_from_elements(ctx, [poly(ring, N1, 3, {(1,): 1})])
        for lattice in (U, Lattice.zero(ring, ctx.dim)):
            for depth in (0, -1):
                with pytest.raises(ValueError):
                    uniform_boundedness_probe(alpha, lattice, ctx, depth)
        assert uniform_boundedness_probe(alpha, U, ctx, 1).steps == 1

    def test_strict_sublattice_grows_to_invariant(self, ring):
        # span{x} is not shift-invariant; the probe should grow it and
        # stabilise inside the degree-1 coefficient lattice
        cap = 3
        ctx = SeriesAlgebraContext(ring, N1, cap)
        alpha = shift_action(ring)
        U = lattice_from_elements(ctx, [poly(ring, N1, cap, {(1,): 1})])
        report = uniform_boundedness_probe(alpha, U, ctx)
        assert report.verdict == "stabilized"
        expected = lattice_from_elements(ctx, [
            poly(ring, N1, cap, {(1,): 1}), poly(ring, N1, cap, {(0,): 1})])
        assert report.lattice == expected
