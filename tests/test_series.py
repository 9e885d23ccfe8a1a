"""Twisted series: convolution, certificates, envelope oracle."""

import random
from fractions import Fraction

import pytest

from daggerkit.monoid import (BicharacterCocycle, MonoidDescriptor,
                              TableCocycle, TrivialCocycle)
from daggerkit.ring import RingDescriptor
from daggerkit.series import (DaggerSeries, GrowthCertificate, add_scale,
                              best_certificate, certify,
                              membership_filtration, mul, nc_torus,
                              series_pow, torus_monomial)

N1 = MonoidDescriptor("N", 1)
Z2 = MonoidDescriptor("Z", 2)


@pytest.fixture
def ring():
    return RingDescriptor("padic", 5, 20)


def geometric(ring, cap, scale_val=1):
    """sum over n of pi^(scale_val*n) delta_n on N^1."""
    terms = {N1.element((n,)): ring.pi(scale_val * n) for n in range(cap + 1)}
    return DaggerSeries(ring, N1, terms, cap)


def random_series(ring, monoid, rng, cap, n_terms=4, min_val=0, max_val=4):
    terms = {}
    for _ in range(n_terms):
        s = monoid.random_element(rng, cap)
        u = rng.randrange(1, 50)
        if u % ring.base == 0:
            u += 1
        terms[s] = ring.scalar(u).scaled_by_pi(rng.randint(min_val, max_val))
    return DaggerSeries(ring, monoid, terms, cap)


class TestMul:
    def test_torus_commutation_relation(self, ring):
        lam = ring.scalar(7)
        u1, u2, c, monoid = nc_torus(ring, lam, 6)
        left = mul(u2, u1, c)
        right = mul(u1, u2, c)
        s = monoid.element((1, 1))
        assert left.coefficient(s) == lam
        assert right.coefficient(s) == ring.one()

    def test_unit_element(self, ring):
        rng = random.Random(1)
        lam = ring.scalar(3)
        u1, u2, c, monoid = nc_torus(ring, lam, 6)
        a = random_series(ring, monoid, rng, 6)
        one = DaggerSeries.unit(ring, monoid, 6)
        assert mul(a, one, c) == a
        assert mul(one, a, c) == a

    def test_shift_truncates_with_flag(self, ring):
        cap = 5
        a = geometric(ring, cap)
        shift = DaggerSeries.delta(ring, N1, N1.element((1,)), cap)
        prod = mul(a, shift)
        assert prod.truncated
        for n in range(1, cap + 1):
            assert prod.coefficient(N1.element((n,))) == ring.pi(n - 1)
        assert prod.coefficient(N1.element((0,))).is_zero

    def test_untwisted_abelian_commutes(self, ring):
        rng = random.Random(2)
        for _ in range(20):
            a = random_series(ring, Z2, rng, 5, n_terms=3)
            b = random_series(ring, Z2, rng, 5, n_terms=3)
            assert mul(a, b) == mul(b, a)

    def test_twisted_associativity_when_untruncated(self, ring):
        rng = random.Random(3)
        cap = 6
        for _ in range(40):
            Q = [[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)]
            c = BicharacterCocycle(ring.scalar(rng.choice((2, 3, 7))), Q)
            a = random_series(ring, Z2, rng, 2, n_terms=2)
            b = random_series(ring, Z2, rng, 2, n_terms=2)
            d = random_series(ring, Z2, rng, 2, n_terms=2)
            a = DaggerSeries(ring, Z2, a.terms, cap)
            b = DaggerSeries(ring, Z2, b.terms, cap)
            d = DaggerSeries(ring, Z2, d.terms, cap)
            left = mul(mul(a, b, c), d, c)
            right = mul(a, mul(b, d, c), c)
            assert not left.truncated and not right.truncated
            assert left == right

    def test_certificate_combination(self, ring):
        a = geometric(ring, 6)
        ok, k = certify(a, 1)
        a = DaggerSeries(ring, N1, a.terms, 6, GrowthCertificate(1, k))
        prod = mul(a, a)
        assert prod.certificate == GrowthCertificate(1, 1)
        # attached certificate must hold on the computed product
        env = best_certificate(prod)
        assert env.admits(prod.certificate)


class TestCertify:
    def test_geometric_passes_at_c_one(self, ring):
        ok, k = certify(geometric(ring, 8), 1)
        assert ok and k == 0

    def test_flat_series_needs_offset(self, ring):
        cap = 8
        flat = DaggerSeries(ring, N1,
                            {N1.element((n,)): ring.one()
                             for n in range(cap + 1)}, cap)
        ok, k = certify(flat, 1)
        assert not ok
        assert k == cap - 1

    def test_zero_series(self, ring):
        zero = DaggerSeries.zero(ring, N1, 4)
        for c in (Fraction(1, 2), 1, 3):
            assert certify(zero, c) == (True, 0)

    def test_invalid_certificate_rejected(self, ring):
        with pytest.raises(ValueError):
            DaggerSeries(ring, N1, {N1.element((5,)): ring.one()}, 8,
                         GrowthCertificate(1, 0))


class TestBestCertificate:
    def test_single_term(self, ring):
        monoid = MonoidDescriptor("N", 2)
        a = DaggerSeries(ring, monoid,
                         {monoid.element((2, 0)): ring.pi(3)}, 4)
        env = best_certificate(a)
        for c in (Fraction(1, 2), 1, 2):
            assert env.minimal_offset(c) == 0
        assert env.minimal_offset(3) == 2  # 3*2 - 4 = 2

    def test_two_constraints(self, ring):
        a = DaggerSeries(ring, N1, {N1.element((0,)): ring.one(),
                                    N1.element((5,)): ring.pi(1)}, 6)
        env = best_certificate(a)
        assert env.minimal_offset(1) == 3

    def test_geometric_envelope_is_a_line(self, ring):
        env = best_certificate(geometric(ring, 8))
        assert env.vertices == [(0, 1), (8, 9)]

    def test_zero_series_raises(self, ring):
        with pytest.raises(ValueError):
            best_certificate(DaggerSeries.zero(ring, N1, 4))

    def test_envelope_matches_certify_everywhere(self, ring):
        rng = random.Random(8)
        cs = [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2]
        for _ in range(40):
            a = random_series(ring, N1, rng, 8, n_terms=5)
            env = best_certificate(a)
            for c in cs:
                assert env.minimal_offset(c) == certify(a, c)[1]


class TestFiltrationMembership:
    def test_direct_check(self, ring):
        a = DaggerSeries(ring, N1, {N1.element((3,)): ring.pi(1)}, 4)
        assert membership_filtration(a, 2)
        assert not membership_filtration(a, 1)

    def test_identity_in_all_levels(self, ring):
        one = DaggerSeries.unit(ring, N1, 4)
        for n in (1, 2, 5):
            assert membership_filtration(one, n)

    def test_certified_series_lands_in_predicted_level(self, ring):
        rng = random.Random(9)
        for _ in range(30):
            a = random_series(ring, N1, rng, 8)
            ok, k = certify(a, 1)
            if not ok:
                continue
            # nu + 1 >= l(s) gives membership for every n >= 1
            for n in (1, 2, 3):
                assert membership_filtration(a, n)


class TestAddScale:
    def test_identity_and_inverse(self, ring):
        rng = random.Random(10)
        a = random_series(ring, N1, rng, 6)
        zero = DaggerSeries.zero(ring, N1, 6)
        assert add_scale(a, zero, ring.one()) == a
        assert add_scale(a, a, -ring.one()).is_zero or \
            add_scale(a, a, -ring.one()) == DaggerSeries.zero(ring, N1, 6)

    def test_pi_scaling_improves_offset(self, ring):
        cap = 6
        flat = DaggerSeries(ring, N1,
                            {N1.element((n,)): ring.one()
                             for n in range(cap + 1)}, cap)
        _, k0 = certify(flat, 1)
        scaled = add_scale(DaggerSeries.zero(ring, N1, cap), flat, ring.pi())
        _, k1 = certify(scaled, 1)
        assert k1 == k0 - 1

    def test_certificate_shift(self, ring):
        cap = 6
        flat = DaggerSeries(ring, N1,
                            {N1.element((n,)): ring.one()
                             for n in range(cap + 1)}, cap,
                            GrowthCertificate(1, cap - 1))
        scaled = add_scale(DaggerSeries.zero(ring, N1, cap), flat, ring.pi(2))
        assert scaled.certificate == GrowthCertificate(1, cap - 3)
        assert best_certificate(scaled).admits(scaled.certificate)


class TestTorusPowers:
    def test_monomials_match_deltas(self, ring):
        lam = ring.scalar(11)
        u1, u2, c, monoid = nc_torus(ring, lam, 6)
        for s1 in range(-3, 4):
            for s2 in range(-3, 4):
                if abs(s1) + abs(s2) > 6:
                    continue
                mono = torus_monomial(ring, monoid, c, s1, s2, 6)
                expected = DaggerSeries.delta(ring, monoid,
                                              monoid.element((s1, s2)), 6)
                assert mono == expected

    def test_inverses(self, ring):
        lam = ring.scalar(7)
        u1, u2, c, monoid = nc_torus(ring, lam, 6)
        u1_inv = DaggerSeries.delta(ring, monoid, monoid.element((-1, 0)), 6)
        assert mul(u1, u1_inv, c) == DaggerSeries.unit(ring, monoid, 6)

    def test_power_via_series_pow(self, ring):
        lam = ring.scalar(7)
        u1, u2, c, monoid = nc_torus(ring, lam, 6)
        cube = series_pow(u1, 3, c)
        assert cube == DaggerSeries.delta(ring, monoid,
                                          monoid.element((3, 0)), 6)

    def test_powers_multiply_left_to_right(self, ring):
        # this table breaks the cocycle identity, so ((1 * U) * U) * U and
        # U * (U * U) differ, and so do U^4 and the binary (U^2)^2: the
        # powers must be the left-to-right chain
        def e(a, b):
            return Z2.element((a, b))

        table = TableCocycle(ring, {
            (e(2, 0), e(1, 0)): ring.scalar(2),
            (e(1, 0), e(2, 0)): ring.scalar(11),
            (e(3, 0), e(1, 0)): ring.scalar(19),
            (e(2, 0), e(2, 0)): ring.scalar(17),
            (e(0, -2), e(0, -1)): ring.scalar(3),
            (e(0, -1), e(0, -2)): ring.scalar(13),
            (e(3, 0), e(0, -3)): ring.scalar(7)})

        def delta(a, b, x=1):
            return DaggerSeries.delta(ring, Z2, e(a, b), 6, ring.scalar(x))

        u1 = delta(1, 0)
        assert series_pow(u1, 3, table) == delta(3, 0, 2)
        assert mul(u1, mul(u1, u1, table), table) == delta(3, 0, 11)
        assert series_pow(u1, 4, table) == delta(4, 0, 2 * 19)
        square = series_pow(u1, 2, table)
        assert mul(square, square, table) == delta(4, 0, 17)
        # U1^3 U2^-3: (2) from U1^3, (3) from U2^-3, (7) joining them
        assert torus_monomial(ring, Z2, table, 3, -3, 6) == \
            delta(3, -3, 2 * 3 * 7)


class TestDescriptorChecks:
    def test_equal_descriptors_combine(self):
        # distinct but equal ring and monoid descriptors are interchangeable
        r1, r2 = RingDescriptor("padic", 5, 20), RingDescriptor("padic", 5, 20)
        m1, m2 = MonoidDescriptor("N", 1), MonoidDescriptor("N", 1)
        a = DaggerSeries(r1, m1, {m2.element((1,)): r2.scalar(3)}, 4)
        b = DaggerSeries(r2, m2, {m1.element((2,)): r1.scalar(2)}, 4)
        assert mul(a, b) == DaggerSeries(r1, m1, {m1.element((3,)):
                                                  r1.scalar(6)}, 4)
        assert add_scale(a, b, r2.one()).coefficient(m1.element((2,))) == \
            r1.scalar(2)

    def test_mismatches_still_raise(self):
        ring = RingDescriptor("padic", 5, 20)
        coarser = RingDescriptor("padic", 5, 9)
        s = N1.element((1,))
        with pytest.raises(ValueError, match="wrong ring"):
            DaggerSeries(ring, N1, {s: coarser.one()}, 4)
        with pytest.raises(ValueError, match="wrong monoid"):
            DaggerSeries(ring, Z2, {s: ring.one()}, 4)
        a = DaggerSeries(ring, N1, {s: ring.one()}, 4)
        for b in (DaggerSeries(coarser, N1, {s: coarser.one()}, 4),
                  DaggerSeries(ring, MonoidDescriptor("N", 2), {}, 4)):
            with pytest.raises(ValueError, match="series descriptor"):
                mul(a, b)
