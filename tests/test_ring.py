"""Scalar arithmetic: valuations, ring axioms, both backends."""

import random

import pytest

from daggerkit.ring import INFINITY, RingDescriptor, arith, div, val


@pytest.fixture
def zp():
    return RingDescriptor("padic", 5, 10)


@pytest.fixture
def fqt():
    return RingDescriptor("eqchar", 3, 8)


def hensel_inverse(a, p, n):
    """Independent oracle: inverse of a mod p^n by Hensel lifting from mod p."""
    b = pow(a, -1, p)
    for i in range(2, n + 1):
        b = (b - (a * b - 1) * b) % p**i
    return b


class TestValuation:
    def test_pi_power_times_unit(self, zp):
        x = zp.pi(3) * zp.scalar(7)
        assert val(x) == 3

    def test_zero_is_infinite(self, zp):
        assert val(zp.zero()) == INFINITY

    def test_unit_from_digit_expansion(self, zp):
        # 2 + 3*5 + 5^2 has residue 2 != 0, hence a unit
        x = zp.scalar(2 + 3 * 5 + 5**2)
        assert val(x) == 0

    def test_valuation_exact_beyond_precision(self, zp):
        assert val(zp.scalar(5**12)) == 12


class TestArith:
    def test_mul_valuations_add(self, zp):
        x = zp.scalar(5 * 2)
        y = zp.scalar(5**2 * 3)
        z = x * y
        assert val(z) == 3
        assert z == zp.scalar(5**3 * 6)

    def test_eqchar_polynomial_product(self, fqt):
        t = fqt.pi()
        x = t + t**2
        y = fqt.one() + t
        prod = x * y
        assert prod == t + fqt.scalar(2) * t**2 + t**3

    def test_additive_inverse(self, zp):
        x = zp.scalar(42) * zp.pi(2)
        assert (x + (-x)).is_zero

    def test_descriptor_mismatch(self, zp, fqt):
        with pytest.raises(ValueError):
            zp.one() + fqt.one()
        coarser = RingDescriptor("padic", 5, 9)
        for op in (lambda x, y: x + y, lambda x, y: x * y,
                   lambda x, y: x / y):
            with pytest.raises(ValueError):
                op(zp.scalar(7), coarser.scalar(3))

    def test_equal_descriptors_combine(self):
        # distinct instances describing the same ring are interchangeable
        r1, r2 = RingDescriptor("padic", 5, 40), RingDescriptor("padic", 5, 40)
        assert r1 is not r2
        x, y = r1.scalar(7), r2.scalar(3)
        assert x + y == r1.scalar(10)
        assert x * y == r2.scalar(21)
        assert (x / y) * y == x

    def test_arith_dispatch(self, zp):
        x, y = zp.scalar(7), zp.scalar(3)
        assert arith("add", x, y) == zp.scalar(10)
        assert arith("sub", x, y) == zp.scalar(4)
        assert arith("mul", x, y) == zp.scalar(21)
        assert arith("neg", x) == zp.scalar(-7)
        assert arith("pow", x, exponent=3) == zp.scalar(343)


class TestDiv:
    def test_valuation_subtracts(self, zp):
        x = div(zp.pi(2), zp.pi(3))
        assert val(x) == -1
        assert x == zp.pi(-1)

    def test_self_division(self, zp):
        for n in (3, 11, 5**2 * 4):
            x = zp.scalar(n)
            assert div(x, x) == zp.one()

    def test_padic_inverse_of_two_matches_hensel_oracle(self):
        # oracle first: the 5-adic inverse of 2 at absolute precision 4
        expected = hensel_inverse(2, 5, 4)
        assert 2 * expected % 5**4 == 1
        assert expected == 313
        ring = RingDescriptor("padic", 5, 4)
        x = div(ring.one(), ring.scalar(2))
        assert x.is_unit
        assert x.unit_encoded() == expected

    def test_division_by_zero(self, zp):
        with pytest.raises(ZeroDivisionError):
            div(zp.one(), zp.zero())


def random_scalar(ring, rng, allow_zero=True, min_val=0, max_val=4):
    if allow_zero and rng.random() < 0.1:
        return ring.zero()
    v = rng.randint(min_val, max_val)
    u = rng.randrange(1, ring.base)
    u += ring.base * rng.randrange(ring.base ** (ring.precision - 1))
    return ring.from_valuation_unit(v, u)


class TestUltrametricProperties:
    """nu(xy) = nu(x) + nu(y); nu(x+y) >= min, with equality off the diagonal."""

    @pytest.mark.parametrize("backend,base", [("padic", 5), ("eqchar", 3),
                                              ("eqchar", 4)])
    def test_identities_both_backends(self, backend, base):
        ring = RingDescriptor(backend, base, 12)
        rng = random.Random(20260810)
        for _ in range(200):
            x = random_scalar(ring, rng, allow_zero=False)
            y = random_scalar(ring, rng, allow_zero=False)
            assert val(x * y) == val(x) + val(y)
            s = x + y
            assert val(s) >= min(val(x), val(y))
            if val(x) != val(y):
                assert val(s) == min(val(x), val(y))

    def test_mul_div_round_trip(self, zp):
        rng = random.Random(7)
        for _ in range(100):
            x = random_scalar(zp, rng, allow_zero=False)
            y = random_scalar(zp, rng, allow_zero=False)
            assert div(x * y, y) == x

    def test_distributivity(self, fqt):
        rng = random.Random(11)
        for _ in range(100):
            x = random_scalar(fqt, rng)
            y = random_scalar(fqt, rng)
            z = random_scalar(fqt, rng)
            assert x * (y + z) == x * y + x * z


class TestPrecisionSemantics:
    def test_total_cancellation_is_lossy_zero(self, zp):
        one_plus = zp.one() + zp.pi(zp.precision + 1)  # tail beyond window
        diff = one_plus - zp.one()
        assert diff.is_zero
        assert diff.lossy

    def test_partial_cancellation_flags(self, zp):
        x = zp.one() + zp.pi(1)   # 1 + pi
        y = zp.one()
        d = x - y                 # = pi after cancelling the units
        assert val(d) == 1
        assert d.lossy

    def test_split_at_pi_power(self, zp):
        x = zp.scalar(5**2 * 7 + 3)
        quo, rem = x.split_at_pi_power(2)
        assert rem == zp.scalar(3)
        assert quo.scaled_by_pi(2) + rem == x


class TestEqcharPrimePower:
    def test_gf4_has_char_two(self):
        ring = RingDescriptor("eqchar", 4, 5)
        assert (ring.one() + ring.one()).is_zero
        # the residue field has 4 elements, three of them units
        units = set()
        for code in range(1, 4):
            x = ring.from_valuation_unit(0, code)
            units.add((x * x).unit_encoded())
        assert len(units) == 3

    def test_gf9_frobenius(self):
        ring = RingDescriptor("eqchar", 9, 4)
        for code in range(1, 9):
            x = ring.from_valuation_unit(0, code)
            assert x**9 == x

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            RingDescriptor("eqchar", 6, 4)
        with pytest.raises(ValueError):
            RingDescriptor("padic", 9, 4)
