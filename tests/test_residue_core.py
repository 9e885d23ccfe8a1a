"""Differential test of the F_q[[t]] residue core against a schoolbook
reference.

The reference keeps a residue as a list of N GF(q) elements (base-p
encoded ints, low t-degree first) and multiplies GF(q) elements with
``FiniteField``'s polynomial helpers.  The packed-int backend must agree
with it on every operation of the residue protocol and on the base-q
encoding that ``ScalarElem`` exposes through ``unit_encoded``, ``==`` and
``hash``.  The Z_p ``fma`` is checked against plain integers.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from daggerkit.ring import FiniteField, RingDescriptor

SMALL_Q = (2, 3, 4, 5, 8, 9, 25, 27)
PRECISIONS = (1, 2, 3, 40, 160)
# p = 2^31 - 1: a lane of a product needs more than 64 bits; the addend of
# fma widens the lanes of F_2, F_7 and F_8 at N = 7
CASES = [(q, n) for q in SMALL_Q for n in PRECISIONS] + [
    (2147483647, 8), (2, 7), (7, 7), (8, 7)]

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


class Reference:
    """Schoolbook F_q[[t]] / t^N on coefficient lists."""

    def __init__(self, q, n):
        field = FiniteField(q)
        self.q, self.p, self.m, self.n = q, field.p, field.degree, n
        # reduction mod x turns the product of two constants into a * b mod p
        self.modulus = field.modulus or (0, 1)
        self._products = {}
        self._sums = {}

    def _digits(self, a):
        out = []
        for _ in range(self.m):
            a, d = divmod(a, self.p)
            out.append(d)
        return tuple(out)

    def _undigits(self, f):
        return sum(c * self.p**j for j, c in enumerate(f))

    def gf_add(self, a, b):
        key = (a, b)
        if key not in self._sums:
            self._sums[key] = self._undigits(
                (x + y) % self.p for x, y in zip(self._digits(a),
                                                 self._digits(b)))
        return self._sums[key]

    def gf_neg(self, a):
        return self._undigits((-x) % self.p for x in self._digits(a))

    def gf_mul(self, a, b):
        key = (a, b)
        if key not in self._products:
            prod = FiniteField._poly_mulmod(self._digits(a), self._digits(b),
                                            self.modulus, self.p)
            self._products[key] = self._undigits(prod)
        return self._products[key]

    def gf_inv(self, a):
        out, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                out = self.gf_mul(out, base)
            base = self.gf_mul(base, base)
            e >>= 1
        return out

    def add(self, a, b):
        return [self.gf_add(x, y) for x, y in zip(a, b)]

    def neg(self, a):
        return [self.gf_neg(x) for x in a]

    def mul(self, a, b):
        out = [0] * self.n
        for i, x in enumerate(a):
            if x:
                for j in range(self.n - i):
                    if b[j]:
                        out[i + j] = self.gf_add(out[i + j],
                                                 self.gf_mul(x, b[j]))
        return out

    def inv(self, a):
        c0 = self.gf_inv(a[0])
        out = [c0] + [0] * (self.n - 1)
        for k in range(1, self.n):
            acc = 0
            for i in range(1, k + 1):
                acc = self.gf_add(acc, self.gf_mul(a[i], out[k - i]))
            out[k] = self.gf_neg(self.gf_mul(c0, acc))
        return out

    def pow(self, a, e):
        out = [1] + [0] * (self.n - 1)
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def val(self, a):
        return next((i for i, c in enumerate(a) if c), self.n)

    def shift_up(self, a, d):
        return ([0] * d + a)[:self.n]

    def shift_down(self, a, w):
        return a[w:] + [0] * min(w, self.n)

    def mod_pi_power(self, a, e):
        return a[:e] + [0] * (self.n - min(e, self.n))

    def encode(self, a):
        return sum(c * self.q**i for i, c in enumerate(a))


@st.composite
def residues(draw, q, n):
    """Residues with a drawn valuation; sometimes every digit is p - 1, so
    that every lane of a product reaches its bound."""
    if draw(st.integers(0, 5)) == 0:
        coeffs = [q - 1] * n
    else:
        coeffs = draw(st.lists(st.integers(0, q - 1), min_size=n,
                               max_size=n))
    v = draw(st.integers(0, n)) if draw(st.booleans()) else 0
    return [0] * v + coeffs[v:]


def units(q, n):
    return residues(q, n).map(lambda a: [a[0] or 1] + a[1:])


def setup(q, n):
    ring = RingDescriptor("eqchar", q, n)
    ref = Reference(q, n)
    return ring, ring.ops, ref


@pytest.mark.parametrize("q,n", CASES)
def test_arithmetic_matches_reference(q, n):
    ring, ops, ref = setup(q, n)
    worst = [q - 1] * n  # every digit p - 1: each lane reaches its bound

    @SETTINGS
    @given(residues(q, n), residues(q, n), residues(q, n), st.integers(0, 3))
    @example(worst, worst, worst, 3)
    def check(a, b, c, e):
        pa, pb, pc = (ops.decode(ref.encode(x)) for x in (a, b, c))
        assert ops.encode(pa) == ref.encode(a)
        assert ops.encode(ops.add(pa, pb)) == ref.encode(ref.add(a, b))
        assert ops.encode(ops.neg(pa)) == ref.encode(ref.neg(a))
        assert ops.encode(ops.mul(pa, pb)) == ref.encode(ref.mul(a, b))
        assert ops.encode(ops.fma(pa, pb, pc)) == \
            ref.encode(ref.add(a, ref.mul(b, c)))
        assert ops.encode(ops.pow(pa, e)) == ref.encode(ref.pow(a, e))
        assert ops.is_zero(ops.add(pa, ops.neg(pa)))

    check()


@pytest.mark.parametrize("n", PRECISIONS)
@pytest.mark.parametrize("p", (2, 5, 2147483647))
def test_padic_fma_is_plain_int(p, n):
    """``fma(a, f, b)`` of Z_p is (a + f b) mod p^N, the largest residue
    included."""
    ops, modulus = RingDescriptor("padic", p, n).ops, p ** n
    rng = random.Random(f"fma-{p}-{n}")
    top = modulus - 1
    for a, f, b in [(top, top, top), (0, top, 1), (top, 0, top)] + [
            tuple(rng.randrange(modulus) for _ in range(3))
            for _ in range(20)]:
        assert ops.fma(a, f, b) == (a + f * b) % modulus, (a, f, b)


# 17 and 33 need one Newton step more than 16 and 32: the last doubles
# from 9 (17) correct t-degrees to 17 (33)
@pytest.mark.parametrize("q,n", CASES + [(q, n) for q in SMALL_Q
                                         for n in (17, 33)])
def test_inverse_matches_reference(q, n):
    ring, ops, ref = setup(q, n)

    @SETTINGS
    @given(units(q, n))
    def check(a):
        pa = ops.decode(ref.encode(a))
        inv = ops.inv(pa)
        assert ops.encode(inv) == ref.encode(ref.inv(a))
        assert ops.mul(pa, inv) == ops.one()

    check()
    with pytest.raises(ZeroDivisionError):
        ops.inv(ops.shift_up(ops.one(), 1))


@pytest.mark.parametrize("q", SMALL_Q)
def test_constant_term_inverses_are_memoised(q):
    """``inv`` keeps the GF(q) inverse of each constant term it has seen:
    q - 1 entries at most, each the inverse of its key."""
    ring, ops, ref = setup(q, 5)
    digits = [ref.encode([c, 1, 0, q - 1, 1]) for c in range(1, q)]
    for n in digits * 2:
        ops.inv(ops.decode(n))
    assert len(ops._unit_inv) == q - 1
    for c0, g in ops._unit_inv.items():
        assert ops.mul(c0, g) == ops.one()


@pytest.mark.parametrize("q,n", CASES)
def test_digit_operations_match_reference(q, n):
    ring, ops, ref = setup(q, n)

    @SETTINGS
    @given(residues(q, n), st.integers(0, n + 1))
    def check(a, d):
        pa = ops.decode(ref.encode(a))
        assert ops.val(pa) == ref.val(a)
        assert ops.is_zero(pa) == (ref.val(a) == n)
        assert ops.is_unit(pa) == (a[0] != 0)
        assert ops.encode(ops.shift_up(pa, d)) == \
            ref.encode(ref.shift_up(a, d))
        assert ops.encode(ops.shift_down(pa, d)) == \
            ref.encode(ref.shift_down(a, d))
        assert ops.encode(ops.mod_pi_power(pa, d)) == \
            ref.encode(ref.mod_pi_power(a, d))
        # encode/decode round trip, including integers above q^N
        assert ops.decode(ref.encode(a) + q**n * d) == pa

    check()


@pytest.mark.parametrize("q,n", [(4, 40), (5, 40), (9, 3), (27, 8),
                                 (2147483647, 8)])
def test_scalar_elem_agrees_with_reference_encoding(q, n):
    ring, ops, ref = setup(q, n)

    @SETTINGS
    @given(units(q, n), units(q, n), st.integers(0, n + 1),
           st.integers(0, 2))
    def check(a, b, va, vb):
        x = ring.from_valuation_unit(va, ref.encode(a))
        y = ring.from_valuation_unit(vb, ref.encode(b))
        assert x.unit_encoded() == ref.encode(a)
        z = x * y
        assert z.valuation == va + vb
        assert z.unit_encoded() == ref.encode(ref.mul(a, b))
        same = ring.from_valuation_unit(va + vb, ref.encode(ref.mul(a, b)))
        assert z == same and hash(z) == hash(same)
        if va + vb >= n:
            assert z == ring.zero() and hash(z) == hash(ring.zero())
            return
        window = ref.mod_pi_power(ref.mul(a, b), n - (va + vb))
        assert hash(z) == hash((ring, va + vb, ref.encode(window)))
        # digits above the window do not affect == or hash
        bumped = ring.from_valuation_unit(
            va + vb, ref.encode(ref.mul(a, b)) + q**(n - va - vb))
        assert bumped == z and hash(bumped) == hash(z)

    check()
