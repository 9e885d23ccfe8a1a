"""Monoid elements, word lengths, cocycles."""

import random

import pytest

from daggerkit.monoid import (BicharacterCocycle, MonoidDescriptor,
                              TableCocycle, TrivialCocycle, cocycle_check,
                              compose, length_ge1)
from daggerkit.ring import RingDescriptor


@pytest.fixture
def ring():
    return RingDescriptor("padic", 5, 12)


Z2 = MonoidDescriptor("Z", 2)
N2 = MonoidDescriptor("N", 2)
F2 = MonoidDescriptor("free", 2)


class TestCompose:
    def test_z2_product(self):
        s = compose(Z2.element((1, 0)), Z2.element((0, 1)))
        assert s == Z2.element((1, 1))
        assert s.length == 2

    def test_inverse_pair(self):
        s = compose(Z2.element((2, -1)), Z2.element((-2, 1)))
        assert s == Z2.identity()
        assert s.length == 0

    def test_free_concatenation(self):
        s = compose(F2.element("ab"), F2.element("ba"))
        assert s.data == "abba"
        assert s.length == 4

    def test_descriptor_mismatch(self):
        with pytest.raises(ValueError):
            compose(Z2.element((1, 0)), N2.element((1, 0)))

    def test_subadditive_lengths(self):
        rng = random.Random(5)
        for desc in (Z2, N2, F2, MonoidDescriptor("Z", 3)):
            for _ in range(50):
                s = desc.random_element(rng, 5)
                t = desc.random_element(rng, 5)
                assert compose(s, t).length <= s.length + t.length

    def test_zk_inverse_has_same_length(self):
        rng = random.Random(6)
        for _ in range(30):
            s = Z2.random_element(rng, 6)
            inv = Z2.element(tuple(-c for c in s.data))
            assert inv.length == s.length


class TestElements:
    def test_exponents_must_be_integers(self):
        # int() read (1.5, True) as (1, 1); operator.index refuses both
        for monoid, data in ((Z2, (1.5, True)), (Z2, (1, True)),
                             (Z2, (2.0, 0)), (Z2, ("1", 0)), (N2, (0, 0.5)),
                             (N2, (False, 1))):
            with pytest.raises(ValueError, match="must be integers"):
                monoid.element(data)
        s = Z2.element([3, -1])
        assert s.data == (3, -1) and type(s.data[0]) is int
        assert s.length == 4

    def test_free_words_use_the_first_rank_letters(self):
        # any string used to be a word, so "zz" had length 2 in F_2
        for monoid, word in ((F2, "zz"), (F2, "abc"), (F2, "aZb"),
                             (F2, "a b"), (MonoidDescriptor("free", 1), "q")):
            with pytest.raises(ValueError, match="use only"):
                monoid.element(word)
        for word in ("", "a", "abba"):
            assert F2.element(word).length == len(word)
        assert MonoidDescriptor("free", 26).element("az").length == 2


class TestLengthGe1:
    def test_identity_counts_one(self):
        assert length_ge1(Z2.identity()) == 1

    def test_plain_lengths(self):
        assert length_ge1(N2.element((3, 0))) == 3
        assert length_ge1(Z2.element((0, -2))) == 2


class TestCocycles:
    def test_bicharacter_basic_value(self, ring):
        lam = ring.scalar(7)
        c = BicharacterCocycle(lam, [[0, 0], [1, 0]])
        v = c.value(Z2.element((0, 1)), Z2.element((1, 0)))
        assert v == lam

    def test_normalisation(self, ring):
        c = BicharacterCocycle(ring.scalar(7), [[0, 0], [1, 0]])
        s = Z2.element((2, 3))
        assert c.value(s, Z2.identity()) == ring.one()
        assert c.value(Z2.identity(), s) == ring.one()

    def test_zero_exponent(self, ring):
        c = BicharacterCocycle(ring.scalar(7), [[0, 0], [1, 0]])
        assert c.value(Z2.element((1, 0)), Z2.element((0, 1))) == ring.one()

    def test_non_unit_lambda_rejected(self, ring):
        with pytest.raises(ValueError):
            BicharacterCocycle(ring.pi(), [[0, 0], [1, 0]])

    def test_q_must_be_a_square_integer_matrix(self, ring):
        # [[1], [2]] on Z^2 used to fail with an IndexError inside value,
        # and [[1, 0, 0], [2, 1, 0]] used to drop its last column silently
        for Q in ([[1], [2]], [[1, 0, 0], [2, 1, 0]], [], [[1, 0], [0]],
                  [[1.5, 0], [0, 1]], [["1", 0], [0, 1]], [[True, 0], [0, 1]],
                  5, [[1, 0], 7]):
            with pytest.raises(ValueError, match="square matrix of integers"):
                BicharacterCocycle(ring.scalar(2), Q)
        c = BicharacterCocycle(ring.scalar(2), ((1, -2), (0, 3)))
        assert c.Q == ((1, -2), (0, 3))

    def test_q_of_another_rank_is_rejected_by_value(self, ring):
        c = BicharacterCocycle(ring.scalar(2), [[0, 1], [1, 0]])
        z3 = MonoidDescriptor("Z", 3)
        s = z3.element((1, 0, 2))
        with pytest.raises(ValueError, match="wrong size"):
            c.value(s, s)
        key = z3.packing(4).key(s.data)
        with pytest.raises(ValueError, match="wrong size"):
            c.value(key, key, z3.packing(4))

    def test_cocycle_check_accepts_bicharacters(self, ring):
        rng = random.Random(17)
        for _ in range(5):
            Q = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            c = BicharacterCocycle(ring.scalar(rng.choice((2, 3, 7))), Q)
            assert cocycle_check(c, Z2, sample_count=40, seed=1)

    def test_cocycle_check_accepts_trivial(self, ring):
        assert cocycle_check(TrivialCocycle(ring), Z2, seed=2)

    def test_cocycle_check_rejects_bad_normalisation(self, ring):
        s = Z2.element((1, 0))
        bad = TableCocycle(ring, {(Z2.identity(), s): ring.scalar(2)})
        assert not cocycle_check(bad, Z2, sample_count=200, seed=3)


class TestSecondLengthFunction:
    """Cross-check: word length on Z with respect to {+-1, +-2} is
    comparable to the canonical one by linear inequalities."""

    @staticmethod
    def doubled_generator_length(n: int) -> int:
        return (abs(n) + 1) // 2

    def test_linear_comparability(self):
        Z1 = MonoidDescriptor("Z", 1)
        for n in range(-40, 41):
            l1 = Z1.element((n,)).length
            l2 = self.doubled_generator_length(n)
            assert l2 <= l1 <= 2 * l2 + (1 if n == 0 else 0)
            if n != 0:
                assert l1 <= 2 * l2
