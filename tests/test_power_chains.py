"""The memoised power chains of ``daggerkit.chains``.

A chain lives on its owner, in the owner's ``_chains``: the lattice S for
S^n, the cocycle for the powers of U1 and U2 in ``torus_monomial`` and the
affine action for the powers of each substituted line in ``act``;
``series_pow`` keeps nothing.  These tests check what the chains save (the
products a torus table and a repeated substitution make), that owners are
matched by identity and contexts too (equal lattices and rings can carry
different flags or descriptors), and that every chain goes when its owner
is collected, so nothing grows across queries.
"""

import gc
import weakref

import pytest

from daggerkit import crossed, series, spectral
from daggerkit.crossed import AffineAction, act, shift_action
from daggerkit.linalg import Lattice, MatrixV
from daggerkit.monoid import BicharacterCocycle, MonoidDescriptor
from daggerkit.ring import INFINITY, RingDescriptor
from daggerkit.series import DaggerSeries, nc_torus, series_pow, \
    torus_monomial
from daggerkit.spectral import (MatrixAlgebraContext, lattice_from_elements,
                                lattice_product, rho1_estimate)

N2 = MonoidDescriptor("N", 2)
Z2 = MonoidDescriptor("Z", 2)


@pytest.fixture
def ring():
    return RingDescriptor("padic", 5, 20)


def counting(monkeypatch, module, name):
    """Count the calls of module.name from now on."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def chain_names(owner):
    return set(owner._chains)


class TestWhatChainsSave:
    def test_torus_table_makes_one_product_per_monomial(self, ring,
                                                        monkeypatch):
        D = 10
        u1, u2, cocycle, monoid = nc_torus(ring, ring.scalar(7), D)
        table = monoid.elements_up_to_length(D)
        calls = counting(monkeypatch, series, "mul")
        for s in table:
            mono = torus_monomial(ring, monoid, cocycle, *s.data, D)
            assert mono == DaggerSeries.delta(ring, monoid, s, D)
        # one chain of D links per generator and sign, plus the product
        # U1^a * U2^b of each monomial
        assert len(calls) <= 4 * D + len(table)
        # a second table under the same cocycle extends no chain
        del calls[:]
        for s in table:
            torus_monomial(ring, monoid, cocycle, *s.data, D)
        assert len(calls) == len(table)

    def test_torus_table_counts_what_the_tracer_reads(self, ring,
                                                      monkeypatch):
        # the bench's tracer counts series.mul, series.compose and the
        # cocycle's value; the one-term path of mul and the chain hits
        # must leave each count where the general loop had it
        D = 4
        u1, u2, cocycle, monoid = nc_torus(ring, ring.scalar(7), D)
        table = monoid.elements_up_to_length(D)
        pairs = []
        real_mul = series.mul

        def mul(a, b, c=None):
            pairs.append(len(a.raw) * len(b.raw))
            return real_mul(a, b, c)

        monkeypatch.setattr(series, "mul", mul)
        composed = counting(monkeypatch, series, "compose")
        values = counting(monkeypatch, cocycle, "value")
        for s in table:
            torus_monomial(ring, monoid, cocycle, *s.data, D)
        # 41 monomials and the 4 D links of the four chains, each a
        # product of two one-term series, none of them dropped
        assert (len(table), len(pairs), sum(pairs)) == (41, 57, 57)
        assert len(composed) == len(values) == sum(pairs)

    def test_series_pow_keeps_nothing(self, ring, monkeypatch):
        x = DaggerSeries(ring, N2, {N2.element((1, 0)): ring.scalar(2),
                                    N2.identity(): ring.one()}, 8)
        calls = counting(monkeypatch, series, "mul")
        fourth = series_pow(x, 4)
        assert len(calls) == 4
        assert series_pow(x, 4) == fourth
        assert len(calls) == 8
        series_pow(x, 2)
        assert len(calls) == 10

    def test_repeated_substitution_reuses_line_powers(self, ring,
                                                      monkeypatch):
        alpha = shift_action(ring, 2)
        f = DaggerSeries(ring, N2, {N2.element((3, 0)): ring.one(),
                                    N2.element((0, 2)): ring.scalar(3)}, 4)
        calls = counting(monkeypatch, crossed, "series_mul")
        first = act(alpha, 1, f)
        assert len(calls) == 5  # (x + 1)^1..3 and (y + 1)^1..2
        assert act(alpha, 1, f) == first
        assert len(calls) == 5
        # the other direction has chains of its own
        act(alpha, -1, f)
        assert len(calls) == 10


class TestIdentity:
    def test_equal_lattices_keep_their_own_flags(self, ring):
        ctx = MatrixAlgebraContext(ring, 2)
        # diag(1, pi): no sum in its powers cancels, so only the flags
        # of the copy below can flag them
        S = lattice_from_elements(ctx, [MatrixV(ring, [
            [ring.one(), ring.zero()], [ring.zero(), ring.pi()]])])
        flagged = Lattice(ring, S.ambient_rank, S.pi_exponent, tuple(
            tuple(x if x[0] == INFINITY else (x[0], x[1], True) for x in c)
            for c in S.cols))
        assert flagged == S
        rho1_estimate(S, ctx, 3)
        square = spectral._lattice_power(flagged, ctx, 2)
        fresh = lattice_product(ctx, flagged, flagged)
        assert square.cols == fresh.cols
        assert any(x[2] for c in square.cols for x in c)
        assert not any(x[2] for c in spectral._lattice_power(S, ctx, 2).cols
                       for x in c)

    def test_equal_rings_get_their_own_torus_chains(self, ring):
        twin = RingDescriptor("padic", 5, 20)
        cocycle = BicharacterCocycle(ring.scalar(7), [[0, 0], [1, 0]])
        for r in (ring, twin, ring):
            assert torus_monomial(r, Z2, cocycle, 3, -2, 6).ring is r

    def test_caps_get_their_own_chains(self, ring):
        cocycle = BicharacterCocycle(ring.scalar(7), [[0, 0], [1, 0]])
        for cap in (6, 4, 6):
            got = torus_monomial(ring, Z2, cocycle, 2, 1, cap)
            assert got.degree_cap == cap
            assert got == DaggerSeries.delta(ring, Z2, Z2.element((2, 1)),
                                             cap)
        alpha = shift_action(ring, 1)
        n1 = MonoidDescriptor("N", 1)
        for cap in (4, 2, 4):
            f = DaggerSeries(ring, n1, {n1.element((2,)): ring.one()},
                             cap)
            assert act(alpha, 1, f).degree_cap == cap


class TestLifetime:
    def test_chain_goes_with_its_cocycle(self):
        # nothing but the cocycle and its chains holds this ring
        ring = RingDescriptor("padic", 5, 20)
        held = weakref.ref(ring)
        cocycle = BicharacterCocycle(ring.scalar(7), [[0, 0], [1, 0]])
        torus_monomial(ring, Z2, cocycle, 2, -1, 4)
        assert chain_names(cocycle) == {(4, 0, 1), (4, 1, -1)}
        # U1^0 is the unit, which starts no chain
        torus_monomial(ring, Z2, cocycle, 0, 3, 5)
        assert chain_names(cocycle) == {(4, 0, 1), (4, 1, -1), (5, 1, 1)}
        del ring
        gc.collect()
        assert held() is not None
        del cocycle
        gc.collect()
        assert held() is None

    def test_none_cocycle_keeps_nothing(self, ring, monkeypatch):
        calls = counting(monkeypatch, series, "mul")
        for _ in range(2):
            assert torus_monomial(ring, Z2, None, 2, -2, 4) == \
                DaggerSeries.delta(ring, Z2, Z2.element((2, -2)), 4)
        # U1^2 and U2^-2 from the unit, and their product, each time
        assert len(calls) == 2 * 5

    def test_chain_goes_with_its_action(self):
        ring = RingDescriptor("padic", 5, 20)
        held = weakref.ref(ring)
        alpha = shift_action(ring, 2)
        f = DaggerSeries(ring, N2, {N2.element((2, 1)): ring.one()}, 4)
        act(alpha, 1, f)
        act(alpha, -1, f)
        assert chain_names(alpha) == {(1, 4, 0), (1, 4, 1), (-1, 4, 0),
                                      (-1, 4, 1)}
        del ring, f
        gc.collect()
        assert held() is not None
        del alpha
        gc.collect()
        assert held() is None

    def test_trivial_cocycle_goes_with_its_ring(self):
        # mul with no cocycle keeps one TrivialCocycle on the ring, which
        # must not keep the ring alive; no other test makes a ring equal
        # to this one, which a cache keyed by value would find instead
        ring = RingDescriptor("padic", 13, 19)
        held = weakref.ref(ring)
        a = DaggerSeries(ring, N2, {N2.element((1, 0)): ring.scalar(2)}, 4)
        b = DaggerSeries(ring, N2, {N2.element((0, 1)): ring.one(),
                                    N2.identity(): ring.scalar(3)}, 4)
        product = series.mul(a, b)
        assert series.mul(a, b) == product
        del ring, a, b, product
        gc.collect()
        assert held() is None

    def test_nothing_outlives_its_query(self, ring):
        def query(seed):
            u1, u2, cocycle, monoid = nc_torus(ring, ring.scalar(5 * seed + 2), 5)
            for s in monoid.elements_up_to_length(5):
                torus_monomial(ring, monoid, cocycle, *s.data, 5)
            alpha = AffineAction(MatrixV.identity(ring, 2),
                                 [ring.scalar(seed), ring.one()])
            f = DaggerSeries(ring, N2, {N2.element((2, 2)): ring.one()}, 4)
            series_pow(act(alpha, 1, f), 2)
            return weakref.ref(cocycle), weakref.ref(alpha)

        owners = [query(seed) for seed in range(7, 27)]
        gc.collect()
        assert not any(owner() for pair in owners for owner in pair)
