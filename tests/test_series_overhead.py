"""Differential tests of the lean paths of twisted series products.

``mul`` multiplies two one-term factors without its accumulator and tests
only the length of their one product; ``DaggerSeries.delta`` keys an
unscaled basis series through the packing; ``mul`` with no cocycle reuses
one ``TrivialCocycle`` per ring; ``BicharacterCocycle.value`` reads the
packed fields of its keys; ``MonoidDescriptor.elements_up_to_length``
builds level by level; ``torus_monomial`` reads a link already made in one
lookup; ``mul`` passes identical descriptors on identity tests.  The
versions these replaced are kept here, as they were, as the reference: the
``mul`` loop (with ``_keyed``), the recursive ``elements_up_to_length`` and
``DaggerSeries.delta``.

The outputs must be identical: every (key, (v, u, lossy)) of ``raw`` in
dict order, ``truncated`` and the certificate, the enumeration order, and
the type and message of every error.  Series hold one to four terms over
N^1, N^2, Z^1, Z^2 and the free monoid on two letters, on both backends,
under no cocycle, the trivial, bicharacter and table cocycles, and a
cocycle that takes elements only; caps are small, so products drop terms
and, on Z^k, keep products whose factors' lengths sum past the cap.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from daggerkit import chains
from daggerkit.monoid import (BicharacterCocycle, Cocycle, MonoidDescriptor,
                              MonoidElem, TableCocycle, TrivialCocycle,
                              compose)
from daggerkit.ring import RingDescriptor, ScalarElem
from daggerkit.series import (DaggerSeries, GrowthCertificate, _add_term,
                              _product_certificate, certify, mul, nc_torus,
                              torus_monomial)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])
RINGS = [("padic", 5), ("padic", 2), ("eqchar", 4), ("eqchar", 9)]
N1, N2 = MonoidDescriptor("N", 1), MonoidDescriptor("N", 2)
Z1, Z2 = MonoidDescriptor("Z", 1), MonoidDescriptor("Z", 2)
FREE2 = MonoidDescriptor("free", 2)
MONOIDS = [N1, N2, Z1, Z2, FREE2]
CONSTANTS = (Fraction(1, 2), 1, 2)


# -- the reference: the code as it was --

def ref_keyed(cocycle, monoid):
    if cocycle.keyed:
        return cocycle.value

    def value(s, t, p):
        return cocycle.value(MonoidElem._of(monoid, p.data(s), p.length(s)),
                             MonoidElem._of(monoid, p.data(t), p.length(t)))
    return value


def ref_mul(a, b, cocycle=None):
    a._compat(b)
    if cocycle is None:
        cocycle = TrivialCocycle(a.ring)
    value = ref_keyed(cocycle, a.monoid)
    ring, cap, packing = a.ring, a.degree_cap, a.packing
    plus, times, one = ring._plus, ring._times, ring.ops.one()
    length, additive = packing.length, packing.additive
    right = [(t, y, length(t)) for t, y in b.raw.items()]
    out: dict = {}
    dropped = False
    for s, x in a.raw.items():
        ls, lead = length(s), packing.lead(s)
        for t, y, lt in right:
            u = compose(lead, t)
            # l(s t) <= l(s) + l(t), with equality unless on Z^k
            if ls + lt > cap and (additive or length(u) > cap):
                dropped = True
                continue
            xy = times(x, y)
            c = value(s, t, packing)
            if c.v or c.u != one or c.lossy:
                xy = times(xy, (c.v, c.u, c.lossy))
            _add_term(out, u, xy, plus)
    return DaggerSeries._of(ring, a.monoid, out, packing,
                            _product_certificate(a.certificate,
                                                 b.certificate),
                            truncated=dropped or a.truncated or b.truncated)


def ref_elements_up_to_length(self, bound):
    if self.kind == "free":
        raise ValueError("free monoids are enumerated by words")
    out = []

    def rec(prefix, remaining):
        if len(prefix) == self.rank:
            out.append(MonoidElem._of(self, tuple(prefix),
                                      bound - remaining))
            return
        lo = -remaining if self.kind == "Z" else 0
        for c in range(lo, remaining + 1):
            rec(prefix + [c], remaining - abs(c))

    rec([], bound)
    return out


def ref_delta(ring, monoid, s, degree_cap, coefficient=None):
    x = ring.one() if coefficient is None else coefficient
    return DaggerSeries(ring, monoid, {s: x}, degree_cap)


class ElementCocycle(Cocycle):
    """Takes elements only (``keyed`` False): lambda^(l(s) l(t))."""

    def __init__(self, lam):
        self.lam, self.ring = lam, lam.ring

    def value(self, s, t):
        return self.lam ** (s.length * t.length)


# -- inputs --

def element(draw, monoid, cap):
    if monoid.kind == "free":
        return monoid.element(draw(st.text("ab", max_size=cap)))
    budget, data = draw(st.integers(0, cap)), []
    for _ in range(monoid.rank):
        lo = -budget if monoid.kind == "Z" else 0
        c = draw(st.integers(lo, budget))
        data.append(c)
        budget -= abs(c)
    return monoid.element(data)


def scalar(draw, ring):
    """A small integer, a power of pi, a flagged or an effectively zero
    entry; integers come with their negatives, so sums cancel."""
    x = draw(st.sampled_from([
        ring.scalar(1), ring.scalar(-1), ring.scalar(2), ring.scalar(-2),
        ring.scalar(7), ring.scalar(-7), ring.pi(), ring.pi(2),
        ring.pi(ring.precision)]))
    if draw(st.integers(0, 3)) == 0:
        return ScalarElem(ring, x.v, x.u, True)
    return x


@st.composite
def setups(draw):
    backend, base = draw(st.sampled_from(RINGS))
    ring = RingDescriptor(backend, base, draw(st.sampled_from((3, 12))))
    monoid = draw(st.sampled_from(MONOIDS))
    return ring, monoid, draw(st.integers(0, 4))


def some_series(draw, ring, monoid, cap):
    terms = {element(draw, monoid, cap): scalar(draw, ring)
             for _ in range(draw(st.integers(1, 4)))}
    a = DaggerSeries(ring, monoid, terms, cap,
                     truncated=draw(st.booleans()))
    if a.is_zero or not draw(st.booleans()):
        return a
    c = draw(st.sampled_from(CONSTANTS))
    k = certify(a, c)[1] + draw(st.integers(0, 1))
    return DaggerSeries(ring, monoid, a.terms, cap, GrowthCertificate(c, k),
                        truncated=a.truncated)


def unit(draw, ring):
    b = ring.base
    return ring.from_valuation_unit(0, draw(st.integers(1, b - 1))
                                    + b * draw(st.integers(0, 3)))


def some_cocycle(draw, ring, monoid):
    kinds = ["none", "trivial", "table", "elements"] + (
        ["bicharacter"] if monoid.kind == "Z" else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "none":
        return None
    if kind == "trivial":
        return TrivialCocycle(ring)
    if kind == "elements":
        return ElementCocycle(unit(draw, ring))
    if kind == "bicharacter":
        return BicharacterCocycle(unit(draw, ring), [
            [draw(st.integers(-2, 2)) for _ in range(monoid.rank)]
            for _ in range(monoid.rank)])
    return TableCocycle(ring, {
        (element(draw, monoid, 2), element(draw, monoid, 2)):
        unit(draw, ring) for _ in range(draw(st.integers(1, 4)))})


def twin(a):
    """a under a new ring and monoid descriptor equal to its own."""
    ring = RingDescriptor(a.ring.backend, a.ring.base, a.ring.precision)
    monoid = MonoidDescriptor(a.monoid.kind, a.monoid.rank)
    return DaggerSeries._of(ring, monoid, dict(a.raw),
                            monoid.packing(a.degree_cap), a.certificate,
                            a.truncated)


def assert_same(got, want):
    assert (got.ring, got.monoid, got.degree_cap) == \
        (want.ring, want.monoid, want.degree_cap)
    assert list(got.raw.items()) == list(want.raw.items())
    assert got.truncated == want.truncated
    assert got.certificate == want.certificate


def outcome(fn, *args):
    try:
        return fn(*args), None
    except (ValueError, ZeroDivisionError) as exc:
        return None, (type(exc), str(exc))


# -- mul --

class TestMul:
    @SETTINGS
    @given(st.data())
    def test_products_match_the_loop(self, data):
        ring, monoid, cap = data.draw(setups())
        a = some_series(data.draw, ring, monoid, cap)
        b = some_series(data.draw, ring, monoid, cap)
        cocycle = some_cocycle(data.draw, ring, monoid)
        got, err = outcome(mul, a, b, cocycle)
        want, ref_err = outcome(ref_mul, a, b, cocycle)
        assert err == ref_err
        if err is None:
            assert_same(got, want)
        # equal descriptors that are not the same objects give that product
        assert_same(mul(a, twin(b), cocycle), got)
        assert_same(mul(twin(a), b, cocycle), got)
        # a factor at another cap is refused, identical descriptors or not
        other = DaggerSeries._of(ring, monoid, dict(b.raw),
                                 monoid.packing(cap + 1))
        for x, y in ((a, other), (other, a), (twin(a), other)):
            assert outcome(mul, x, y, cocycle)[1] == \
                (ValueError, "degree cap mismatch") == \
                outcome(ref_mul, x, y, cocycle)[1]

    @SETTINGS
    @given(st.data())
    def test_one_term_products_match_the_loop(self, data):
        ring, monoid, cap = data.draw(setups())
        a, b = (DaggerSeries(ring, monoid, {
            element(data.draw, monoid, cap): scalar(data.draw, ring)}, cap)
            for _ in range(2))
        cocycle = some_cocycle(data.draw, ring, monoid)
        assert_same(mul(a, b, cocycle), ref_mul(a, b, cocycle))

    @pytest.mark.parametrize("monoid", [Z1, Z2])
    def test_z_keeps_a_product_whose_lengths_sum_past_the_cap(self, monoid):
        ring = RingDescriptor("padic", 5, 12)
        cap = 3
        s = monoid.element((cap,) + (0,) * (monoid.rank - 1))
        t = monoid.element((-1,) + (0,) * (monoid.rank - 1))
        a = DaggerSeries.delta(ring, monoid, s, cap, ring.scalar(2))
        b = DaggerSeries.delta(ring, monoid, t, cap)
        got = mul(a, b)
        assert_same(got, ref_mul(a, b))
        assert not got.truncated and got.max_length() == cap - 1
        # and drops one that stays past it
        far = mul(a, DaggerSeries.delta(ring, monoid, monoid.element(
            (1,) + (0,) * (monoid.rank - 1)), cap))
        assert far.truncated and far.is_zero

    def test_one_term_product_takes_its_cocycle_value(self):
        ring = RingDescriptor("eqchar", 9, 12)
        u1, u2, cocycle, monoid = nc_torus(ring, ring.scalar(2), 4)
        got = mul(u2, u1, cocycle)
        assert_same(got, ref_mul(u2, u1, cocycle))
        assert got.coefficient(monoid.element((1, 1))) == ring.scalar(2)

    def test_trivial_cocycle_is_kept_on_its_ring(self):
        ring = RingDescriptor("padic", 5, 12)
        a = DaggerSeries.delta(ring, N1, N1.element((1,)), 3)
        mul(a, a)
        kept = ring._trivial
        mul(a, a)
        assert ring._trivial is kept and isinstance(kept, TrivialCocycle)
        twin = RingDescriptor("padic", 5, 12)
        assert not hasattr(twin, "_trivial")


# -- the basis series --

class TestDelta:
    @SETTINGS
    @given(st.data())
    def test_delta_matches_init(self, data):
        ring, monoid, cap = data.draw(setups())
        other = data.draw(st.sampled_from(MONOIDS))
        s = element(data.draw, other, 5)
        cap = data.draw(st.integers(-1, 4))
        coefficient = data.draw(st.sampled_from([
            None, None, ring.scalar(3), ring.pi(ring.precision),
            RingDescriptor("padic", 7, 3).one()]))
        got, err = outcome(DaggerSeries.delta, ring, monoid, s, cap,
                           coefficient)
        want, ref_err = outcome(ref_delta, ring, monoid, s, cap, coefficient)
        assert err == ref_err
        if err is None:
            assert_same(got, want)
            assert got.terms == want.terms

    def test_errors(self):
        ring = RingDescriptor("padic", 5, 12)
        for monoid, s, cap in ((N2, Z2.element((1, 0)), 3),
                               (N2, N2.element((2, 2)), 3),
                               (Z1, Z1.element((-1,)), -1),
                               (FREE2, FREE2.element("aab"), 2)):
            got = outcome(DaggerSeries.delta, ring, monoid, s, cap)[1]
            assert got == outcome(ref_delta, ring, monoid, s, cap)[1]
            assert got is not None


# -- enumeration and the bicharacter on keys --

@pytest.mark.parametrize("kind", ["N", "Z"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_elements_up_to_length_keeps_its_order(kind, rank):
    monoid = MonoidDescriptor(kind, rank)
    for bound in range(-1, 6):
        got = monoid.elements_up_to_length(bound)
        want = ref_elements_up_to_length(monoid, bound)
        assert [(s.data, s.length) for s in got] == \
            [(s.data, s.length) for s in want]
        assert all(type(s.data) is tuple and s.descriptor is monoid
                   for s in got)
    with pytest.raises(ValueError, match="enumerated by words"):
        FREE2.elements_up_to_length(2)


@SETTINGS
@given(st.data())
def test_bicharacter_reads_the_fields_of_its_keys(data):
    backend, base = data.draw(st.sampled_from(RINGS))
    ring = RingDescriptor(backend, base, 12)
    monoid = data.draw(st.sampled_from([Z1, Z2]))
    cap = data.draw(st.integers(0, 5))
    Q = [[data.draw(st.integers(-3, 3)) for _ in range(monoid.rank)]
         for _ in range(monoid.rank)]
    lam = unit(data.draw, ring)
    cocycle = BicharacterCocycle(lam, Q)
    s, t = element(data.draw, monoid, cap), element(data.draw, monoid, cap)
    packing = monoid.packing(cap)
    want = lam ** sum(s.data[i] * Q[i][j] * t.data[j]
                      for i in range(monoid.rank)
                      for j in range(monoid.rank))
    for got in (cocycle.value(packing.key(s.data), packing.key(t.data),
                              packing), cocycle.value(s, t)):
        assert (got.v, got.u, got.lossy) == (want.v, want.u, want.lossy)


def test_bicharacter_errors_on_keys_and_elements():
    ring = RingDescriptor("padic", 5, 12)
    wrong_size = BicharacterCocycle(ring.scalar(2), [[1]])
    p = Z2.packing(3)
    for call in (lambda: wrong_size.value(p.identity, p.identity, p),
                 lambda: wrong_size.value(Z2.identity(), Z2.identity())):
        with pytest.raises(ValueError, match="Q has wrong size"):
            call()
    on_z2 = BicharacterCocycle(ring.scalar(2), [[0, 1], [0, 0]])
    for call in (lambda: on_z2.value(N2.identity(), N2.identity()),
                 lambda: on_z2.value(0, 0, N2.packing(3))):
        with pytest.raises(ValueError, match="live on Z"):
            call()


# -- torus chains --

def ref_torus_monomial(ring, monoid, cocycle, s1, s2, cap):
    def power(axis, n):
        e = [0, 0]
        e[axis] = 1 if n >= 0 else -1
        p = ref_delta(ring, monoid, monoid.identity(), cap)
        for _ in range(abs(n)):
            p = ref_mul(p, ref_delta(ring, monoid, monoid.element(e), cap),
                        cocycle)
        return p

    return ref_mul(power(0, s1), power(1, s2), cocycle)


def test_chain_hits_follow_their_context():
    ring = RingDescriptor("padic", 5, 12)
    twin_ring = RingDescriptor("padic", 5, 12)
    twin_z2 = MonoidDescriptor("Z", 2)
    cocycle = BicharacterCocycle(ring.scalar(2), [[0, 0], [1, 0]])
    for r, m in ((ring, Z2), (twin_ring, Z2), (ring, twin_z2), (ring, Z2)):
        for s1, s2 in ((2, -1), (1, 1), (-2, 2), (0, 3)):
            got = torus_monomial(r, m, cocycle, s1, s2, 4)
            assert got.ring is r and got.monoid is m
            assert_same(got, ref_torus_monomial(r, m, cocycle, s1, s2, 4))
            # each chain read was made under this context
            for axis, n in enumerate((s1, s2)):
                if n:
                    context, links, _ = cocycle._chains[
                        (4, axis, 1 if n > 0 else -1)]
                    assert context[0] is r and context[1] is m
                    assert all(x.ring is r and x.monoid is m for x in links)
    # a context of new objects, or of another length, is a miss that
    # rebuilds the chain
    owner = type("Owner", (), {})()
    starts = []

    def power(context, n):
        return chains.link(owner, "x", context,
                           lambda: starts.append(context) or 1,
                           lambda x: 2 * x, n)

    assert power((ring, Z2), 3) == 8 and len(starts) == 1
    assert chains.held(owner, "x", (ring, Z2), 2) == 4
    for context in ((twin_ring, Z2), (ring,), (ring, Z2, Z2), ()):
        assert chains.held(owner, "x", context, 2) is None
        assert power(context, 3) == 8 and starts[-1] is context
        assert chains.held(owner, "x", context, 2) == 4


@pytest.mark.parametrize("backend, base", RINGS)
def test_torus_tables_match_repeated_products(backend, base):
    ring = RingDescriptor(backend, base, 12)
    lam = ring.from_valuation_unit(0, base + 1)
    for cocycle in (BicharacterCocycle(lam, [[0, 0], [1, 0]]),
                    TableCocycle(ring, {(Z2.identity(),
                                         Z2.element((1, 0))): lam}), None):
        for s in Z2.elements_up_to_length(3):
            assert_same(torus_monomial(ring, Z2, cocycle, *s.data, 3),
                        ref_torus_monomial(ring, Z2, cocycle, *s.data, 3))
    # cap 0 has no generator
    with pytest.raises(ValueError, match="above the degree cap"):
        torus_monomial(ring, Z2, BicharacterCocycle(
            lam, [[0, 0], [1, 0]]), 1, 0, 0)
