"""Differential test of ``Lattice.sum``'s insertion against the rebuild.

When the second lattice adds to the first, L, one generator that, in L's
frame, first stays below N at a row that no pivot of L takes, ``sum``
inserts that generator into L's Hermite form
(``Lattice._insert``) instead of running ``from_columns`` on both
generator sets.  The result must be the rebuild's, raw triple for raw
triple: the same pi_exponent, valuations, unit residues and ``lossy``
flags.  Every other sum that grows is the rebuild itself.

The inputs are built so that each case takes a known path, and the test
checks that it did: a new pivot above the first pivot of L, between two
of them and after the last, each with and without a flagged pivot in L;
and the four sums that must rebuild: the generator takes a pivot row of
L (its valuation there is below the pivot's), it lies outside L's frame,
L is zero, or the second lattice adds two generators.  L's generators are
in echelon form at random pivot rows, with zeros, flagged zeros,
effectively-zero entries (N <= v < inf) and entries just inside the
window below their pivots; the new generator is a combination of L's
generators with unit or zero coefficients, plus its new entry and a
random tail below it.  Rings: Z_2, Z_5, F_4[[t]] and F_9[[t]] at N in
{1, 3, 12, 40}.
"""

import functools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from daggerkit import linalg
from daggerkit.linalg import Lattice
from daggerkit.ring import INFINITY, RingDescriptor, ScalarElem

RINGS = [("padic", 2), ("padic", 5), ("eqchar", 4), ("eqchar", 9)]
PRECISIONS = (1, 3, 12, 40)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])
INSERTS = ("above", "between", "after")
REBUILDS = ("pivot_row", "frame", "zero", "two_generators")


@functools.lru_cache(maxsize=None)
def ring_of(backend, base, n):
    return RingDescriptor(backend, base, n)


# -- inputs --

@st.composite
def units(draw, ring, v, lossy=False):
    """pi^v times a random unit."""
    q, n = ring.base, ring.precision
    enc = draw(st.integers(1, q ** n - 1))
    if enc % q == 0:
        enc += 1
    x = ring.from_valuation_unit(v, enc)
    return ScalarElem(ring, x.v, x.u, lossy)


@st.composite
def entries(draw, ring, low=0):
    """A zero, a flagged zero, an effectively-zero entry, one just inside
    the window, or pi^v u with v >= low; some are flagged."""
    n = ring.precision
    kind = draw(st.sampled_from(("zero", "flagged", "window", "edge",
                                 "unit", "unit", "unit")))
    if kind == "zero":
        return ring.zero()
    if kind == "flagged":
        return ScalarElem(ring, INFINITY, None, True)
    if kind == "window":
        return draw(units(ring, n + draw(st.integers(0, 2))))
    if kind == "edge":
        return draw(units(ring, max(n - 1, low)))
    return draw(units(ring, draw(st.integers(low, max(low, n + 1))),
                      draw(st.booleans()) and draw(st.booleans())))


@st.composite
def echelon(draw, ring, dim, rows, valuations=None, flagged=()):
    """Generators with pivots at the given rows, of the given valuations
    (pivot row -> valuation) or random ones below N: zeros, flagged or
    not, above each pivot, and random entries below it.  A pivot in
    ``flagged`` is flagged."""
    n, valuations = ring.precision, valuations or {}
    gens = []
    for p in rows:
        v = valuations.get(p, draw(st.integers(0, n - 1)))
        col = [draw(st.sampled_from((ring.zero(), ScalarElem(
            ring, INFINITY, None, True)))) for _ in range(p)]
        col.append(draw(units(ring, v, p in flagged)))
        col += [draw(entries(ring)) for _ in range(p + 1, dim)]
        gens.append(col)
    return gens


@st.composite
def extension(draw, L, r, v):
    """A combination of L's generators plus pi^v u at row r and a tail
    below r of valuation at least v, all in the absolute frame.  The
    coefficients are units or zeros, so that back-substitution removes the
    combination exactly: a coefficient of valuation k would take pi^k H,
    whose pivots can reach pi^N while its other entries do not."""
    ring, dim = L.ring, L.ambient_rank
    vec = [ring.zero()] * dim
    for g in L.generator_vectors():
        if draw(st.booleans()):
            a = draw(units(ring, 0, draw(st.booleans())))
            vec = [x + a * y for x, y in zip(vec, g)]
    vec[r] = vec[r] + draw(units(ring, v, draw(st.booleans())))
    for i in range(r + 1, dim):
        vec[i] = vec[i] + draw(entries(ring, max(v, 0))).scaled_by_pi(
            min(v, 0))
    return vec


@st.composite
def insert_cases(draw, where, flag):
    """(L, M, j): M adds one generator that becomes L's pivot at a row
    past j of L's pivots."""
    backend, base = draw(st.sampled_from(RINGS))
    ring = ring_of(backend, base, draw(st.sampled_from(PRECISIONS)))
    dim = draw(st.integers({"above": 2, "between": 3, "after": 2}[where],
                           5))
    if where == "above":
        r = draw(st.integers(0, dim - 2))
        pool = range(r + 1, dim)
    elif where == "between":
        r = draw(st.integers(1, dim - 2))
        pool = [*range(r), *range(r + 1, dim)]
    else:
        r = draw(st.integers(1, dim - 1))
        pool = range(r)
    rows = sorted(draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=len(pool), unique=True)))
    if where == "between" and (rows[0] > r or rows[-1] < r):
        rows = sorted({*rows, draw(st.integers(0, r - 1)),
                       draw(st.integers(r + 1, dim - 1))})
    # at least one flagged pivot, and not always all of them
    flagged = {rows[0], *draw(st.sets(st.sampled_from(rows)))} if flag \
        else set()
    gens = echelon(ring, dim, rows, flagged=flagged)
    L = Lattice.from_columns(ring, dim, draw(gens)).scale_by_pi(
        draw(st.integers(-2, 0)))
    e = L.pi_exponent
    v = e + draw(st.integers(0, ring.precision - 1 - max(e, 0)))
    M = Lattice.from_columns(ring, dim, [draw(extension(L, r, v))])
    return L, M, sum(p < r for p in rows)


@st.composite
def rebuild_cases(draw, why):
    """(L, M) whose sum grows and must be rebuilt, for reason ``why``."""
    backend, base = draw(st.sampled_from(RINGS))
    n = draw(st.sampled_from(PRECISIONS[1:] if why == "pivot_row"
                             else PRECISIONS))
    ring = ring_of(backend, base, n)
    dim = draw(st.integers(3 if why == "two_generators" else 2, 5))
    if why == "pivot_row":
        # a pivot of valuation >= 1 beside one of valuation 0, so that
        # the frame is 0 and a generator can sit below the first there
        p0, p1 = draw(st.lists(st.integers(0, dim - 1), min_size=2,
                               max_size=2, unique=True))
        v0 = draw(st.integers(1, n - 1))
        L = Lattice.from_columns(ring, dim, draw(echelon(
            ring, dim, sorted((p0, p1)), {p0: v0, p1: 0})))
        w = draw(st.integers(0, v0 - 1))
        M = Lattice.from_columns(ring, dim, [draw(extension(L, p0, w))])
        return L, M
    if why == "zero":
        M = Lattice.from_columns(ring, dim, [
            draw(extension(Lattice.zero(ring, dim),
                           draw(st.integers(0, dim - 1)),
                           draw(st.integers(-2, n - 1))))])
        return Lattice.zero(ring, dim), M
    if why == "frame":
        rows = sorted(draw(st.lists(st.integers(0, dim - 1), min_size=1,
                                    unique=True)))
        L = Lattice.from_columns(ring, dim, draw(echelon(ring, dim, rows)))
        r = draw(st.integers(0, dim - 1))
        # an entry below L's frame
        M = Lattice.from_columns(ring, dim, [draw(extension(
            L, r, L.pi_exponent - draw(st.integers(1, 2))))])
        return L, M
    # two generators at two rows that no pivot of L takes
    r1, r2 = sorted(draw(st.lists(st.integers(0, dim - 1), min_size=2,
                                  max_size=2, unique=True)))
    pool = [i for i in range(dim) if i not in (r1, r2)]
    rows = sorted(draw(st.lists(st.sampled_from(pool), min_size=1,
                                unique=True)))
    L = Lattice.from_columns(ring, dim, draw(echelon(ring, dim, rows)))
    e = max(L.pi_exponent, 0)
    M = Lattice.from_columns(ring, dim, [
        draw(extension(L, r, e + draw(st.integers(0, n - 1 - e))))
        for r in (r1, r2)])
    assume(M.rank == 2)  # both stay generators of M
    return L, M


# -- the path a sum takes, and its raw output --

def raw(L):
    return ("zero",) if L.is_zero else (L.pi_exponent, L.cols)


def traced_sum(L, M):
    """L.sum(M) with the number of Hermite rebuilds it ran and the insert
    position of each ``_insert`` it made."""
    forms, inserts = [], []
    hermite, insert = linalg._column_hermite, Lattice._insert

    def counting(*args):
        forms.append(1)
        return hermite(*args)

    def spying(self, r, new, pivots):
        inserts.append(sum(p < r for p in pivots))
        return insert(self, r, new, pivots)

    linalg._column_hermite, Lattice._insert = counting, spying
    try:
        out = L.sum(M)
    finally:
        linalg._column_hermite, Lattice._insert = hermite, insert
    return out, len(forms), inserts


def rebuild(L, M):
    return Lattice.from_columns(L.ring, L.ambient_rank,
                                [*L.generator_triples(),
                                 *M.generator_triples()])


# -- the tests --

@pytest.mark.parametrize("flag", (False, True))
@pytest.mark.parametrize("where", INSERTS)
def test_insertion_is_the_rebuild(where, flag):
    @SETTINGS
    @given(insert_cases(where, flag))
    def run(case):
        L, M, j = case
        assert L.lossy or not flag
        out, forms, inserts = traced_sum(L, M)
        assert (forms, inserts) == (0, [j])
        assert raw(out) == raw(rebuild(L, M))
        assert out.rank == L.rank + 1

    run()


@pytest.mark.parametrize("why", REBUILDS)
def test_other_growing_sums_rebuild(why):
    @SETTINGS
    @given(rebuild_cases(why))
    def run(case):
        L, M = case
        out, forms, inserts = traced_sum(L, M)
        assert (forms, inserts) == (1, [])
        assert raw(out) == raw(rebuild(L, M))
        assert not L.contains(M)

    run()
