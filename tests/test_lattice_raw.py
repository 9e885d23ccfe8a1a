"""Differential tests of the lattice layer on raw (v, u, lossy) triples.

A ``Lattice`` keeps its Hermite columns as triples and a ``MatrixV`` its
rows, and ``lattice_product``, ``Lattice.sum``, ``Lattice.intersect``,
``Lattice.__eq__``, ``MatrixV.__eq__``, ``membership``, ``contains`` and
``pi_multiplicative`` work on them.  The ScalarElem versions they replaced
are kept here as the reference: generator products of ScalarElem elements,
sums of ``generator_vectors``, the intersection through a ScalarElem
kernel and ``a + z * b``, entrywise equality by the windowed rule that
``ScalarElem.__eq__`` and ``__hash__`` had, and back-substitution on
ScalarElem.  Outputs must be identical: the same pi_exponent, the same
valuation, unit residue and ``lossy`` flag in every Hermite entry, the
same ``==`` (with a hash that agrees with it) and the same exceptions,
except that a sum adding nothing returns the first lattice, whose flags
are a subset of the rebuild's.  Every lattice a constructor returns is in
the canonical form, which its rebuild gives back.  Inputs mix zero
lattices, entries of K (negative pi_exponent), zeros, flagged zeros,
effectively-zero entries (N <= v < inf), flagged entries and rank
deficiency, over padic p in {2, 5} and eqchar q in {4, 5, 9} at N in
{1, 3, 12, 40, 160}, in matrix contexts d <= 4 and one series context.
"""

import random

import pytest

from daggerkit.linalg import Lattice, MatrixV, snf
from daggerkit.monoid import MonoidDescriptor
from daggerkit.ring import INFINITY, RingDescriptor, ScalarElem
from daggerkit.spectral import (MatrixAlgebraContext, SeriesAlgebraContext,
                                lattice_product, lgb_closure,
                                pi_multiplicative)

RINGS = [("padic", 2), ("padic", 5), ("eqchar", 4), ("eqchar", 5),
         ("eqchar", 9)]
PRECISIONS = (1, 3, 12, 40, 160)
CASES = [(b, base, n) for b, base in RINGS for n in PRECISIONS]


# -- the ScalarElem reference --

def ref_generator_vectors(L):
    e = L.pi_exponent
    return [[x if x.v == INFINITY or not e else
             ScalarElem(x.ring, x.v + e, x.u, x.lossy) for x in col]
            for col in zip(*L.gens.entries)]


def ref_elements(ctx, L):
    return [ctx.from_vector(v) for v in ref_generator_vectors(L)]


def ref_product(ctx, a, b):
    """The coordinate vector of a * b, by ScalarElem arithmetic."""
    if isinstance(ctx, SeriesAlgebraContext):
        return ctx.to_vector(ctx.product(a, b))
    out = []
    for i in range(ctx.d):
        for j in range(ctx.d):
            acc = ctx.ring.zero()
            for k in range(ctx.d):
                x, y = a[i, k], b[k, j]
                if not (x.is_zero or y.is_zero):
                    acc = acc + x * y
            out.append(acc)
    return out


def ref_lattice_product(ctx, L1, L2):
    cols = [ref_product(ctx, a, b) for a in ref_elements(ctx, L1)
            for b in ref_elements(ctx, L2)]
    return Lattice.from_columns(ctx.ring, ctx.dim, cols)


def ref_sum(L1, L2):
    if L1.ring != L2.ring:
        raise ValueError("ring descriptor mismatch")
    if L1.ambient_rank != L2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return Lattice.from_columns(
        L1.ring, L1.ambient_rank,
        ref_generator_vectors(L1) + ref_generator_vectors(L2))


def ref_comparable_unit(x):
    if x.is_zero:
        return None
    window = x.ring.precision - max(x.v, 0)
    return 0 if window <= 0 else x.ring.ops.mod_pi_power(x.u, window)


def ref_scalar_eq(x, y):
    if x.ring != y.ring:
        return False
    if x.effectively_zero or y.effectively_zero:
        return x.effectively_zero and y.effectively_zero
    return x.v == y.v and ref_comparable_unit(x) == ref_comparable_unit(y)


def ref_scalar_hash(x):
    if x.effectively_zero:
        return hash((x.ring, INFINITY))
    return hash((x.ring, x.v, x.ring.ops.encode(ref_comparable_unit(x))))


def ref_matrix_eq(A, B):
    return (isinstance(B, MatrixV) and A.ring == B.ring
            and len(A.entries) == len(B.entries)
            and all(len(r) == len(s) and all(map(ref_scalar_eq, r, s))
                    for r, s in zip(A.entries, B.entries)))


def ref_eq(L1, L2):
    return (L1.ring == L2.ring and L1.ambient_rank == L2.ambient_rank
            and ((L1.is_zero and L2.is_zero)
                 or (L1.pi_exponent == L2.pi_exponent
                     and ref_matrix_eq(L1.gens, L2.gens))))


def ref_intersect(L1, L2):
    """The kernel of [G1 | -G2] over V, combined as a + z * b."""
    if L1.ring != L2.ring:
        raise ValueError("ring descriptor mismatch")
    if L1.ambient_rank != L2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    ring, r = L1.ring, L1.ambient_rank
    if L1.is_zero or L2.is_zero:
        return Lattice.zero(ring, r)
    e = min(L1.pi_exponent, L2.pi_exponent)
    g1 = [[x.scaled_by_pi(L1.pi_exponent - e) for x in c]
          for c in zip(*L1.gens.entries)]
    g2 = [[x.scaled_by_pi(L2.pi_exponent - e) for x in c]
          for c in zip(*L2.gens.entries)]
    stacked = MatrixV(ring, [[*(c[i] for c in g1), *((-c[i]) for c in g2)]
                             for i in range(r)])
    res = snf(stacked)
    gens = []
    for j in range(len(res.diagonal_exponents), stacked.cols):
        z = res.W.column(j)
        vec = [ring.zero()] * r
        for idx in range(len(g1)):
            if not z[idx].is_zero:
                vec = [a + z[idx] * b for a, b in zip(vec, g1[idx])]
        gens.append([x.scaled_by_pi(e) for x in vec])
    return Lattice.from_columns(ring, r, gens)


def ref_membership(L, vec):
    if len(vec) != L.ambient_rank:
        raise ValueError("ambient rank mismatch")
    if all(x.effectively_zero for x in vec):  # zero at precision N
        return True
    residual = [x.scaled_by_pi(-L.pi_exponent) for x in vec]
    for j in range(L.gens.cols):
        col = L.gens.column(j)
        row = next(i for i, g in enumerate(col) if not g.effectively_zero)
        x = residual[row]
        if x.effectively_zero:
            continue
        if x.valuation < col[row].valuation:
            return False
        coeff = x / col[row]
        residual = [r - coeff * g for r, g in zip(residual, col)]
    return all(r.effectively_zero for r in residual)


def ref_contains(L, M):
    return all(ref_membership(L, g) for g in ref_generator_vectors(M))


def ref_pi_multiplicative(ctx, U):
    gens = ref_elements(ctx, U)
    for a in gens:
        for b in gens:
            vec = [x.scaled_by_pi(1) for x in ref_product(ctx, a, b)]
            if not ref_membership(U, vec):
                return False
    return True


# -- comparison and inputs --

def sig(x):
    return (x.v, x.u, x.lossy)


def form(L):
    """What must agree: pi_exponent, then every Hermite entry, read both
    from the triples and from ``gens``."""
    if L.is_zero:
        return ("zero", L.ambient_rank, L.gens.rows, L.gens.cols)
    return (L.pi_exponent, [list(c) for c in L.cols],
            [[sig(x) for x in row] for row in L.gens.entries])


def unflagged(f):
    """A form() or outcome() without the ``lossy`` flags."""
    if f[0] == "zero" or isinstance(f[0], type):
        return f
    e, cols, rows = f
    return (e, [[x[:2] for x in c] for c in cols],
            [[x[:2] for x in r] for r in rows])


def flagged_entries(L):
    return {(j, i) for j, c in enumerate(L.cols)
            for i, x in enumerate(c) if x[2]}


def assert_canonical(L):
    """L is in the form every constructor returns: from_columns of its
    generators gives the same pi_exponent and the same (v, u) everywhere,
    and no column lies at or past pi^N once pi_exponent is folded in."""
    again = Lattice.from_columns(L.ring, L.ambient_rank,
                                 L.generator_triples())
    assert unflagged(form(again)) == unflagged(form(L))
    assert all(L.pi_exponent + min(c)[0] < L.ring.precision for c in L.cols)


def check_sum(L, M):
    """L.sum(M) against the rebuild: the same pi_exponent and (v, u)
    everywhere; where M adds nothing to L, L itself with its own flags,
    which the rebuild can only add to; elsewhere the same flags.  Returns
    whether L came back."""
    got, want = outcome(L.sum, M), outcome(ref_sum, L, M)
    assert unflagged(got) == unflagged(want)
    if ref_contains(L, M):
        assert L.sum(M) is L
    if isinstance(got[0], type) or L.sum(M) is not L:
        assert got == want
        return False
    assert flagged_entries(L) <= flagged_entries(ref_sum(L, M))
    return True


def outcome(fn, *args):
    """form() of fn(*args) or its plain value, or what it raised."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))
    return form(out) if isinstance(out, Lattice) else out


class Inputs:
    """Random entries and lattices over one ring."""

    def __init__(self, ring, seed):
        self.ring = ring
        self.rng = random.Random(seed)

    def unit(self, v, lossy=False):
        q, n = self.ring.base, self.ring.precision
        enc = self.rng.randrange(1, q ** n)
        if enc % q == 0:
            enc += 1
        x = self.ring.from_valuation_unit(v, enc)
        return ScalarElem(self.ring, x.v, x.u, lossy)

    def entry(self):
        r, n = self.rng.random(), self.ring.precision
        if r < 0.2:
            return self.ring.zero()
        if r < 0.25:
            return ScalarElem(self.ring, INFINITY, None, lossy=True)
        if r < 0.3:
            return self.unit(n + self.rng.randint(0, 2))
        return self.unit(self.rng.randint(-2, min(n - 1, 3)),
                         lossy=self.rng.random() < 0.1)

    def lattice(self, dim, rank):
        """A lattice from rank random generators; some repeat an earlier
        one up to pi^k or add two (rank deficiency), and the result is
        scaled by pi^k, k in [-3, 2]."""
        cols = [[self.entry() for _ in range(dim)] for _ in range(rank)]
        for i in range(1, rank):
            r = self.rng.random()
            if r < 0.25:
                pik = self.ring.pi(self.rng.randint(0,
                                                    self.ring.precision + 1))
                cols[i] = [pik * x for x in cols[self.rng.randrange(i)]]
            elif r < 0.4:
                cols[i] = [a + b for a, b in zip(cols[0], cols[i - 1])]
        if self.rng.random() < 0.1:
            cols = [[self.unit(self.ring.precision) for _ in range(dim)]]
        L = Lattice.from_columns(self.ring, dim, cols)
        return L.scale_by_pi(self.rng.randint(-3, 2))

    def lattices(self, dim, count):
        out = [Lattice.zero(self.ring, dim)]
        if dim <= 4:  # V^dim has dim generators, so dim^2 products
            out.append(Lattice.standard(self.ring, dim))
        out += [self.lattice(dim, self.rng.randint(1, 3))
                for _ in range(count)]
        return out


def contexts(ring):
    yield from (MatrixAlgebraContext(ring, d) for d in (1, 2, 3, 4))
    yield SeriesAlgebraContext(ring, MonoidDescriptor("N", 2), 2)


def nudged_triples(ring, vectors, position):
    """Vectors of triples with pi^(position(v)) added to the unit of each
    nonzero entry pi^v * u whose nudge stays below pi^N."""
    ops, N = ring.ops, ring.precision
    out = []
    for c in vectors:
        col = []
        for v, u, lossy in c:
            k = position(v)
            if v != INFINITY and 0 < k < N:
                u = ops.add(u, ops.shift_up(ops.one(), k))
            col.append((v, u, lossy))
        out.append(tuple(col))
    return tuple(out)


def nudged(L, position):
    """L with its Hermite entries nudged as by ``nudged_triples``."""
    return Lattice(L.ring, L.ambient_rank, L.pi_exponent,
                   nudged_triples(L.ring, L.cols, position))


# -- the differential tests --

@pytest.mark.parametrize("backend,base,n", CASES)
def test_products_match_the_scalar_route(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    gen = Inputs(ring, f"product-{backend}-{base}-{n}")
    for ctx in contexts(ring):
        lats = gen.lattices(ctx.dim, 2)
        for L1 in lats:
            L2 = gen.rng.choice(lats)
            assert outcome(lattice_product, ctx, L1, L2) == \
                outcome(ref_lattice_product, ctx, L1, L2)
            assert pi_multiplicative(ctx, L1) is \
                ref_pi_multiplicative(ctx, L1)


@pytest.mark.parametrize("backend,base,n", CASES)
def test_sum_equality_and_membership_match(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    gen = Inputs(ring, f"sum-{backend}-{base}-{n}")
    for dim in (1, 3):
        lats = gen.lattices(dim, 3)
        lats += [L.sum(M) for L, M in zip(lats, lats[2:])]
        for L in lats:
            M = gen.rng.choice(lats)
            check_sum(L, M)
            assert L.contains(M) is ref_contains(L, M)
            probes = ref_generator_vectors(M)
            probes.append([gen.entry() for _ in range(dim)])
            for vec in probes:
                assert L.membership(vec) is ref_membership(L, vec)
                raw = [sig(x) for x in vec]
                assert L.membership(raw) is ref_membership(L, vec)
            # digits above the window are invisible, the top one inside is not
            window_edge = nudged(L, lambda v: n - max(v, 0))
            window_top = nudged(L, lambda v: n - max(v, 0) - 1)
            for other in (M, L.sum(L), window_edge, window_top,
                          L.scale_by_pi(1)):
                assert (L == other) is ref_eq(L, other)
                if L == other:
                    assert hash(L) == hash(other)


@pytest.mark.parametrize("backend,base", RINGS)
def test_sum_adds_only_what_is_new(backend, base):
    # pi^4 * span(1) is zero at N = 3, so scaling makes the zero lattice,
    # and its sum with itself is that lattice
    ring = RingDescriptor(backend, base, 3)
    L = Lattice.standard(ring, 1).scale_by_pi(4)
    assert L.is_zero and check_sum(L, L)
    # an entry of W's second column that is zero at N = 3 once the
    # pi^-1 is folded out reaches no pivot: the first is pi exactly
    W = Lattice.from_columns(ring, 2, [
        [ring.scalar(11).scaled_by_pi(2), ring.scalar(5).scaled_by_pi(-1)],
        [ring.scalar(11), ring.pi(-1)]])
    assert W.pi_exponent == -1 and W.cols[0][0][:2] == (1, 1)
    assert check_sum(W, W)
    # pi^3 e1 is zero at N = 3, so it lies in L = pi * span(pi^2, 1),
    # though L's frame sees pi^2 there, and M = pi^3 * span(e1) is zero
    L = Lattice.from_columns(ring, 2, [[ring.pi(2), ring.one()]])
    L, M = L.scale_by_pi(1), Lattice.from_columns(
        ring, 2, [[ring.one(), ring.zero()]]).scale_by_pi(3)
    assert M.is_zero and L.contains(M)
    assert L.membership([ring.pi(3), ring.zero()])
    assert check_sum(L, M) and not check_sum(M, L)
    returned = grown = 0
    for n in PRECISIONS:
        ring = RingDescriptor(backend, base, n)
        gen = Inputs(ring, f"contract-{backend}-{base}-{n}")
        for dim in (1, 2, 3):
            lats = gen.lattices(dim, 4)
            lats += [L.scale_by_pi(-2) for L in lats[2:4]]  # entries in K
            zero = lats[0]
            for L in lats:
                # inside L: itself, pi * L, and a V-combination of its
                # generators; then the zero lattice on either side
                gens = L.generator_vectors()
                inner = Lattice.from_columns(ring, dim, [
                    [sum((gen.unit(0) * g[i] for g in gens), ring.zero())
                     for i in range(dim)]] if gens else [])
                for M in (L, L.scale_by_pi(1), inner, zero,
                          gen.rng.choice(lats)):
                    if check_sum(L, M):
                        returned += 1
                    else:
                        grown += 1
                assert L.sum(zero) is L
                check_sum(zero, L)
                for vec in gens + [[gen.entry() for _ in range(dim)]]:
                    assert L.membership(vec) is ref_membership(L, vec)
    assert returned > 0 and grown > 0


@pytest.mark.parametrize("backend,base", RINGS)
def test_sums_near_the_window_are_the_rebuild(backend, base):
    # columns that reach pi^N once pi_exponent is folded in, where a
    # lattice's own frame and from_columns' cut at N disagree
    rng = random.Random(f"window-{backend}-{base}")
    for n in (1, 2, 3):
        ring = RingDescriptor(backend, base, n)
        for dim in (1, 2, 3, 3, 3):
            lats = [Lattice.from_columns(ring, dim, [[
                ring.zero() if rng.random() < 0.25 else
                ring.scalar(rng.choice((1, 2, 3, 11, 26))).scaled_by_pi(
                    rng.randint(-2, 5)) for _ in range(dim)]
                for _ in range(rng.randint(0, 3))]).scale_by_pi(
                    rng.randint(-2, 4)) for _ in range(4)]
            lats += [lats[0].sum(lats[1]), lats[2].intersect(lats[3])]
            for L in lats:
                for M in lats:
                    check_sum(L, M)


@pytest.mark.parametrize("backend,base,n", CASES)
def test_every_constructor_returns_the_canonical_form(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    gen = Inputs(ring, f"canonical-{backend}-{base}-{n}")
    # over Z_5 at N = 3, W's pivot took digits above the window from an
    # entry that was zero at N
    W = Lattice.from_columns(ring, 2, [
        [ring.scalar(11).scaled_by_pi(2), ring.scalar(5).scaled_by_pi(-1)],
        [ring.scalar(11), ring.pi(-1)]])
    cases = [(ctx, gen.lattices(ctx.dim, 3)) for ctx in contexts(ring)]
    for ctx, lats in cases + [(None, [W])]:  # no context has W's rank
        for L in lats:
            M = gen.rng.choice(lats)
            for out in (L, L.preimage_pi(1), L.preimage_pi(2), L.sum(M),
                        L.intersect(M),
                        *(L.scale_by_pi(e) for e in range(-3, n + 3))):
                assert_canonical(out)
            if ctx:
                assert_canonical(lattice_product(ctx, L, M))
        if ctx:
            S = lats[-1].intersect_with_standard()  # in V: gauges >= 0
            for L in lgb_closure(S, ctx, 3)[0]:
                assert_canonical(L)


@pytest.mark.parametrize("backend,base,n", CASES)
def test_intersection_matches_the_scalar_route(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    gen = Inputs(ring, f"intersect-{backend}-{base}-{n}")
    for dim in (1, 2, 3):
        lats = gen.lattices(dim, 4)
        for L in lats:
            for M in (gen.rng.choice(lats), gen.rng.choice(lats),
                      L.scale_by_pi(1)):
                assert outcome(L.intersect, M) == outcome(ref_intersect, L, M)
        L = lats[-1]
        assert outcome(L.intersect_with_standard) == \
            outcome(ref_intersect, L, Lattice.standard(ring, dim))


def matrix_variants(gen, A):
    """Matrices to compare with A: itself rebuilt, its digits nudged at and
    just inside the window, A with effectively-zero entries made (flagged)
    zeros, pi * A, a random matrix of its shape and other shapes."""
    ring, N = gen.ring, gen.ring.precision
    rows, cols = A.rows, A.cols
    cleared = [[(INFINITY, None, gen.rng.random() < 0.5) if x[0] >= N else x
                for x in row] for row in A.raw]
    return [MatrixV(ring, A.entries),
            MatrixV(ring, nudged_triples(ring, A.raw,
                                         lambda v: N - max(v, 0))),
            MatrixV(ring, nudged_triples(ring, A.raw,
                                         lambda v: N - max(v, 0) - 1)),
            MatrixV(ring, cleared), A.scaled_by_pi(1),
            MatrixV(ring, [[gen.entry() for _ in range(cols)]
                           for _ in range(rows)]),
            MatrixV.zero(ring, rows, cols + 1), MatrixV.zero(ring, rows + 1, 0),
            MatrixV(ring, [row[::-1] for row in A.raw]), "A"]


@pytest.mark.parametrize("backend,base,n", CASES)
def test_matrix_and_scalar_equality_match(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    gen = Inputs(ring, f"equal-{backend}-{base}-{n}")
    edge = [[gen.unit(n), ring.zero(), gen.unit(0)]]  # v = N exactly
    shapes = [(gen.rng.randint(1, 3), gen.rng.randint(0, 3))
              for _ in range(8)]
    for A in [MatrixV(ring, edge)] + [
            MatrixV(ring, [[gen.entry() for _ in range(c)] for _ in range(r)])
            for r, c in shapes]:
        for B in matrix_variants(gen, A):
            assert (A == B) is ref_matrix_eq(A, B)
            if A == B:
                assert hash(A) == hash(B)
            if not isinstance(B, MatrixV) or B.cols != A.cols:
                continue
            for x, y in zip(sum(A.entries, ()), sum(B.entries, ())):
                assert (x == y) is ref_scalar_eq(x, y)
                assert hash(y) == ref_scalar_hash(y)
                assert x._comparable_unit() == ref_comparable_unit(x)
    zero = MatrixV(ring, [[ring.zero(), ring.zero(), ring.zero()]])
    assert MatrixV(ring, edge) != zero
    assert MatrixV(ring, [edge[0][:2]]) == MatrixV(ring, [[ring.zero()] * 2])


def test_mismatches_raise_as_before():
    ring, other_ring = (RingDescriptor("padic", 5, n) for n in (12, 13))
    gen = Inputs(ring, "mismatch")
    L = gen.lattice(4, 2)
    M = Inputs(other_ring, "mismatch").lattice(4, 2)
    assert outcome(L.sum, M) == outcome(ref_sum, L, M)
    assert outcome(L.sum, gen.lattice(2, 1)) == \
        outcome(ref_sum, L, gen.lattice(2, 1))
    assert outcome(L.membership, [ring.one()]) == \
        outcome(ref_membership, L, [ring.one()])
    assert L != M and L != "L"
    ctx = MatrixAlgebraContext(ring, 2)
    for bad in (M, gen.lattice(9, 2)):
        for fn in (lambda: lattice_product(ctx, L, bad),
                   lambda: lattice_product(ctx, bad, L),
                   lambda: pi_multiplicative(ctx, bad)):
            with pytest.raises(ValueError, match="mismatch"):
                fn()


# -- tier-1 guards --

def test_products_sums_and_equality_build_no_scalars(monkeypatch):
    ring = RingDescriptor("padic", 5, 40)
    ctx = MatrixAlgebraContext(ring, 2)
    mats = [[[1, 2], [3, 4]], [[5, 0], [1, 10]], [[0, 25], [7, 1]],
            [[2, 0], [0, 3]]]
    L = Lattice.from_columns(ring, 4, [[ring.scalar(x) for row in m
                                        for x in row] for m in mats])
    assert L.rank == 4
    M = L.scale_by_pi(1)
    built = {"ScalarElem": 0, "MatrixV": 0}
    for cls in (ScalarElem, MatrixV):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    P = lattice_product(ctx, L, L)
    S = L.sum(M)
    assert (L == M, S == L, P == P) == (False, True, True)
    assert built == {"ScalarElem": 0, "MatrixV": 0}


def test_digits_above_the_window_compare_and_hash_equal():
    ring = RingDescriptor("eqchar", 9, 6)
    pi, u = ring.pi(2), ring.from_valuation_unit(0, 4)
    L = Lattice.from_columns(ring, 2, [[ring.one(), pi * u],
                                       [ring.zero(), ring.pi(5)]])
    assert L.cols[0][1][0] == 2  # an entry pi^2 * u with a 4-digit window
    above = nudged(L, lambda v: ring.precision - v)
    inside = nudged(L, lambda v: ring.precision - v - 1)
    assert above.cols != L.cols and inside.cols != L.cols
    assert above == L and hash(above) == hash(L)
    assert inside != L


def test_matrix_kernel_and_intersection_build_only_returned_scalars(
        monkeypatch):
    ring = RingDescriptor("eqchar", 9, 12)
    gen = Inputs(ring, "no-scalars")
    A = MatrixV(ring, [[gen.unit(gen.rng.randint(0, 2)) for _ in range(4)]
                       for _ in range(4)])
    L = Lattice.from_columns(ring, 3, [[gen.unit(0), gen.unit(1), ring.zero()],
                                       [ring.zero(), gen.unit(0), gen.unit(2)]])
    M = Lattice.standard(ring, 3).scale_by_pi(1)
    built = []
    init = ScalarElem.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ScalarElem, "__init__", counting)
    for fn, returned in ((lambda: A * A, 0), (A.inverse, 0),
                         (lambda: snf(A), 0), (A.det, 1),
                         (lambda: L.intersect(M), 0),
                         (lambda: A == A.scaled_by_pi(0), 0),
                         (lambda: hash(A), 0)):
        built.clear()
        fn()
        assert len(built) == returned
    assert L.intersect(M).rank == 2
