"""Differential test of ``Lattice._walk``'s frame, and a work pin for the
pivot map that ``membership`` reads.

``_walk`` back-substitutes a vector against a lattice pi^e * span(H) in
the vector's own frame: the scalar rules commute with multiplication by
pi^e, so its row tests add e, and only the residual it hands to
``_insert`` is shifted into H's frame.  The reference kept here is the
back-substitution it replaced, which shifts the whole vector into H's
frame first and runs the row update as ``plus(a, times(f, b))``, with
the ``sum`` built on it.  Membership answers, walk residuals and sum
outputs must be raw-identical: the same pi_exponent, valuations, unit
residues and ``lossy`` flags.

Inputs: Z_5 and F_9[[t]] at N in {3, 12, 40}; lattices of rank 1 to 4
in K^4 from generators with zeros, flagged zeros, effectively-zero
entries (N <= v < inf), flagged entries and entries of K, each scaled by
pi^e for e in -3..3; vectors that are V-combinations of the generators,
alone or with one entry moved, and random ones; second lattices of one
generator (an insertion when it takes a free row) or of two.
"""

import random

import pytest

from daggerkit import linalg
from daggerkit.linalg import Lattice, MatrixV
from daggerkit.ring import INFINITY, RingDescriptor
from daggerkit.spectral import (MatrixAlgebraContext, lattice_from_elements,
                                pi_multiplicative)

RINGS = [("padic", 5), ("eqchar", 9)]
PRECISIONS = (3, 12, 40)
EXPONENTS = range(-3, 4)
RANK = 4


# -- the reference: back-substitution in H's frame --

def shifted(vec, e):
    return [x if x[0] == INFINITY else (x[0] + e, x[1], x[2]) for x in vec]


def pivot_map(L):
    N = L.ring.precision
    return {next(i for i, x in enumerate(c) if x[0] < N): c for c in L.cols}


def ref_walk(L, vec, pivots):
    ring = L.ring
    plus, times, minus, over = ring._plus, ring._times, ring._minus, \
        ring._over
    N, res = ring.precision, shifted(vec, -L.pi_exponent)
    for r in range(len(res)):
        x = res[r]
        if x[0] < N:
            col = pivots.get(r)
            if col is None or x[0] < col[r][0]:
                return r, res
            f = minus(over(x, col[r]))
            res = [plus(a, times(f, b)) for a, b in zip(res, col)]
    return None


def ref_membership(L, vec):
    # a vector zero at precision N lies in every lattice
    return (ref_walk(L, list(vec), pivot_map(L)) is None
            or all(x[0] >= L.ring.precision for x in vec))


def ref_sum(L, M):
    gens, pivots = M.generator_triples(), pivot_map(L)
    stop = next(filter(None, (ref_walk(L, g, pivots) for g in gens)), None)
    if stop is None:
        return L
    if len(gens) == 1 and L.cols and stop[0] not in pivots \
            and min(gens[0])[0] >= L.pi_exponent:
        return L._insert(*stop, pivots)
    return Lattice.from_columns(L.ring, L.ambient_rank,
                                [*L.generator_triples(), *gens])


# -- inputs --

class Inputs:
    def __init__(self, ring, seed):
        self.ring, self.rng = ring, random.Random(seed)

    def unit(self, v, lossy=False):
        q, n = self.ring.base, self.ring.precision
        enc = self.rng.randrange(1, q ** n)
        x = self.ring.from_valuation_unit(v, enc if enc % q else enc + 1)
        return (x.v, x.u, lossy)

    def entry(self, low=-1):
        n, rng = self.ring.precision, self.rng
        kind = rng.choice(("zero", "flagged", "window", "unit", "unit",
                           "unit"))
        if kind == "zero":
            return (INFINITY, None, False)
        if kind == "flagged":
            return (INFINITY, None, True)
        if kind == "window":
            return self.unit(n + rng.randint(0, 2))
        return self.unit(rng.randint(low, low + n), rng.random() < 0.2)

    def lattice(self):
        cols = [[self.entry() for _ in range(RANK)]
                for _ in range(self.rng.randint(1, RANK))]
        return Lattice.from_columns(self.ring, RANK, cols)

    def combination(self, L):
        """A V-combination of L's generators, in the vector frame."""
        plus, times = self.ring._plus, self.ring._times
        vec = [(INFINITY, None, False)] * RANK
        for g in L.generator_triples():
            if self.rng.random() < 0.8:
                c = self.unit(self.rng.randint(0, 2))
                vec = [plus(a, times(c, b)) for a, b in zip(vec, g)]
        return vec

    def vectors(self, L):
        rng, e = self.rng, L.pi_exponent
        out = []
        for _ in range(6):
            vec = self.combination(L)
            out.append(vec)
            moved = list(vec)
            moved[rng.randrange(RANK)] = self.unit(
                e + rng.randint(-1, self.ring.precision + 1),
                rng.random() < 0.2)
            out.append(moved)
        out.append([self.entry(low=e - 1) for _ in range(RANK)])
        return out


def raw(L):
    return ("zero",) if L.is_zero else (L.pi_exponent, L.cols)


CASES = [(b, base, n) for b, base in RINGS for n in PRECISIONS]


@pytest.mark.parametrize("backend,base,n", CASES)
def test_walk_in_the_vector_frame_is_the_shifted_walk(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    gen = Inputs(ring, f"walk-{backend}-{base}-{n}")
    inserted, answers = 0, set()
    for _ in range(12):
        B = gen.lattice()
        for e in EXPONENTS:
            L = B.scale_by_pi(e)
            for vec in gen.vectors(L):
                ours, ref = L._walk(vec), ref_walk(L, vec, pivot_map(L))
                assert (ours is None) is (ref is None), (e, vec)
                if ours is not None:
                    assert ours[0] == ref[0] and list(ours[1]) == ref[1]
                member = L.membership(vec)
                assert member is ref_membership(L, vec), (e, vec)
                answers.add(member)
            for vecs in ([gen.combination(L)], gen.vectors(L)[1:2],
                         gen.vectors(L)[-2:]):
                M = Lattice.from_columns(ring, RANK, vecs)
                ours = L.sum(M)
                assert raw(ours) == raw(ref_sum(L, M)), (e, vecs)
                inserted += ours.rank > L.rank and len(vecs) == 1
    assert inserted  # some sums grew by one generator
    assert answers == {True, False}


# -- the work pin --

def test_pi_multiplicative_finds_its_pivot_rows_once(monkeypatch):
    """``pi_multiplicative`` on a rank-r lattice U makes r^2 membership
    tests against pi^-1 U, and all of them read one pivot map: r pivot-row
    scans (one per column), where each test used to scan all r columns."""
    ring = RingDescriptor("padic", 5, 40)
    ctx, gen = MatrixAlgebraContext(ring, 2), Inputs(ring, "pin")
    scans, member = [], []
    pivot_row, membership = linalg._pivot_row, Lattice.membership

    def counting_scan(col, N):
        scans.append(1)
        return pivot_row(col, N)

    def counting_membership(self, vec):
        member.append(1)
        return membership(self, vec)

    products = lattice_from_elements(ctx, [
        MatrixV(ring, [[ring.scalar(1 + 5 * i + j) for j in range(2)]
                       for i in range(2)]),
        MatrixV(ring, [[ring.pi(i + j) for j in range(2)] for i in range(2)])])
    dense = Lattice.from_columns(ring, 4, [[gen.unit(0) for _ in range(4)]
                                           for _ in range(4)])
    for U in (Lattice.standard(ring, 4), products, dense):
        scans.clear()
        member.clear()
        monkeypatch.setattr(linalg, "_pivot_row", counting_scan)
        monkeypatch.setattr(Lattice, "membership", counting_membership)
        verdict = pi_multiplicative(ctx, U)
        monkeypatch.undo()
        r = U.rank
        assert len(scans) == r, (r, len(scans))
        assert len(member) == r * r if verdict else 0 < len(member) <= r * r
        pivots = U.pivots
        assert U.scale_by_pi(-1).pivots is pivots
