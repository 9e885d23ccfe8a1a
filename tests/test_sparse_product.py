"""Differential tests of the ring's one matrix product.

``MatrixV.__mul__`` and ``MatrixAlgebraContext._products`` multiply rows
cut into (k, triple) pairs without their zeros (``linalg._sparse``,
``ring._product``).  The reference is the product they replaced: entry
(i, j) is the ring's ``_dot`` of row i and column j.  Every entry must be
the same raw (v, u, lossy) triple, flag included, and every shape the same.
Inputs mix zeros, flagged zeros, effectively-zero entries (N <= v < inf),
entries of K, flagged entries, repeated and negated entries (so that sums
cancel) and empty shapes, over padic p in {2, 5} and eqchar q in {4, 9} at
N in {1, 3, 12, 40}, in matrix contexts d <= 4.
"""

import random

import pytest

from daggerkit.linalg import MatrixV
from daggerkit.ring import INFINITY, RingDescriptor
from daggerkit.spectral import MatrixAlgebraContext

RINGS = [("padic", 2), ("padic", 5), ("eqchar", 4), ("eqchar", 9)]
CASES = [(b, base, n) for b, base in RINGS for n in (1, 3, 12, 40)]


def ref_mul(A, B):
    dot = A.ring._dot
    cols = [[row[j] for row in B.raw] for j in range(B.cols)]
    return [[dot(row, col) for col in cols] for row in A.raw]


def ref_products(ctx, xs, ys):
    d, dot = ctx.d, ctx.ring._dot
    return [[dot(x[i * d:i * d + d], y[j::d])
             for i in range(d) for j in range(d)] for x in xs for y in ys]


class Triples:
    """Random entries as raw triples; each matrix draws from a small pool
    of entries and their negatives, so that products repeat and cancel."""

    def __init__(self, ring, seed):
        self.ring = ring
        self.rng = random.Random(seed)

    def fresh(self):
        r, n, ring = self.rng.random(), self.ring.precision, self.ring
        if r < 0.15:
            return (INFINITY, None, False)
        if r < 0.3:
            return (INFINITY, None, True)
        v = n + self.rng.randint(0, 2) if r < 0.4 else \
            self.rng.randint(-2, min(n - 1, 3))
        enc = self.rng.randrange(1, ring.base ** n)
        x = ring.from_valuation_unit(v, enc + (enc % ring.base == 0))
        return (x.v, x.u, self.rng.random() < 0.15)

    def entries(self, count):
        pool = [self.fresh() for _ in range(3)]
        pool += [self.ring._minus(x) for x in pool]
        return [self.rng.choice(pool) if self.rng.random() < 0.5
                else self.fresh() for _ in range(count)]

    def matrix(self, rows, cols):
        it = iter(self.entries(rows * cols))
        return MatrixV._of(self.ring, [[next(it) for _ in range(cols)]
                                       for _ in range(rows)], cols)


@pytest.mark.parametrize("backend,base,n", CASES)
def test_matrix_product_matches_the_dot_formula(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    gen = Triples(ring, f"mul-{backend}-{base}-{n}")
    shapes = [(r, k, c) for r in (0, 1, 3) for k in (0, 2) for c in (0, 2)]
    shapes += [tuple(gen.rng.randint(1, 4) for _ in range(3))
               for _ in range(12)]
    for rows, inner, cols in shapes:
        A, B = gen.matrix(rows, inner), gen.matrix(inner, cols)
        P = A * B
        assert (P.rows, P.cols) == (rows, cols)
        assert [list(row) for row in P.raw] == ref_mul(A, B)


@pytest.mark.parametrize("backend,base,n", CASES)
def test_lattice_products_match_the_dot_formula(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    gen = Triples(ring, f"products-{backend}-{base}-{n}")
    for d in (1, 2, 3, 4):
        ctx = MatrixAlgebraContext(ring, d)
        for nx, ny in ((0, 2), (2, 0), (1, 1), (3, 2)):
            xs = [gen.entries(d * d) for _ in range(nx)]
            ys = [gen.entries(d * d) for _ in range(ny)]
            assert ctx._products(xs, ys) == ref_products(ctx, xs, ys)
