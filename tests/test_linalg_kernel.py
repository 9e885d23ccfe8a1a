"""Differential tests of the raw-residue elimination kernel in ``linalg``.

The ScalarElem loops that the kernel replaced are kept here as the
reference.  For matmul, ``apply``, ``det``, ``inverse``, ``snf``, the
column Hermite form of ``Lattice.from_columns`` and ``membership``, and for
``+``, ``-``, unary ``-``, ``scale``, ``kronecker`` and
``ModulePresentation.tensor`` (which now run on triples too), the kernel
must give identical outputs, not just equal ones: the same
valuation, unit residue and ``lossy`` flag in every entry, the same
``SNFResult.flagged`` and the same exceptions.  Inputs mix zeros, flagged
zeros, effectively-zero entries (N <= v < inf), entries of K, flagged
entries, exact cancellations and rank deficiency, over padic p in {2, 5}
and eqchar q in {4, 5, 9} at N in {1, 3, 12, 40, 160}.  A sympy oracle
checks Smith exponents of integer matrices.  Each ring builds its kernel
once (``_Kernel.of``), and a lattice equals itself without reading its
entries.
"""

import random

import pytest

from daggerkit.linalg import (Lattice, MatrixV, ModulePresentation,
                              _Kernel, _smith_form, kernel_basis, snf)
from daggerkit.ring import INFINITY, RingDescriptor, ScalarElem
from daggerkit.spectral import (MatrixAlgebraContext, lattice_from_elements,
                                pi_multiplicative)

RINGS = [("padic", 2), ("padic", 5), ("eqchar", 4), ("eqchar", 5),
         ("eqchar", 9)]
PRECISIONS = (1, 3, 12, 40, 160)
CASES = [(b, base, n) for b, base in RINGS for n in PRECISIONS]


# -- the ScalarElem reference --

def ref_matmul(A, B):
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = A.ring.zero()
            for k in range(A.cols):
                a, b = A.entries[i][k], B.entries[k][j]
                if not (a.is_zero or b.is_zero):
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


def ref_det(A):
    n = A.rows
    work = [list(row) for row in A.entries]
    det = A.ring.one()
    for k in range(n):
        piv_i, piv_v = -1, INFINITY
        for i in range(k, n):
            x = work[i][k]
            if not x.effectively_zero and x.valuation < piv_v:
                piv_i, piv_v = i, x.valuation
        if piv_i < 0:
            return A.ring.zero()
        if piv_i != k:
            work[k], work[piv_i] = work[piv_i], work[k]
            det = -det
        pivot = work[k][k]
        det = det * pivot
        for i in range(k + 1, n):
            if work[i][k].effectively_zero:
                continue
            f = work[i][k] / pivot
            work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    return det


def ref_inverse(A):
    n = A.rows
    work = [list(row) for row in A.entries]
    aug = [list(row) for row in MatrixV.identity(A.ring, n).entries]
    for k in range(n):
        piv_i, piv_v = -1, INFINITY
        for i in range(k, n):
            x = work[i][k]
            if not x.effectively_zero and x.valuation < piv_v:
                piv_i, piv_v = i, x.valuation
        if piv_i < 0:
            raise ZeroDivisionError("matrix is singular at precision N")
        work[k], work[piv_i] = work[piv_i], work[k]
        aug[k], aug[piv_i] = aug[piv_i], aug[k]
        inv_p = A.ring.one() / work[k][k]
        work[k] = [a * inv_p for a in work[k]]
        aug[k] = [a * inv_p for a in aug[k]]
        for i in range(n):
            if i == k or work[i][k].effectively_zero:
                continue
            f = work[i][k]
            work[i] = [a - f * b for a, b in zip(work[i], work[k])]
            aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return aug


def ref_snf(A):
    ring = A.ring
    if A.min_valuation() < 0:
        raise ValueError("snf needs entries in V (nonnegative valuations)")
    m, n = A.rows, A.cols
    work = [list(row) for row in A.entries]
    U = [list(row) for row in MatrixV.identity(ring, m).entries]
    W = [list(row) for row in MatrixV.identity(ring, n).entries]
    flagged = A.lossy
    for k in range(min(m, n)):
        piv, piv_v = None, INFINITY
        for i in range(k, m):
            for j in range(k, n):
                x = work[i][j]
                if not x.effectively_zero and x.valuation < piv_v:
                    piv, piv_v = (i, j), x.valuation
        if piv is None:
            break
        i0, j0 = piv
        if i0 != k:
            work[k], work[i0] = work[i0], work[k]
            U[k], U[i0] = U[i0], U[k]
        if j0 != k:
            for row in work:
                row[k], row[j0] = row[j0], row[k]
            for row in W:
                row[k], row[j0] = row[j0], row[k]
        pivot = work[k][k]
        unit_inv = ring.pi(pivot.valuation) / pivot
        work[k] = [unit_inv * a for a in work[k]]
        U[k] = [unit_inv * a for a in U[k]]
        pivot = work[k][k]
        for i in range(m):
            if i == k or work[i][k].effectively_zero:
                continue
            f = work[i][k] / pivot
            work[i] = [a - f * b for a, b in zip(work[i], work[k])]
            U[i] = [a - f * b for a, b in zip(U[i], U[k])]
        for j in range(n):
            if j == k or work[k][j].effectively_zero:
                continue
            f = work[k][j] / pivot
            for row in work:
                row[j] = row[j] - f * row[k]
            for wrow in W:
                wrow[j] = wrow[j] - f * wrow[k]
    zero = ring.zero()
    for i in range(m):
        for j in range(n):
            if work[i][j].effectively_zero and not work[i][j].is_zero:
                work[i][j] = zero
                flagged = True
    flagged = flagged or MatrixV(ring, work).lossy
    return U, work, W, flagged


def ref_column_hermite(ring, rank, cols):
    cols = [list(c) for c in cols]
    zero = ring.zero()
    n_pivots = 0
    for row in range(rank):
        piv, piv_v = None, INFINITY
        for j in range(n_pivots, len(cols)):
            x = cols[j][row]
            if not x.effectively_zero and x.valuation < piv_v:
                piv, piv_v = j, x.valuation
        if piv is None:
            continue
        cols[n_pivots], cols[piv] = cols[piv], cols[n_pivots]
        p = cols[n_pivots]
        unit_inv = ring.pi(piv_v) / p[row]
        # an effectively-zero entry of the pivot column reaches no other
        cols[n_pivots] = p = [unit_inv * (zero if x.effectively_zero and
                                          not x.is_zero else x) for x in p]
        for j in range(len(cols)):
            if j == n_pivots:
                continue
            x = cols[j][row]
            if x.effectively_zero:
                continue
            if j > n_pivots or x.valuation >= piv_v:
                f = x / p[row]
            else:
                f, _ = x.split_at_pi_power(piv_v)
            if f.is_zero:
                continue
            cols[j] = [a - f * b for a, b in zip(cols[j], p)]
        n_pivots += 1
    reduced = []
    for c in cols[:n_pivots]:
        c = [zero if x.effectively_zero and not x.is_zero else x for x in c]
        if not all(x.is_zero for x in c):
            reduced.append(c)
    return reduced


def ref_from_columns(ring, rank, columns):
    """(pi_exponent, Hermite columns), or None for the zero lattice."""
    cols = [list(c) for c in columns
            if not all(x.effectively_zero for x in c)]
    if not cols:
        return None
    e = min(min(x.valuation for x in c if not x.effectively_zero)
            for c in cols)
    cols = [[x.scaled_by_pi(-e) for x in c] for c in cols]
    # a column at or past pi^N once e is folded in is zero there
    reduced = [c for c in ref_column_hermite(ring, rank, cols)
               if e + min(x.valuation for x in c) < ring.precision]
    if not reduced:
        return None
    extra = min(min(x.valuation for x in c if not x.effectively_zero)
                for c in reduced)
    if extra > 0:
        reduced = [[x.scaled_by_pi(-extra) for x in c] for c in reduced]
    return e + extra, reduced


def ref_membership(L, vec):
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


# -- comparison and inputs --

def ref_entrywise(op, A, B):
    return [list(map(op, r1, r2)) for r1, r2 in zip(A.entries, B.entries)]


def ref_kronecker(A, B):
    return [[a * b for a in r1 for b in r2]
            for r1 in A.entries for r2 in B.entries]


def ref_tensor_relations(P, Q):
    m, n = P.ambient_rank, Q.ambient_rank
    blocks = []
    if P.relations.cols:
        blocks.append(ref_kronecker(P.relations,
                                    MatrixV.identity(P.ring, n)))
    if Q.relations.cols:
        blocks.append(ref_kronecker(MatrixV.identity(P.ring, m),
                                    Q.relations))
    return [[x for b in blocks for x in b[i]] for i in range(m * n)]


def sig(x):
    return (x.v, x.u, x.lossy)


def sigs(rows):
    return [[sig(x) for x in row] for row in rows]


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


class Inputs:
    """Random entries and matrices over one ring."""

    def __init__(self, ring, seed):
        self.ring = ring
        self.rng = random.Random(seed)
        self.q = ring.base

    def unit(self, v, lossy=False):
        enc = self.rng.randrange(1, self.q ** self.ring.precision)
        if enc % self.q == 0:
            enc += 1
        x = self.ring.from_valuation_unit(v, enc)
        return ScalarElem(self.ring, x.v, x.u, lossy) if lossy else x

    def entry(self, in_v=True):
        r, n = self.rng.random(), self.ring.precision
        if r < 0.15:
            return self.ring.zero()
        if r < 0.2:
            return ScalarElem(self.ring, INFINITY, None, lossy=True)
        if r < 0.25:
            return self.unit(n + self.rng.randint(0, 2))
        low = 0 if in_v else -2
        return self.unit(self.rng.randint(low, min(n - 1, 3)),
                         lossy=self.rng.random() < 0.1)

    def matrix(self, rows, cols, in_v=True):
        """A random matrix; some rows repeat others up to pi^k, some are
        sums of others (rank deficiency)."""
        out = [[self.entry(in_v) for _ in range(cols)] for _ in range(rows)]
        for i in range(1, rows):
            r = self.rng.random()
            if r < 0.25:
                k = self.rng.randint(0, self.ring.precision + 1)
                src = self.rng.randrange(i)
                out[i] = [a + self.ring.pi(k) * b
                          for a, b in zip(out[src], out[i])] \
                    if self.rng.random() < 0.5 else \
                    [a + self.ring.pi(k) for a in out[src]]
            elif r < 0.4:
                out[i] = [a + b for a, b in zip(out[0], out[i - 1])]
        return MatrixV(self.ring, out)


def matrices(backend, base, n, count):
    ring = RingDescriptor(backend, base, n)
    gen = Inputs(ring, f"{backend}-{base}-{n}")
    for t in range(count):
        rows, cols = gen.rng.randint(1, 4), gen.rng.randint(1, 4)
        yield gen, rows, cols, t


@pytest.mark.parametrize("backend,base,n", CASES)
def test_matmul_and_apply(backend, base, n):
    for gen, rows, cols, _ in matrices(backend, base, n, 4):
        A = gen.matrix(rows, cols, in_v=False)
        B = gen.matrix(cols, gen.rng.randint(1, 4), in_v=False)
        assert sigs((A * B).entries) == sigs(ref_matmul(A, B))
        vec = B.column(0)
        col = MatrixV(gen.ring, [[x] for x in vec])
        assert [sig(x) for x in A.apply(vec)] == \
            [sig(row[0]) for row in ref_matmul(A, col)]


@pytest.mark.parametrize("backend,base,n", CASES)
def test_det_and_inverse(backend, base, n):
    for gen, rows, _, _ in matrices(backend, base, n, 6):
        A = gen.matrix(rows, rows, in_v=False)
        assert sig(A.det()) == sig(ref_det(A))
        ours = outcome(lambda: sigs(A.inverse().entries))
        assert ours == outcome(lambda: sigs(ref_inverse(A)))


@pytest.mark.parametrize("backend,base,n", CASES)
def test_snf(backend, base, n):
    for gen, rows, cols, t in matrices(backend, base, n, 6):
        A = gen.matrix(rows, cols, in_v=t % 3 != 0)
        if A.min_valuation() < 0:
            assert outcome(snf, A) == outcome(ref_snf, A)
            continue
        ours = snf(A)
        U, D, W, flagged = ref_snf(A)
        assert sigs(ours.U.entries) == sigs(U)
        assert sigs(ours.D.entries) == sigs(D)
        assert sigs(ours.W.entries) == sigs(W)
        assert ours.flagged is flagged
        # the Smith forms that build fewer transforms: same D, W and flag
        for left, right in ((False, False), (False, True), (True, False)):
            part = _smith_form(A, left, right)
            assert (part.U is None) is not left
            assert (part.W is None) is not right
            assert sigs(part.D.entries) == sigs(D)
            assert part.flagged is flagged
            if right:
                assert sigs(part.W.entries) == sigs(W)
        exps = []
        for i in range(min(rows, cols)):
            if D[i][i].is_zero:
                break
            exps.append(D[i][i].valuation)
        assert ModulePresentation(gen.ring, rows, A).cokernel_invariants() \
            == (sorted(a for a in exps if a > 0), rows - len(exps))
        assert [[sig(x) for x in z] for z in kernel_basis(A)] == \
            [[sig(row[j]) for row in W] for j in range(len(exps), cols)]


@pytest.mark.parametrize("backend,base,n", CASES)
def test_entrywise_scale_kronecker_and_tensor(backend, base, n):
    for gen, rows, cols, t in matrices(backend, base, n, 6):
        A, B = gen.matrix(rows, cols, in_v=False), \
            gen.matrix(rows, cols, in_v=False)
        assert sigs((A + B).entries) == \
            sigs(ref_entrywise(lambda a, b: a + b, A, B))
        assert sigs((A - B).entries) == \
            sigs(ref_entrywise(lambda a, b: a - b, A, B))
        assert sigs((A - A).entries) == \
            sigs(ref_entrywise(lambda a, b: a - b, A, A))
        assert sigs((-A).entries) == sigs([[-a for a in row]
                                           for row in A.entries])
        c = gen.entry(in_v=False)
        assert sigs(A.scale(c).entries) == \
            sigs([[a * c for a in row] for row in A.entries])
        C = gen.matrix(gen.rng.randint(1, 3), gen.rng.randint(1, 3))
        assert sigs(A.kronecker(C).entries) == sigs(ref_kronecker(A, C))
        if A.min_valuation() >= 0 and t % 2 == 0:
            P = ModulePresentation(gen.ring, rows, A)
            Q = ModulePresentation(gen.ring, C.rows, C if t % 4 else None)
            assert sigs(P.tensor(Q).relations.entries) == \
                sigs(ref_tensor_relations(P, Q))


@pytest.mark.parametrize("backend,base,n", CASES)
def test_from_columns_and_membership(backend, base, n):
    for gen, rows, cols, _ in matrices(backend, base, n, 6):
        A = gen.matrix(cols + 1, rows, in_v=False)  # rows of A: generators
        L = Lattice.from_columns(gen.ring, rows, A.entries)
        ref = ref_from_columns(gen.ring, rows, A.entries)
        if ref is None:
            assert L.is_zero
        else:
            e, H = ref
            assert L.pi_exponent == e
            assert sigs(L.gens.entries) == sigs(zip(*H))
        probes = [list(g) for g in A.entries]
        probes += [[x + y for x, y in zip(g, h)]
                   for g, h in zip(A.entries, A.entries[1:])]
        probes += [[gen.entry(in_v=False) for _ in range(rows)]
                   for _ in range(3)]
        probes += [[x.scaled_by_pi(-1) for x in g] for g in A.entries]
        for vec in probes:
            assert L.membership(vec) is ref_membership(L, vec)


def test_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(2000)
    for p in (2, 5):
        ring = RingDescriptor("padic", p, 40)
        for t in range(12):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            ints = [[rng.choice([0, 1, p, p * p, 3 * p, rng.randint(-30, 30)])
                     for _ in range(cols)] for _ in range(rows)]
            if t % 3 == 0 and rows > 1:  # rank deficiency
                ints[-1] = [a + 2 * b for a, b in zip(ints[0], ints[1])]
            A = MatrixV(ring, [[ring.scalar(x) for x in row] for row in ints])
            factors = invariant_factors(sympy.Matrix(ints),
                                        domain=sympy.ZZ)
            expected = [sympy.multiplicity(p, d) for d in factors if d != 0]
            assert snf(A).diagonal_exponents == expected, ints


@pytest.mark.parametrize("backend,base", [("padic", 5), ("eqchar", 9)])
def test_each_pivot_is_inverted_at_most_once(backend, base, monkeypatch):
    """``snf``, ``det``, ``cokernel_invariants`` and the Hermite form of
    ``Lattice.from_columns`` of a dense d x d matrix call ``ops.inv`` at
    most d times: once per pivot, and never for a pivot that ``scale`` has
    already made an exact power of pi (unit 1).  ``inv`` raises a constant
    term to the power q - 2 (``ops.pow``) at most once per ring."""
    ring = RingDescriptor(backend, base, 40)
    gen = Inputs(ring, f"inverses-{backend}")
    inv, calls, power, powers = ring.ops.inv, [], ring.ops.pow, []

    def counting(a):
        calls.append(a)
        return inv(a)

    def counting_pow(a, e):
        powers.append(a)
        return power(a, e)
    monkeypatch.setattr(ring.ops, "inv", counting)
    monkeypatch.setattr(ring.ops, "pow", counting_pow)
    fns = (snf, MatrixV.det,
           lambda A: ModulePresentation(ring, A.rows, A).cokernel_invariants(),
           lambda A: Lattice.from_columns(ring, A.rows, zip(*A.raw)))
    for d in (2, 4, 6):
        A = MatrixV(ring, [[gen.unit(gen.rng.randint(0, 2))
                            for _ in range(d)] for _ in range(d)])
        for t, fn in enumerate(fns):
            calls.clear()
            fn(A)
            assert 0 < len(calls) <= d, (t, d, len(calls))
    assert len(powers) == len(set(powers)) <= base - 1
    assert bool(powers) is (backend == "eqchar")  # padic inverts by pow()


def test_one_kernel_per_ring(monkeypatch):
    """A fresh ring builds one kernel over a lattice and a whole
    ``pi_multiplicative`` (r^2 products and memberships), keeps it on the
    descriptor, and an equal but distinct descriptor builds its own."""
    built, init = [], _Kernel.__init__

    def counting(self, ring):
        built.append(ring)
        init(self, ring)
    monkeypatch.setattr(_Kernel, "__init__", counting)
    ring = RingDescriptor("padic", 5, 40)
    gen = Inputs(ring, "one-kernel")
    ctx = MatrixAlgebraContext(ring, 3)
    U = lattice_from_elements(ctx, [gen.matrix(3, 3), gen.matrix(3, 3)])
    assert U.rank == 2
    pi_multiplicative(ctx, U)
    assert built == [ring] and ring._kernel is _Kernel.of(ring)
    twin = RingDescriptor("padic", 5, 40)
    assert twin == ring and _Kernel.of(twin) is not _Kernel.of(ring)
    assert len(built) == 2 and built[1] is twin
    assert _Kernel.of(twin) is twin._kernel and len(built) == 2


def test_a_lattice_equals_itself_without_reading_it(monkeypatch):
    ring = RingDescriptor("eqchar", 9, 12)
    gen = Inputs(ring, "equals-itself")
    L = Lattice.from_columns(ring, 3, zip(*gen.matrix(3, 2).raw))
    twin = Lattice.from_columns(ring, 3, L.generator_triples())

    def unread(xs, ys):
        raise AssertionError("the entries were read")
    monkeypatch.setattr(ring, "same", unread)
    assert L == L and not L != L
    with pytest.raises(AssertionError, match="entries were read"):
        L == twin
