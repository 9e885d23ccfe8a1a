"""Matrices and lattices over a discrete valuation ring.

Smith-style diagonalisation, torsion-freeness of finitely presented
modules, canonical column Hermite forms for finitely generated lattices,
pi-preimages, and divisibility in quotients.

Stored form: matrices and lattices keep their entries as raw
(v, u, lossy) triples, the valuation, unit residue and flag of a
ScalarElem.  A ``MatrixV`` holds its rows in ``raw`` and a ``Lattice`` its
Hermite columns in ``cols``; the ScalarElem values a caller reads
(``MatrixV.entries``, ``m[i, j]``, ``column``, ``Lattice.gens``) are views
built from them.  Equality of matrices and lattices is
``RingDescriptor.same`` on the triples, the rule ScalarElem's ``==`` uses.

One elimination kernel per ring, ``_Kernel.of(ring)``, does the arithmetic
of ``det``, ``inverse``, ``snf``, the Hermite form behind
``Lattice.from_columns`` and ``Lattice.membership`` (after Storjohann,
*Algorithms for Matrix Canonical Forms*, 2000) and of matrix products on
these triples.  Its parts: a pivot search for the first entry of least
valuation below N (over a DVR it divides every entry in scope, so one pass
per pivot suffices and precision loss is minimised), one Hermite pivot
step ``settle`` that both the rebuild and the insertion of ``Lattice.sum``
run, and one multiply-accumulate, the ring's scalar rule ``_accumulate``,
that the row update ``row + f*pivot_row`` (eliminations negate f), the
ordered dot and the product over nonzero pairs (in the dot's order) share.
A sum in it reads a valuation only when its summands' valuations tie.
Quotients are the ring's rule, with no cached inverse: pivots are scaled to
a unit of 1 before rows are cleared, and ``det`` inverts each pivot once.

One truncation window: every way of building a ``Lattice`` returns the
canonical form of its docstring, which ``from_columns`` of its generators
gives back.  A generator, column or vector is zero when every entry lies at
or past pi^N, pi_exponent folded in (``_zero_at``): ``from_columns`` and
``scale_by_pi`` drop it and ``membership`` finds it in every lattice.  So
``Lattice.sum`` returns the first lattice, flags and all, when the second's
generators clear down its pivot rows (``membership``'s walk); one that first
stays below N at a row no pivot takes is inserted by ``settle``; any other
sum is rebuilt.  ``Lattice.pivots`` is built once and handed on by scaling.

Exactness contract: the kernel computes every entry of ``a + f*b``,
``acc + a*b``, ``c * x``, ``x / p`` and the quotient of
``split_at_pi_power`` with the ring's scalar rules (``_scalar_rules`` in
``ring.py``, which ScalarElem's arithmetic runs too), so which digits are
known, and which sums are flagged, is decided there only.  An entry with
N <= v < inf counts as zero: Hermite and Smith forms store it as an
unflagged zero, and ``snf`` sets ``SNFResult.flagged``.

``cokernel_invariants`` builds no Smith transform and ``kernel_basis`` W
only (``_smith_form``); D and the flag read neither, and W does not read U.
"""

from __future__ import annotations

from itertools import chain

from .ring import INFINITY, PrecisionExhausted, RingDescriptor, ScalarElem

_ZERO = (INFINITY, None, False)


def _raw(ring, xs):
    """(v, u, lossy) triples of scalars that must belong to ``ring``; a
    vector that is already triples passes through."""
    xs = tuple(xs)
    if xs and type(xs[0]) is tuple:
        return xs
    for x in xs:
        if x.ring is not ring and x.ring != ring:
            raise ValueError("ring descriptor mismatch")
    return tuple((x.v, x.u, x.lossy) for x in xs)


def _eye(ring, n):
    """Rows of the n x n identity as triples."""
    one = (0, ring.ops.one(), False)
    return [[one if i == j else _ZERO for j in range(n)] for i in range(n)]


class _Kernel:
    """Elimination on triples over one ring; a zero is (inf, None, lossy).
    Its arithmetic is the ring's scalar rules, and it binds no residue
    operation: ``scale`` and ``over`` give c * a and a / b, and one
    multiply-accumulate, the ring's rule ``_accumulate``, adds f * b into
    entries in place for ``update`` (the ring's rule ``_update``, [a + f * b
    for a, b in zip(row, prow)]), ``dot`` (the sum of a * b over the pairs
    without a zero factor) and ``product`` (one ``dot`` per entry).  A sum
    reads a valuation only when its summands' valuations tie."""

    def __init__(self, ring: RingDescriptor):
        self.N, self.one = ring.precision, ring.ops.one()
        self.minus, self.times, self.over, self.split = (
            ring._minus, ring._times, ring._over, ring._split)
        self.accumulate, self.update = ring._accumulate, ring._update

    @staticmethod
    def of(ring):
        """The ring's one kernel, kept on it: a kernel holds no state."""
        if (kern := getattr(ring, "_kernel", None)) is None:
            kern = ring._kernel = _Kernel(ring)
        return kern

    def pivot(self, entries):
        """(key, v) of the first entry of least valuation below N among
        (key, triple) pairs; (None, N) when all are effectively zero."""
        best, best_v = None, self.N
        for key, (v, _, _) in entries:
            if v < best_v:
                best, best_v = key, v
        return best, best_v

    def scale(self, mats, k, c):
        """Row k of every matrix in mats times c, which is nonzero; an
        unflagged 1 (a pivot already a power of pi) changes nothing."""
        if c == (0, self.one, False):
            return
        times = self.times
        for M in mats:
            M[k] = [times(c, x) for x in M[k]]

    def eliminate(self, mats, k, c, factor, among):
        """Clear column c of mats[0] against row k: each other row i of
        ``among`` with entry x below N and f = factor(i, x) != 0 becomes
        row i - f * row k, in every matrix of mats alike.  Returns the rows
        it updated."""
        updated = []
        for i in among:
            x = mats[0][i][c]
            if i != k and x[0] < self.N:
                f = factor(i, x)
                if f[0] != INFINITY:
                    # (-f) * b is the residue of -(f * b) on both backends
                    f = self.minus(f)
                    for M in mats:
                        M[i] = self.update(M[i], f, M[k])
                    updated.append(i)
        return updated

    def settle(self, cols, k, row, among):
        """Fix the Hermite pivot of column k at ``row``: scale the column so
        its entry there is pi^v exactly (a flagged pivot flags its column),
        then clear ``row`` in the columns of ``among`` by the quotient, an
        earlier pivot column modulo pi^v only (``split``'s quotient, unless
        pi^v divides its entry).  Returns the columns it changed.  Column k
        must hold no entry N <= v < inf (``_cleared``), which would reach
        the pivots of the columns it changes."""
        v = cols[k][row][0]
        self.scale([cols], k, self.over((v, self.one, False), cols[k][row]))
        p = cols[k][row]
        return self.eliminate([cols], k, row, lambda m, x: (
            self.over(x, p) if m > k or x[0] >= v else self.split(x, v)[0]),
            among)

    def dot(self, xs, ys):
        acc, accumulate = [_ZERO], self.accumulate
        for x, y in zip(xs, ys):
            if x[0] != INFINITY and y[0] != INFINITY:
                accumulate(acc, x, ((0, y),))
        return acc[0]

    def product(self, a, b, n):
        """Rows of a * b (n columns) from ``_sparse`` rows: each entry sums
        its pairs in increasing k, as ``dot`` (Gustavson, TOMS 1978)."""
        accumulate, out = self.accumulate, []
        for row in a:
            acc = [_ZERO] * n
            for k, x in row:
                accumulate(acc, x, b[k])
            out.append(acc)
        return out


class MatrixV:
    """A dense matrix over one ring, built from rows of ScalarElem or of
    (v, u, lossy) triples.

    The stored form is ``raw``, a tuple of rows of triples, which products,
    ``det``, ``inverse`` and ``snf`` read directly.  ``entries``, the rows
    as ScalarElem, is a view built the first time it is read; ``m[i, j]``,
    ``column`` and ``apply`` build only the values they return.
    """

    __slots__ = ("ring", "rows", "cols", "raw", "_entries")

    def __init__(self, ring: RingDescriptor, entries):
        self.ring = ring
        self.raw = tuple(_raw(ring, row) for row in entries)
        self.rows = len(self.raw)
        self.cols = len(self.raw[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.raw):
            raise ValueError("ragged matrix")
        self._entries = None

    @classmethod
    def identity(cls, ring: RingDescriptor, n: int) -> "MatrixV":
        return cls(ring, _eye(ring, n))

    @classmethod
    def zero(cls, ring: RingDescriptor, rows: int, cols: int) -> "MatrixV":
        return cls._of(ring, [(_ZERO,) * cols] * rows, cols)

    @classmethod
    def _of(cls, ring, rows, cols: int) -> "MatrixV":
        """A matrix on rows of triples with cols columns; the count is kept
        when there is no row to read it from."""
        m = cls(ring, rows)
        m.cols = cols
        return m

    @property
    def entries(self):
        """The rows as ScalarElem, built on first read."""
        if self._entries is None:
            ring = self.ring
            self._entries = tuple(tuple(ScalarElem(ring, *x) for x in row)
                                  for row in self.raw)
        return self._entries

    def __getitem__(self, ij):
        return ScalarElem(self.ring, *self.raw[ij[0]][ij[1]])

    def __eq__(self, other):
        return (isinstance(other, MatrixV)
                and (self.ring is other.ring or self.ring == other.ring)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.ring.same(chain.from_iterable(self.raw),
                                   chain.from_iterable(other.raw)))

    def __hash__(self):
        seen = map(self.ring.seen, chain.from_iterable(self.raw))
        return hash((self.ring, self.rows, self.cols, tuple(seen)))

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in row) for row in self.entries)
        return f"MatrixV[{body}]"

    def __add__(self, other: "MatrixV") -> "MatrixV":
        return self._entrywise(self.ring._plus, other)

    def __sub__(self, other: "MatrixV") -> "MatrixV":
        plus, minus = self.ring._plus, self.ring._minus
        return self._entrywise(lambda a, b: plus(a, minus(b)), other)

    def _entrywise(self, rule, other):
        self._shape_check(other, same=True)
        return MatrixV._of(self.ring, [list(map(rule, r1, r2)) for r1, r2
                                       in zip(self.raw, other.raw)], self.cols)

    def __neg__(self) -> "MatrixV":
        return MatrixV._of(self.ring, [list(map(self.ring._minus, row))
                                       for row in self.raw], self.cols)

    def __mul__(self, other: "MatrixV") -> "MatrixV":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        self._shape_check(other)
        return MatrixV._of(self.ring, _Kernel.of(self.ring).product(
            _sparse(self.raw), _sparse(other.raw), other.cols), other.cols)

    def _shape_check(self, other, same=False):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring descriptor mismatch")
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def scale(self, s: ScalarElem) -> "MatrixV":
        (c,), times = _raw(self.ring, [s]), self.ring._times
        return MatrixV._of(self.ring, [[times(a, c) for a in row]
                                       for row in self.raw], self.cols)

    def scaled_by_pi(self, e: int) -> "MatrixV":
        return MatrixV._of(self.ring, _shifted(self.raw, e), self.cols)

    def column(self, j: int):
        return [ScalarElem(self.ring, *row[j]) for row in self.raw]

    def min_valuation(self):
        return min((x[0] for row in self.raw for x in row), default=INFINITY)

    def apply(self, vec):
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        dot, col = _Kernel.of(self.ring).dot, _raw(self.ring, vec)
        return [ScalarElem(self.ring, *dot(row, col)) for row in self.raw]

    def det(self) -> ScalarElem:
        """Determinant by Gaussian elimination over K with minimal-valuation
        pivoting; exact at precision N."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n, kern = self.rows, _Kernel.of(self.ring)
        work, det = list(self.raw), (0, kern.one, False)
        for k in range(n):
            i0, _ = kern.pivot((i, work[i][k]) for i in range(k, n))
            if i0 is None:
                return self.ring.zero()
            if i0 != k:
                work[k], work[i0] = work[i0], work[k]
                det = kern.minus(det)
            pivot = work[k][k]
            det = kern.times(det, pivot)
            inv = kern.over((0, kern.one, False), pivot)
            kern.eliminate([work], k, k, lambda i, x: kern.times(x, inv),
                           range(k + 1, n))
        return ScalarElem(self.ring, *det)

    def inverse(self) -> "MatrixV":
        """Inverse over K (entries may leave V); pivot of minimal valuation."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n, kern = self.rows, _Kernel.of(self.ring)
        work, aug = list(self.raw), _eye(self.ring, n)
        for k in range(n):
            i0, _ = kern.pivot((i, work[i][k]) for i in range(k, n))
            if i0 is None:
                raise ZeroDivisionError("matrix is singular at precision N")
            work[k], work[i0] = work[i0], work[k]
            aug[k], aug[i0] = aug[i0], aug[k]
            kern.scale([work, aug], k,
                       kern.over((0, kern.one, False), work[k][k]))
            kern.eliminate([work, aug], k, k, lambda i, x: x, range(n))
        return MatrixV(self.ring, aug)

    def kronecker(self, other: "MatrixV") -> "MatrixV":
        self._shape_check(other)
        times = self.ring._times
        return MatrixV._of(self.ring, [[times(a, b) for a in r1 for b in r2]
                                       for r1 in self.raw
                                       for r2 in other.raw],
                           self.cols * other.cols)

    @property
    def lossy(self) -> bool:
        return any(x[2] for row in self.raw for x in row)


class SNFResult:
    """U * A * W = D with U, W unimodular over V and D = diag(pi^a1, ...)."""

    def __init__(self, U, D, W, flagged):
        self.U = U
        self.D = D
        self.W = W
        self.flagged = flagged

    @property
    def diagonal_exponents(self):
        """Exponents a_i of the nonzero diagonal entries, weakly increasing."""
        out = []
        for i in range(min(self.D.rows, self.D.cols)):
            v = self.D.raw[i][i][0]
            if v == INFINITY:
                break
            out.append(v)
        return out


def snf(A: MatrixV) -> SNFResult:
    """Smith normal form over V.

    Requires all entries in V.  Returns U, D, W with U*A*W = D exact at
    precision N, nu(det U) = nu(det W) = 0, and the diagonal of D a
    divisibility chain pi^a1 | pi^a2 | ... followed by zeros.
    """
    return _smith_form(A, True, True)


def _smith_form(A, left, right):
    """``snf`` with U built only when ``left`` and W only when ``right``;
    a transform not built is None in the result."""
    ring = A.ring
    if A.min_valuation() < 0:
        raise ValueError("snf needs entries in V (nonnegative valuations)")
    m, n, kern = A.rows, A.cols, _Kernel.of(ring)
    work = [list(row) for row in A.raw]
    U, W = left and _eye(ring, m), right and _eye(ring, n)
    rowed, colled = [work, U][:1 + left], [work, W][:1 + right]
    flagged = A.lossy
    for k in range(min(m, n)):
        piv, piv_v = kern.pivot(((i, j), work[i][j]) for i in range(k, m)
                                for j in range(k, n))
        if piv is None:
            break
        i0, j0 = piv
        for M in rowed:
            M[k], M[i0] = M[i0], M[k]
        for row in chain.from_iterable(colled):
            row[k], row[j0] = row[j0], row[k]
        # pivot to an exact power of pi; clear its row, then its column
        kern.scale(rowed, k, kern.over((piv_v, kern.one, False), work[k][k]))
        pivot = work[k][k]
        kern.eliminate(rowed, k, k, lambda i, x: kern.over(x, pivot),
                       range(m))
        cols = [[list(c) for c in zip(*M)] for M in colled]
        kern.eliminate(cols, k, k, lambda j, x: kern.over(x, pivot),
                       range(n))
        for M, C in zip(colled, cols):
            M[:] = map(list, zip(*C))
    D = [_cleared(row, kern.N) for row in work]
    # clearing an effectively-zero entry flags the form, as does any flag
    flagged = flagged or D != work or any(x[2] for row in D for x in row)
    return SNFResult(MatrixV(ring, U) if left else None,
                     MatrixV._of(ring, D, n),
                     MatrixV(ring, W) if right else None, flagged)


class ModulePresentation:
    """A finitely presented module V^m / im(relations)."""

    def __init__(self, ring: RingDescriptor, ambient_rank: int,
                 relations: MatrixV | None):
        self.ring = ring
        self.ambient_rank = ambient_rank
        if relations is None:
            relations = MatrixV.zero(ring, ambient_rank, 0)
        if relations.rows != ambient_rank:
            raise ValueError("relation matrix must have ambient_rank rows")
        if relations.min_valuation() < 0:
            raise ValueError("relations must lie in V")
        self.relations = relations

    def cokernel_invariants(self):
        """(multiset of torsion exponents a_i > 0, free rank f) with
        coker = (+) V/pi^(a_i) (+) V^f."""
        exps = _smith_form(self.relations, False, False).diagonal_exponents
        torsion = sorted(a for a in exps if a > 0)
        return torsion, self.ambient_rank - len(exps)

    def is_torsion_free(self) -> bool:
        torsion, _ = self.cokernel_invariants()
        return not torsion

    def quotient_is_zero(self, v) -> bool:
        """Is [v] = 0 in the cokernel, i.e. v in im(relations)?"""
        return Lattice.from_columns(self.ring, self.ambient_rank, list(
            zip(*self.relations.raw))).membership(v)

    def quotient_divisibility(self, v, m: int) -> bool:
        """Is [v] in pi^m * coker, i.e. v = pi^m y + A z solvable over V?"""
        if m < 1:
            raise ValueError("m must be positive")
        if m >= self.ring.precision:
            raise PrecisionExhausted(
                f"divisibility by pi^{m} is not decidable at precision "
                f"{self.ring.precision}")
        # the relations and the columns pi^m e_i
        cols = [*zip(*self.relations.raw),
                *_shifted(_eye(self.ring, self.ambient_rank), m)]
        return Lattice.from_columns(self.ring, self.ambient_rank,
                                    cols).membership(v)

    def tensor(self, other: "ModulePresentation") -> "ModulePresentation":
        """Presentation of the tensor product: relations A(x)I | I(x)B."""
        if self.ring != other.ring:
            raise ValueError("ring descriptor mismatch")
        m, n = self.ambient_rank, other.ambient_rank
        blocks = (self.relations.kronecker(MatrixV.identity(self.ring, n)),
                  MatrixV.identity(self.ring, m).kronecker(other.relations))
        rows = [list(chain.from_iterable(b.raw[i] for b in blocks))
                for i in range(m * n)]
        return ModulePresentation(self.ring, m * n, MatrixV._of(
            self.ring, rows, sum(b.cols for b in blocks)))


class Lattice:
    """A finitely generated V-submodule of K^r, stored as pi^e * span(H):
    e is ``pi_exponent``, H is ``cols``, a tuple of columns of triples.

    H is the canonical column Hermite form over V: strictly increasing pivot
    rows, pivots pi^v with unit exactly 1, zero entries elsewhere in pivot
    rows up to canonical residues, no entry with N <= v < inf, minimal
    entry valuation 0, and no column with e + least v >= N (the zero
    lattice is e = 0, no columns).  Equality is that of (e, H) at N.
    """

    # _chains: the power chains of ``chains.link`` kept on this lattice;
    # _pivot_map: ``pivots``, built on first read
    __slots__ = ("ring", "ambient_rank", "pi_exponent", "cols", "_chains",
                 "_pivot_map")

    def __init__(self, ring, ambient_rank, pi_exponent, cols):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.pi_exponent = pi_exponent
        self.cols = cols
        self._pivot_map = None

    @property
    def pivots(self):
        """Pivot row -> column of H (``_pivot_row``), built on first read.
        It does not depend on ``pi_exponent``, so ``scale_by_pi`` hands it
        on when it drops no column."""
        if self._pivot_map is None:
            N = self.ring.precision
            self._pivot_map = {_pivot_row(c, N): c for c in self.cols}
        return self._pivot_map

    @property
    def gens(self) -> MatrixV:
        """A view of H as a MatrixV, one row per ambient coordinate."""
        return (MatrixV(self.ring, zip(*self.cols)) if self.cols
                else MatrixV.zero(self.ring, self.ambient_rank, 0))

    # -- construction --

    @classmethod
    def zero(cls, ring: RingDescriptor, ambient_rank: int) -> "Lattice":
        return cls(ring, ambient_rank, 0, ())

    @classmethod
    def standard(cls, ring: RingDescriptor, ambient_rank: int) -> "Lattice":
        return cls(ring, ambient_rank, 0,
                   tuple(map(tuple, _eye(ring, ambient_rank))))

    @classmethod
    def from_columns(cls, ring, ambient_rank, columns) -> "Lattice":
        """Span of the given generator vectors (entries in V or K), each of
        ScalarElem or of (v, u, lossy) triples."""
        cols = [_raw(ring, c) for c in columns]
        if any(len(c) != ambient_rank for c in cols):
            raise ValueError("generator has wrong ambient rank")
        cols = [c for c in cols if not _zero_at(c, ring.precision)]
        e = min(map(_least_v, cols), default=0)
        return cls._folded(ring, ambient_rank, e, _column_hermite(
            ring, ambient_rank, _shifted(cols, -e)))

    @classmethod
    def _folded(cls, ring, ambient_rank, e, cols):
        """pi^e * span(cols), Hermite columns with no entry N <= v < inf,
        made canonical: columns zero once e is folded in dropped, and the
        least valuation folded into e (reduction can reveal a pi factor)."""
        cols = [c for c in cols if not _zero_at(c, ring.precision - e)]
        if not cols:
            return cls.zero(ring, ambient_rank)
        extra = min(map(_least_v, cols))
        return cls(ring, ambient_rank, e + extra,
                   tuple(map(tuple, _shifted(cols, -extra))))

    # -- queries --

    @property
    def is_zero(self) -> bool:
        return not self.cols

    @property
    def rank(self) -> int:
        return len(self.cols)

    def gauge_exponent(self):
        """Maximal e with L inside pi^e times the standard lattice; +inf for
        the zero lattice.  The gauge norm of L is eps^e."""
        return self.pi_exponent if self.cols else INFINITY

    def generator_vectors(self):
        """Generators as vectors of K-scalars, pi_exponent folded in."""
        return [[ScalarElem(self.ring, *x) for x in c]
                for c in self.generator_triples()]

    def generator_triples(self):
        """``generator_vectors`` as (v, u, lossy) triples: the columns of
        H times pi^e."""
        return _shifted(self.cols, self.pi_exponent)

    def membership(self, vec) -> bool:
        """Decide vec in L by back-substitution against the Hermite form, or
        vec zero at N; vec holds ScalarElem or (v, u, lossy) triples."""
        if len(vec) != self.ambient_rank:
            raise ValueError("ambient rank mismatch")
        vec = _raw(self.ring, vec)
        return (self._walk(_Kernel.of(self.ring), vec) is None
                or _zero_at(vec, self.ring.precision))

    def _walk(self, kern, vec):
        """Back-substitution of vec (triples) against H's ``pivots`` in vec's
        own frame (the rules commute with pi^e, so only the row tests add
        e): None if it clears, else (row, residual shifted to H's frame) at
        the first row left below N in H's frame, which no later column
        (past N there) moves."""
        e, pivots = self.pi_exponent, self.pivots
        top, res = kern.N + e, vec
        for r in range(len(res)):
            x = res[r]
            if x[0] < top:
                col = pivots.get(r)
                if col is None or x[0] < col[r][0] + e:
                    return r, _shifted([res], -e)[0]
                res = kern.update(res, kern.minus(kern.over(x, col[r])), col)
        return None

    def contains(self, other: "Lattice") -> bool:
        self._compat(other)
        return all(self.membership(g) for g in other.generator_triples())

    def __eq__(self, other):
        if other is self:  # ``sum`` hands L back when M adds nothing
            return True
        if not (isinstance(other, Lattice)
                and (self.ring is other.ring or self.ring == other.ring)
                and self.ambient_rank == other.ambient_rank
                and len(self.cols) == len(other.cols)):
            return False
        return (self.pi_exponent == other.pi_exponent
                and self.ring.same(chain.from_iterable(self.cols),
                                   chain.from_iterable(other.cols)))

    def __hash__(self):
        seen = map(self.ring.seen, chain.from_iterable(self.cols))
        return hash((self.ring, self.ambient_rank, self.pi_exponent,
                     tuple(seen)))

    def __repr__(self):
        return (f"Lattice(rank {self.rank} in K^{self.ambient_rank}, "
                f"pi_exponent {self.pi_exponent})")

    # -- operations --

    def sum(self, other: "Lattice") -> "Lattice":
        """L + M, as from_columns makes it of both generator sets, raw
        triples and flags alike: L itself when M adds nothing (the rebuild
        gives canonical L back), ``_insert`` (the rebuild's pivot steps, on
        the columns the new one changes) when M adds one generator, in V in
        L's frame, that first stays below N at a row no pivot takes; else a
        rebuild (a pivot row taken, more generators, L zero)."""
        self._compat(other)
        kern, gens, pivots = (_Kernel.of(self.ring),
                              other.generator_triples(), self.pivots)
        stop = next(filter(None, (self._walk(kern, g) for g in gens)), None)
        if stop is None:
            return self
        if len(gens) == 1 and self.cols and stop[0] not in pivots \
                and _least_v(gens[0]) >= self.pi_exponent:
            return self._insert(kern, *stop, pivots)
        return Lattice.from_columns(self.ring, self.ambient_rank,
                                    [*self.generator_triples(), *gens])

    def _insert(self, kern, r, new, pivots):
        """``_column_hermite`` of H and ``new``, a ``_walk`` residual, as the
        pivot at row r, by ``_Kernel.settle`` on each pivot: the pivots
        before r are only scaled, the new one clears r in the columns before
        it, and each later one clears its row in the columns r changed (the
        others are canonical there already)."""
        rows, cols = [*pivots], [*pivots.values()]
        j = sum(p < r for p in rows)
        rows[j:j], cols[j:j] = [r], [_cleared(new, kern.N)]
        for i in range(j):
            kern.settle(cols, i, rows[i], ())
        changed = [j, *kern.settle(cols, j, r, range(j))]
        for i in range(j + 1, len(cols)):
            kern.settle(cols, i, rows[i], changed)
        for m in changed:
            cols[m] = _cleared(cols[m], kern.N)
        return Lattice._folded(self.ring, self.ambient_rank, self.pi_exponent,
                               cols)

    def scale_by_pi(self, e: int) -> "Lattice":
        """pi^e * L, less each column this moves to or past pi^N."""
        e += self.pi_exponent
        if not self.cols or any(_zero_at(c, self.ring.precision - e)
                                for c in self.cols):
            return Lattice._folded(self.ring, self.ambient_rank, e, self.cols)
        out = Lattice(self.ring, self.ambient_rank, e, self.cols)
        out._pivot_map = self._pivot_map
        return out

    def preimage_pi(self, j: int) -> "Lattice":
        """The lattice {x in K^r : pi^j x in L}; equals pi^(-j) L in the
        torsion-free ambient K^r."""
        if j < 1:
            raise ValueError("j must be positive")
        return self.scale_by_pi(-j)

    def intersect(self, other: "Lattice") -> "Lattice":
        """Intersection, via the kernel of [G1 | -G2] over V."""
        self._compat(other)
        if self.is_zero or other.is_zero:
            return Lattice.zero(self.ring, self.ambient_rank)
        e = min(self.pi_exponent, other.pi_exponent)
        minus, kern = self.ring._minus, _Kernel.of(self.ring)
        g1 = _shifted(self.cols, self.pi_exponent - e)
        g2 = [list(map(minus, c))
              for c in _shifted(other.cols, other.pi_exponent - e)]
        gens = []
        for z in _kernel_triples(MatrixV(self.ring, zip(*g1, *g2))):
            vec = [_ZERO] * self.ambient_rank
            for x, col in zip(z, g1):
                if x[0] != INFINITY:
                    vec = kern.update(vec, x, col)
            gens.append(vec)
        return Lattice.from_columns(self.ring, self.ambient_rank,
                                    _shifted(gens, e))

    def intersect_with_standard(self) -> "Lattice":
        return self.intersect(Lattice.standard(self.ring, self.ambient_rank))

    def _compat(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring descriptor mismatch")
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")

    @property
    def lossy(self) -> bool:
        return any(x[2] for c in self.cols for x in c)


def kernel_basis(A: MatrixV):
    """A V-basis of ker(A : V^n -> V^m), read off the Smith form."""
    return [[ScalarElem(A.ring, *x) for x in z] for z in _kernel_triples(A)]


def _kernel_triples(A: MatrixV):
    """``kernel_basis`` as columns of (v, u, lossy) triples: the columns of
    W past the rank of the Smith form."""
    res = _smith_form(A, False, True)
    return list(zip(*res.W.raw))[len(res.diagonal_exponents):]


def _sparse(rows):
    """Rows as lists of (k, triple) without the zeros, flagged or not."""
    return [[(k, x) for k, x in enumerate(r) if x[0] < INFINITY] for r in rows]


def _pivot_row(col, N):
    """Row of the first entry below N, a Hermite column's pivot."""
    return next(i for i, x in enumerate(col) if x[0] < N)


def _cleared(col, N):
    """col with its entries N <= v < inf made unflagged zeros."""
    return [_ZERO if N <= x[0] < INFINITY else x for x in col]


def _zero_at(col, N):
    """Does every entry of col (triples; maybe none) lie at or past pi^N?"""
    return not col or _least_v(col) >= N


def _least_v(col):
    """Least valuation in a nonempty column of triples, read off its least
    triple (a tie in v never sets a unit against the None of a zero)."""
    return min(col)[0]


def _shifted(cols, e):
    """Columns (or rows) of triples multiplied by pi^e (``scaled_by_pi``)."""
    if not e:
        return cols
    return [[x if x[0] == INFINITY else (x[0] + e, x[1], x[2]) for x in c]
            for c in cols]


def _column_hermite(ring, rank, cols):
    """Canonical column Hermite form over V of the given columns.

    Columns are lists of (v, u, lossy) triples with entries in V.  Returns
    a list of columns with strictly increasing pivot rows, pivot entries
    exact powers of pi, zero entries to the right of each pivot and
    canonical residues to the left.
    """
    kern = _Kernel.of(ring)
    n_pivots = 0
    for row in range(rank):
        if n_pivots == len(cols):  # no free column is left
            break
        # choose the minimal-valuation entry of this row among free columns
        piv, _ = kern.pivot((j, cols[j][row])
                            for j in range(n_pivots, len(cols)))
        if piv is None:
            continue
        cols[piv], cols[n_pivots] = cols[n_pivots], _cleared(cols[piv], kern.N)
        kern.settle(cols, n_pivots, row, range(len(cols)))
        n_pivots += 1
    return [_cleared(c, kern.N) for c in cols[:n_pivots]]
