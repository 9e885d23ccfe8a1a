"""Matrices and lattices over a discrete valuation ring.

Smith-style diagonalisation, torsion-freeness of finitely presented
modules, canonical column Hermite forms for finitely generated lattices,
pi-preimages, and divisibility in quotients.

Pivoting always selects the entry of minimal valuation (ties broken by
lowest row, then column index): over a DVR the minimal-valuation entry
divides every other entry in scope, so a single elimination pass per pivot
suffices and precision loss is minimised.  An entry whose residue vanishes
at precision N is treated as zero and the result is flagged as valid at
precision N rather than guessed.
"""

from __future__ import annotations

from .ring import INFINITY, PrecisionExhausted, RingDescriptor, ScalarElem


class MatrixV:
    """A dense matrix of scalars sharing one ring descriptor."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingDescriptor, entries):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for x in row:
                if x.ring != ring:
                    raise ValueError("ring descriptor mismatch in matrix")

    @classmethod
    def identity(cls, ring: RingDescriptor, n: int) -> "MatrixV":
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)]
                          for i in range(n)])

    @classmethod
    def zero(cls, ring: RingDescriptor, rows: int, cols: int) -> "MatrixV":
        z = ring.zero()
        return cls(ring, [[z] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, MatrixV) and self.ring == other.ring
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in row) for row in self.entries)
        return f"MatrixV[{body}]"

    def __add__(self, other: "MatrixV") -> "MatrixV":
        self._shape_check(other, same=True)
        return MatrixV(self.ring,
                       [[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "MatrixV") -> "MatrixV":
        self._shape_check(other, same=True)
        return MatrixV(self.ring,
                       [[a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "MatrixV":
        return MatrixV(self.ring, [[-a for a in row] for row in self.entries])

    def __mul__(self, other: "MatrixV") -> "MatrixV":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        zero = self.ring.zero()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not (a.is_zero or b.is_zero):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return MatrixV(self.ring, out)

    def _shape_check(self, other, same=False):
        if self.ring != other.ring:
            raise ValueError("ring descriptor mismatch")
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def scale(self, s: ScalarElem) -> "MatrixV":
        return MatrixV(self.ring, [[a * s for a in row] for row in self.entries])

    def scaled_by_pi(self, e: int) -> "MatrixV":
        return MatrixV(self.ring,
                       [[a.scaled_by_pi(e) for a in row] for row in self.entries])

    def column(self, j: int):
        return [self.entries[i][j] for i in range(self.rows)]

    def min_valuation(self):
        v = INFINITY
        for row in self.entries:
            for x in row:
                if x.valuation < v:
                    v = x.valuation
        return v

    def apply(self, vec):
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            acc = self.ring.zero()
            for k in range(self.cols):
                a = self.entries[i][k]
                if not (a.is_zero or vec[k].is_zero):
                    acc = acc + a * vec[k]
            out.append(acc)
        return out

    def det(self) -> ScalarElem:
        """Determinant by Gaussian elimination over K with minimal-valuation
        pivoting; exact at precision N."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        work = [list(row) for row in self.entries]
        det = self.ring.one()
        for k in range(n):
            piv_i, piv_v = -1, INFINITY
            for i in range(k, n):
                x = work[i][k]
                if not x.effectively_zero and x.valuation < piv_v:
                    piv_i, piv_v = i, x.valuation
            if piv_i < 0:
                return self.ring.zero()
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

    def inverse(self) -> "MatrixV":
        """Inverse over K (entries may leave V); pivot of minimal valuation."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) for row in self.entries]
        aug = [list(row) for row in MatrixV.identity(self.ring, n).entries]
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
            inv_p = self.ring.one() / work[k][k]
            work[k] = [a * inv_p for a in work[k]]
            aug[k] = [a * inv_p for a in aug[k]]
            for i in range(n):
                if i == k or work[i][k].effectively_zero:
                    continue
                f = work[i][k]
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
        return MatrixV(self.ring, aug)

    def kronecker(self, other: "MatrixV") -> "MatrixV":
        self._shape_check(other)
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    for l in range(other.cols):
                        row.append(self.entries[i][j] * other.entries[k][l])
                out.append(row)
        return MatrixV(self.ring, out)

    @property
    def lossy(self) -> bool:
        return any(x.lossy for row in self.entries for x in row)


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
            x = self.D[i, i]
            if x.is_zero:
                break
            out.append(x.valuation)
        return out


def snf(A: MatrixV) -> SNFResult:
    """Smith normal form over V.

    Requires all entries in V.  Returns U, D, W with U*A*W = D exact at
    precision N, nu(det U) = nu(det W) = 0, and the diagonal of D a
    divisibility chain pi^a1 | pi^a2 | ... followed by zeros.
    """
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
        # normalise the pivot to an exact power of pi
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
    D = MatrixV(ring, work)
    flagged = flagged or D.lossy
    return SNFResult(MatrixV(ring, U), D, MatrixV(ring, W), flagged)


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
        if relations.cols and relations.min_valuation() < 0:
            raise ValueError("relations must lie in V")
        self.relations = relations
        self._snf = None

    def _smith(self) -> SNFResult:
        if self._snf is None:
            self._snf = snf(self.relations)
        return self._snf

    def cokernel_invariants(self):
        """(multiset of torsion exponents a_i > 0, free rank f) with
        coker = (+) V/pi^(a_i) (+) V^f."""
        if self.relations.cols == 0:
            return [], self.ambient_rank
        exps = self._smith().diagonal_exponents
        torsion = sorted(a for a in exps if a > 0)
        return torsion, self.ambient_rank - len(exps)

    def is_torsion_free(self) -> bool:
        torsion, _ = self.cokernel_invariants()
        return not torsion

    def _solve_membership(self, columns, target) -> bool:
        """Is target a V-linear combination of the given columns?"""
        lat = Lattice.from_columns(self.ring, self.ambient_rank, columns)
        return lat.membership(target)

    def quotient_is_zero(self, v) -> bool:
        """Is [v] = 0 in the cokernel, i.e. v in im(relations)?"""
        cols = [self.relations.column(j) for j in range(self.relations.cols)]
        if not cols:
            return all(x.is_zero for x in v)
        return self._solve_membership(cols, v)

    def quotient_divisibility(self, v, m: int) -> bool:
        """Is [v] in pi^m * coker, i.e. v = pi^m y + A z solvable over V?"""
        if m < 1:
            raise ValueError("m must be positive")
        if m >= self.ring.precision:
            raise PrecisionExhausted(
                f"divisibility by pi^{m} is not decidable at precision "
                f"{self.ring.precision}")
        cols = [self.relations.column(j) for j in range(self.relations.cols)]
        zero = self.ring.zero()
        for i in range(self.ambient_rank):
            col = [zero] * self.ambient_rank
            col[i] = self.ring.pi(m)
            cols.append(col)
        return self._solve_membership(cols, v)

    def tensor(self, other: "ModulePresentation") -> "ModulePresentation":
        """Presentation of the tensor product: relations A(x)I | I(x)B."""
        if self.ring != other.ring:
            raise ValueError("ring descriptor mismatch")
        m, n = self.ambient_rank, other.ambient_rank
        eye_m = MatrixV.identity(self.ring, m)
        eye_n = MatrixV.identity(self.ring, n)
        blocks = []
        if self.relations.cols:
            blocks.append(self.relations.kronecker(eye_n))
        if other.relations.cols:
            blocks.append(eye_m.kronecker(other.relations))
        if not blocks:
            return ModulePresentation(self.ring, m * n, None)
        rows = []
        for i in range(m * n):
            row = []
            for b in blocks:
                row.extend(b.entries[i])
            rows.append(row)
        return ModulePresentation(self.ring, m * n, MatrixV(self.ring, rows))


def is_torsion_free(P: ModulePresentation) -> bool:
    return P.is_torsion_free()


def cokernel_invariants(P: ModulePresentation):
    return P.cokernel_invariants()


class Lattice:
    """A finitely generated V-submodule of K^r, stored as pi^e * span(H).

    H is the canonical column Hermite form over V: strictly increasing pivot
    rows, pivot entries exact powers of pi, zero entries elsewhere in pivot
    rows up to canonical residues, and minimal entry valuation 0.  Equality
    of lattices is equality of the pair (e, H) at precision N.
    """

    __slots__ = ("ring", "ambient_rank", "pi_exponent", "gens")

    def __init__(self, ring, ambient_rank, pi_exponent, gens: MatrixV):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.pi_exponent = pi_exponent
        self.gens = gens

    # -- construction --

    @classmethod
    def zero(cls, ring: RingDescriptor, ambient_rank: int) -> "Lattice":
        return cls(ring, ambient_rank, 0, MatrixV.zero(ring, ambient_rank, 0))

    @classmethod
    def standard(cls, ring: RingDescriptor, ambient_rank: int) -> "Lattice":
        return cls(ring, ambient_rank, 0, MatrixV.identity(ring, ambient_rank))

    @classmethod
    def from_columns(cls, ring, ambient_rank, columns) -> "Lattice":
        """Span of the given generator vectors (entries in V or K)."""
        cols = [list(c) for c in columns
                if not all(x.effectively_zero for x in c)]
        if not cols:
            return cls.zero(ring, ambient_rank)
        for c in cols:
            if len(c) != ambient_rank:
                raise ValueError("generator has wrong ambient rank")
        e = min(min(x.valuation for x in c if not x.effectively_zero)
                for c in cols)
        cols = [[x.scaled_by_pi(-e) for x in c] for c in cols]
        reduced = _column_hermite(ring, ambient_rank, cols)
        if not reduced:
            return cls.zero(ring, ambient_rank)
        # reduction can only reveal a finer common pi factor, never lose one
        extra = min(min(x.valuation for x in c if not x.effectively_zero)
                    for c in reduced)
        if extra > 0:
            reduced = [[x.scaled_by_pi(-extra) for x in c] for c in reduced]
        mat = MatrixV(ring, [[c[i] for c in reduced]
                             for i in range(ambient_rank)])
        return cls(ring, ambient_rank, e + extra, mat)

    @classmethod
    def from_matrix_columns(cls, mat: MatrixV) -> "Lattice":
        return cls.from_columns(mat.ring, mat.rows,
                                [mat.column(j) for j in range(mat.cols)])

    # -- queries --

    @property
    def is_zero(self) -> bool:
        return self.gens.cols == 0

    @property
    def rank(self) -> int:
        return self.gens.cols

    def gauge_exponent(self):
        """Maximal e with L inside pi^e times the standard lattice; +inf for
        the zero lattice.  The gauge norm of L is eps^e."""
        if self.is_zero:
            return INFINITY
        return self.pi_exponent

    def generator_vectors(self):
        """Generators as vectors of K-scalars, pi_exponent folded in."""
        return [[x.scaled_by_pi(self.pi_exponent) for x in self.gens.column(j)]
                for j in range(self.gens.cols)]

    def membership(self, vec) -> bool:
        """Decide vec in L by back-substitution against the Hermite form."""
        if len(vec) != self.ambient_rank:
            raise ValueError("ambient rank mismatch")
        residual = [x.scaled_by_pi(-self.pi_exponent) for x in vec]
        pivots = _pivot_rows(self.gens)
        for col_idx, row_idx in enumerate(pivots):
            x = residual[row_idx]
            if x.effectively_zero:
                continue
            a = self.gens[row_idx, col_idx].valuation
            if x.valuation < a:
                return False
            coeff = x / self.gens[row_idx, col_idx]
            col = self.gens.column(col_idx)
            residual = [r - coeff * g for r, g in zip(residual, col)]
        return all(r.effectively_zero for r in residual)

    def contains(self, other: "Lattice") -> bool:
        return all(self.membership(g) for g in other.generator_vectors())

    def __eq__(self, other):
        return (isinstance(other, Lattice)
                and self.ring == other.ring
                and self.ambient_rank == other.ambient_rank
                and ((self.is_zero and other.is_zero)
                     or (self.pi_exponent == other.pi_exponent
                         and self.gens == other.gens)))

    def __hash__(self):
        return hash((self.ring, self.ambient_rank, self.pi_exponent,
                     self.gens))

    def __repr__(self):
        return (f"Lattice(rank {self.rank} in K^{self.ambient_rank}, "
                f"pi_exponent {self.pi_exponent})")

    # -- operations --

    def sum(self, other: "Lattice") -> "Lattice":
        self._compat(other)
        return Lattice.from_columns(
            self.ring, self.ambient_rank,
            self.generator_vectors() + other.generator_vectors())

    def scale_by_pi(self, e: int) -> "Lattice":
        if self.is_zero:
            return self
        return Lattice(self.ring, self.ambient_rank, self.pi_exponent + e,
                       self.gens)

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
        g1 = [[x.scaled_by_pi(self.pi_exponent - e) for x in c]
              for c in (self.gens.column(j) for j in range(self.gens.cols))]
        g2 = [[x.scaled_by_pi(other.pi_exponent - e) for x in c]
              for c in (other.gens.column(j) for j in range(other.gens.cols))]
        stacked = MatrixV(self.ring,
                          [[*(c[i] for c in g1), *((-c[i]) for c in g2)]
                           for i in range(self.ambient_rank)])
        kernel = kernel_basis(stacked)
        n1 = len(g1)
        gens = []
        for z in kernel:
            vec = [self.ring.zero()] * self.ambient_rank
            for idx in range(n1):
                if not z[idx].is_zero:
                    vec = [a + z[idx] * b for a, b in zip(vec, g1[idx])]
            gens.append([x.scaled_by_pi(e) for x in vec])
        return Lattice.from_columns(self.ring, self.ambient_rank, gens)

    def intersect_with_standard(self) -> "Lattice":
        return self.intersect(Lattice.standard(self.ring, self.ambient_rank))

    def _compat(self, other):
        if self.ring != other.ring:
            raise ValueError("ring descriptor mismatch")
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")

    @property
    def lossy(self) -> bool:
        return self.gens.lossy


def kernel_basis(A: MatrixV):
    """A V-basis of ker(A : V^n -> V^m), read off the Smith form."""
    res = snf(A)
    rank = len(res.diagonal_exponents)
    return [res.W.column(j) for j in range(rank, A.cols)]


def _pivot_rows(H: MatrixV):
    """Pivot row of each column of a column Hermite form."""
    out = []
    for j in range(H.cols):
        for i in range(H.rows):
            if not H[i, j].effectively_zero:
                out.append(i)
                break
    return out


def _column_hermite(ring, rank, cols):
    """Canonical column Hermite form over V of the given columns.

    Columns must have entries in V.  Returns a list of columns with
    strictly increasing pivot rows, pivot entries exact powers of pi, zero
    entries to the right of each pivot and canonical residues to the left.
    """
    cols = [list(c) for c in cols]
    zero = ring.zero()
    n_pivots = 0
    for row in range(rank):
        # choose the minimal-valuation entry of this row among free columns
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
        cols[n_pivots] = p = [unit_inv * x for x in p]
        for j in range(len(cols)):
            if j == n_pivots:
                continue
            x = cols[j][row]
            if x.effectively_zero:
                continue
            if j > n_pivots or x.valuation >= piv_v:
                f = x / p[row]
            else:
                # an earlier pivot column: reduce modulo pi^piv_v only
                quo, _ = x.split_at_pi_power(piv_v)
                f = quo
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
