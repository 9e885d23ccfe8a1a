"""Smith forms, presentations, lattices: contracts and spec examples."""

import random

import pytest

from daggerkit.ring import INFINITY, PrecisionExhausted, RingDescriptor
from daggerkit.linalg import (Lattice, MatrixV, ModulePresentation,
                              kernel_basis, snf)


@pytest.fixture
def ring():
    return RingDescriptor("padic", 5, 16)


def pi_mat(ring, rows):
    """Build a matrix from integer pairs (valuation, unit) or plain ints."""
    out = []
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, tuple):
                r.append(ring.scalar(x[1]).scaled_by_pi(x[0]))
            else:
                r.append(ring.scalar(x))
        out.append(r)
    return MatrixV(ring, out)


def random_v_matrix(ring, rng, rows, cols, max_val=3):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.15:
                row.append(ring.zero())
            else:
                v = rng.randint(0, max_val)
                u = rng.randrange(1, 60)
                if u % ring.base == 0:
                    u += 1
                row.append(ring.scalar(u).scaled_by_pi(v))
        out.append(row)
    return MatrixV(ring, out)


def assert_valid_snf(A, res):
    assert res.U * A * res.W == res.D
    assert res.U.det().valuation == 0
    assert res.W.det().valuation == 0
    exps = res.diagonal_exponents
    assert exps == sorted(exps)
    n = min(res.D.rows, res.D.cols)
    for i in range(res.D.rows):
        for j in range(res.D.cols):
            if i != j:
                assert res.D[i, j].is_zero
    for i in range(len(exps), n):
        assert res.D[i, i].is_zero
    # nonzero diagonal entries are exact powers of pi
    for i, a in enumerate(exps):
        assert res.D[i, i] == A.ring.pi(a)


class TestSNF:
    def test_already_diagonal_up_to_order(self, ring):
        A = pi_mat(ring, [[(1, 1), 0], [0, 1]])
        res = snf(A)
        assert_valid_snf(A, res)
        assert res.diagonal_exponents == [0, 1]

    def test_hand_reduced_two_by_two(self, ring):
        # row-reduce by hand: det = (1+pi) - 1 = pi, first invariant 1
        A = MatrixV(ring, [[ring.one(), ring.one()],
                           [ring.one(), ring.one() + ring.pi()]])
        res = snf(A)
        assert_valid_snf(A, res)
        assert res.diagonal_exponents == [0, 1]
        assert A.det().valuation == 1

    def test_zero_matrix(self, ring):
        A = pi_mat(ring, [[0]])
        res = snf(A)
        assert res.D == A
        assert res.U == MatrixV.identity(ring, 1)
        assert res.W == MatrixV.identity(ring, 1)

    def test_rejects_entries_outside_v(self, ring):
        A = MatrixV(ring, [[ring.pi(-1)]])
        with pytest.raises(ValueError):
            snf(A)

    def test_random_matrices(self, ring):
        rng = random.Random(42)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            A = random_v_matrix(ring, rng, rows, cols)
            assert_valid_snf(A, snf(A))

    def test_rectangular(self, ring):
        A = pi_mat(ring, [[(1, 2), 3, 0], [0, (2, 1), (1, 4)]])
        assert_valid_snf(A, snf(A))


class TestCokernel:
    def test_single_pi_relation(self, ring):
        P = ModulePresentation(ring, 1, pi_mat(ring, [[(1, 1)]]))
        assert P.cokernel_invariants() == ([1], 0)
        assert not P.is_torsion_free()

    def test_unit_kills_generator(self, ring):
        P = ModulePresentation(ring, 2, pi_mat(ring, [[(1, 1), 0], [0, 1]]))
        assert P.cokernel_invariants() == ([1], 0)

    def test_free_module(self, ring):
        P = ModulePresentation(ring, 3, None)
        assert P.cokernel_invariants() == ([], 3)
        assert P.is_torsion_free()

    def test_zero_module_is_torsion_free(self, ring):
        P = ModulePresentation(ring, 1, pi_mat(ring, [[1]]))
        assert P.is_torsion_free()

    def test_snf_oracle_for_mixed_presentation(self, ring):
        # SNF of [[pi, 1], [0, 0]] is diag(1, 0): coker is V, torsion-free
        A = pi_mat(ring, [[(1, 1), 1], [0, 0]])
        res = snf(A)
        assert res.diagonal_exponents == [0]
        P = ModulePresentation(ring, 2, A)
        assert P.is_torsion_free()
        assert P.cokernel_invariants() == ([], 1)

    def test_no_relations_answer_as_a_zero_relation(self):
        # a vector zero at N is zero in the quotient whether the presentation
        # has no relation column, a zero one, or relations=None
        R = RingDescriptor("padic", 5, 4)
        v = [R.pi(5), R.zero()]
        assert v[0] == R.zero()
        for rel in (None, MatrixV.zero(R, 2, 0), MatrixV.zero(R, 2, 1)):
            P = ModulePresentation(R, 2, rel)
            assert P.quotient_is_zero(v)
            assert not P.quotient_is_zero([R.pi(3), R.zero()])
        free = ModulePresentation(R, 6, None)
        T = ModulePresentation(R, 2, MatrixV.zero(R, 2, 0)).tensor(
            ModulePresentation(R, 3, None))
        assert (T.relations.rows, T.relations.cols) == (6, 0)
        assert T.relations == free.relations
        assert T.cokernel_invariants() == free.cokernel_invariants() \
            == ([], 6)


class TestLattice:
    def test_standard_sum(self, ring):
        e1 = Lattice.from_columns(ring, 2, [[ring.one(), ring.zero()]])
        e2 = Lattice.from_columns(ring, 2, [[ring.zero(), ring.one()]])
        assert e1.sum(e2) == Lattice.standard(ring, 2)

    def test_membership(self, ring):
        L = Lattice.from_columns(ring, 2, [[ring.pi(), ring.zero()]])
        assert L.membership([ring.pi(), ring.zero()])
        assert not L.membership([ring.one(), ring.zero()])

    def test_scale(self, ring):
        V2 = Lattice.standard(ring, 2)
        scaled = V2.scale_by_pi(1)
        assert scaled == Lattice.from_columns(
            ring, 2, [[ring.pi(), ring.zero()], [ring.zero(), ring.pi()]])

    def test_equality_independent_of_generators(self, ring):
        a = Lattice.from_columns(
            ring, 2,
            [[ring.one(), ring.one()], [ring.zero(), ring.pi()]])
        b = Lattice.from_columns(
            ring, 2,
            [[ring.one(), ring.one() + ring.pi()],
             [ring.pi(), ring.zero()],
             [ring.one(), ring.one()]])
        assert a == b

    def test_wrong_length_generators_rejected_even_when_zero(self, ring):
        z = ring.zero()
        for cols in ([[z, z, z]], [[ring.one(), z, z]], [[z, z], [z]],
                     [[z, ring.pi(ring.precision)]] + [[z]]):
            with pytest.raises(ValueError, match="wrong ambient rank"):
                Lattice.from_columns(ring, 2, cols)
        assert Lattice.from_columns(ring, 2, [[z, z]]).is_zero

    def test_gauge_exponent(self, ring):
        L = Lattice.from_columns(
            ring, 2, [[ring.pi(3), ring.zero()], [ring.zero(), ring.pi(3)]])
        assert L.gauge_exponent() == 3
        M = Lattice.from_columns(
            ring, 2, [[ring.pi(-1), ring.zero()], [ring.zero(), ring.one()]])
        assert M.gauge_exponent() == -1
        assert Lattice.zero(ring, 2).gauge_exponent() == INFINITY

    def test_preimage_full_lattice(self, ring):
        V2 = Lattice.standard(ring, 2)
        assert V2.preimage_pi(3) == V2.scale_by_pi(-3)

    def test_preimage_zero_lattice(self, ring):
        Z = Lattice.zero(ring, 2)
        assert Z.preimage_pi(1) == Z

    def test_preimage_intersected_with_standard(self, ring):
        # {x in V^2 : pi x in span(pi e1, e2)} is all of V^2
        L = Lattice.from_columns(
            ring, 2, [[ring.pi(), ring.zero()], [ring.zero(), ring.one()]])
        pre = L.preimage_pi(1).intersect_with_standard()
        assert pre == Lattice.standard(ring, 2)

    def test_preimage_contract(self, ring):
        rng = random.Random(3)
        for _ in range(25):
            cols = [random_v_matrix(ring, rng, 2, 1).column(0)
                    for _ in range(rng.randint(1, 3))]
            L = Lattice.from_columns(ring, 2, cols)
            for j in (1, 2):
                pre = L.preimage_pi(j)
                # pi^j * pre inside L, and pre contains L
                assert L.contains(pre.scale_by_pi(j))
                assert pre.contains(L)

    def test_preimage_membership_by_enumeration(self):
        # exhaustive check at precision 3, rank 2: every x with pi^j x in L
        # is a member of the preimage
        ring = RingDescriptor("padic", 2, 3)
        L = Lattice.from_columns(
            ring, 2, [[ring.pi(), ring.zero()], [ring.pi(2), ring.pi()]])
        j = 1
        pre = L.preimage_pi(j)
        reps = range(-2, 8)
        for a in reps:
            for b in reps:
                x = [ring.scalar(a), ring.scalar(b)]
                scaled = [c.scaled_by_pi(j) for c in x]
                if L.membership(scaled):
                    assert pre.membership(x)

    def test_intersection(self, ring):
        L = Lattice.from_columns(
            ring, 2, [[ring.one(), ring.one()]])
        M = Lattice.from_columns(
            ring, 2, [[ring.one(), ring.zero()], [ring.zero(), ring.pi(2)]])
        inter = L.intersect(M)
        # elements c*(1,1) with c in V and c in pi^2 V
        assert inter == Lattice.from_columns(
            ring, 2, [[ring.pi(2), ring.pi(2)]])

    def test_kernel_basis(self, ring):
        A = pi_mat(ring, [[1, 1, 0], [0, (1, 1), (1, 1)]])
        for z in kernel_basis(A):
            assert all(x.is_zero for x in A.apply(z))


class TestQuotientDivisibility:
    def build_nonseparated(self, ring, cap):
        # ambient V[x] truncated at degree cap; relations 1 - pi^n x^n
        cols = []
        for n in range(1, cap + 1):
            col = [ring.zero()] * (cap + 1)
            col[0] = ring.one()
            col[n] = -ring.pi(n)
            cols.append(col)
        mat = MatrixV(ring, [[c[i] for c in cols] for i in range(cap + 1)])
        return ModulePresentation(ring, cap + 1, mat)

    def test_one_is_divisible_by_every_pi_power(self, ring):
        cap = 6
        P = self.build_nonseparated(ring, cap)
        one = [ring.one()] + [ring.zero()] * cap
        for m in range(1, cap + 1):
            assert P.quotient_divisibility(one, m)

    def test_one_is_not_zero(self, ring):
        P = self.build_nonseparated(ring, 6)
        one = [ring.one()] + [ring.zero()] * 6
        assert not P.quotient_is_zero(one)

    def test_free_module_divisibility(self, ring):
        P = ModulePresentation(ring, 2, None)
        v = [ring.pi(), ring.zero()]
        assert P.quotient_divisibility(v, 1)
        assert not P.quotient_divisibility([ring.one(), ring.zero()], 1)

    def test_monotone_in_m(self, ring):
        rng = random.Random(9)
        for _ in range(20):
            A = random_v_matrix(ring, rng, 3, 2)
            P = ModulePresentation(ring, 3, A)
            v = random_v_matrix(ring, rng, 3, 1).column(0)
            results = [P.quotient_divisibility(v, m) for m in (1, 2, 3)]
            # divisible by pi^m implies divisible by pi^(m') for m' <= m
            for lo, hi in ((0, 1), (1, 2)):
                if results[hi]:
                    assert results[lo]

    def test_precision_exhaustion(self, ring):
        P = ModulePresentation(ring, 1, None)
        with pytest.raises(PrecisionExhausted):
            P.quotient_divisibility([ring.one()], ring.precision)


class TestTensor:
    def random_torsion_free(self, ring, rng, max_rank=3):
        while True:
            rank = rng.randint(1, max_rank)
            cols = rng.randint(0, rank)
            P = ModulePresentation(ring, rank,
                                   random_v_matrix(ring, rng, rank, cols)
                                   if cols else None)
            if P.is_torsion_free():
                return P

    def test_tensor_of_torsion_free_is_torsion_free(self, ring):
        rng = random.Random(123)
        for _ in range(15):
            P = self.random_torsion_free(ring, rng)
            Q = self.random_torsion_free(ring, rng)
            assert P.tensor(Q).is_torsion_free()

    def test_tensor_with_torsion(self, ring):
        P = ModulePresentation(ring, 1, pi_mat(ring, [[(1, 1)]]))
        Q = ModulePresentation(ring, 1, None)
        assert not P.tensor(Q).is_torsion_free()


class TestEmptyShapes:
    def test_matrices_without_rows_keep_their_columns(self, ring):
        empty = MatrixV.zero(ring, 0, 3)
        assert (empty.rows, empty.cols) == (0, 3)
        assert empty != MatrixV.zero(ring, 0, 2)
        # an empty inner dimension gives the zero matrix, not a 2 x 0 one
        prod = MatrixV.zero(ring, 2, 0) * empty
        assert (prod.rows, prod.cols) == (2, 3)
        assert prod == MatrixV.zero(ring, 2, 3) and not prod.lossy
        prod = empty * MatrixV.identity(ring, 3)
        assert (prod.rows, prod.cols) == (0, 3)

    def test_every_operation_keeps_the_shape_of_a_rowless_matrix(self, ring):
        Z = MatrixV.zero(ring, 0, 3)
        for m in (Z + Z, Z - Z, -Z, Z.scale(ring.scalar(2)),
                  Z.scaled_by_pi(1)):
            assert (m.rows, m.cols) == (0, 3)
            assert m == Z
        kron = MatrixV.zero(ring, 0, 2).kronecker(MatrixV.identity(ring, 2))
        assert (kron.rows, kron.cols) == (0, 4)
        kron = MatrixV.identity(ring, 2).kronecker(MatrixV.zero(ring, 0, 3))
        assert (kron.rows, kron.cols) == (0, 6)
        res = snf(Z)
        assert [(m.rows, m.cols) for m in (res.U, res.D, res.W)] == \
            [(0, 0), (0, 3), (3, 3)]
        assert res.U * Z * res.W == res.D
        res = snf(MatrixV.zero(ring, 2, 0))
        assert [(m.rows, m.cols) for m in (res.U, res.D, res.W)] == \
            [(2, 2), (2, 0), (0, 0)]

    def test_tensor_with_a_rank_zero_module(self, ring):
        P = ModulePresentation(ring, 0, MatrixV.zero(ring, 0, 2))
        Q = ModulePresentation(ring, 2, MatrixV.identity(ring, 2))
        rel = P.tensor(Q).relations
        assert (rel.rows, rel.cols) == (0, 4)
        assert P.tensor(Q).cokernel_invariants() == ([], 0)


class TestDescriptorChecks:
    def test_equal_descriptors_combine(self):
        # distinct instances describing the same ring are interchangeable
        r1, r2 = RingDescriptor("padic", 5, 16), RingDescriptor("padic", 5, 16)
        A = MatrixV(r1, [[r2.one(), r1.scalar(2)], [r2.scalar(3), r1.zero()]])
        B = MatrixV(r2, [[r2.one(), r2.zero()], [r2.zero(), r2.one()]])
        assert A * B == A
        assert (A + B) - B == A
        assert A.scale(r2.scalar(2)) == A + A
        assert A.kronecker(B).rows == 4
        L1 = Lattice.from_columns(r1, 2, list(zip(*A.raw)))
        L2 = Lattice.standard(r2, 2)
        assert L1.sum(L2) == L2
        assert L1.intersect(L2) == L1
        assert L2.membership([r1.one(), r2.pi(3)])
        assert Lattice.from_columns(r1, 2, [[r2.one(), r2.zero()]]).rank == 1

    def test_mismatches_still_raise(self):
        r1 = RingDescriptor("padic", 5, 16)
        for other in (RingDescriptor("padic", 5, 9),
                      RingDescriptor("eqchar", 5, 16)):
            A, B = MatrixV.identity(r1, 2), MatrixV.identity(other, 2)
            with pytest.raises(ValueError):
                MatrixV(r1, [[r1.one(), other.one()]])
            for op in (lambda x, y: x + y, lambda x, y: x - y,
                       lambda x, y: x * y, lambda x, y: x.kronecker(y)):
                with pytest.raises(ValueError):
                    op(A, B)
            L1, L2 = Lattice.standard(r1, 2), Lattice.standard(other, 2)
            for op in (lambda x, y: x.sum(y), lambda x, y: x.intersect(y)):
                with pytest.raises(ValueError):
                    op(L1, L2)
            with pytest.raises(ValueError):
                L1.membership([other.one(), other.one()])
            with pytest.raises(ValueError):
                Lattice.from_columns(r1, 2, [[other.one(), other.one()]])
            with pytest.raises(ValueError):
                A.apply([other.one(), other.one()])
