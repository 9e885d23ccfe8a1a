"""Acceptance suite: ten criteria, one pass/fail line each.

Scales: p = 5, N = 40, matrices up to 4 x 4, degree caps up to 8,
n_max = 16.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines; every tolerance is stated inline.
"""

import random
from fractions import Fraction

import pytest

from daggerkit import gallery
from daggerkit.crossed import (AffineAction, CrossedElem, act,
                               crossed_certify, crossed_mul, shift_action)
from daggerkit.linalg import MatrixV, ModulePresentation, snf
from daggerkit.monoid import BicharacterCocycle, MonoidDescriptor
from daggerkit.ring import INFINITY, RingDescriptor
from daggerkit.series import (DaggerSeries, GrowthCertificate, add_scale,
                              best_certificate, certify, mul, nc_torus,
                              torus_monomial)
from daggerkit.spectral import (MatrixAlgebraContext, lattice_from_elements,
                                lgb_closure, newton_polygon_rho,
                                pi_multiplicative, rho1_estimate,
                                semi_dagger_probe)

P = 5
PRECISION = 40
RING = RingDescriptor("padic", P, PRECISION)
Z2 = MonoidDescriptor("Z", 2)
N1 = MonoidDescriptor("N", 1)
N2 = MonoidDescriptor("N", 2)


def report(number, name, passed):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} ({name}) failed"


def random_unit(rng, ring=RING):
    u = rng.randrange(1, ring.base)
    u += ring.base * rng.randrange(ring.base ** (ring.precision - 1))
    return ring.from_valuation_unit(0, u)


def random_v_scalar(rng, max_val=3, ring=RING):
    u = rng.randrange(1, 50)
    if u % ring.base == 0:
        u += 1
    return ring.scalar(u).scaled_by_pi(rng.randint(0, max_val))


def random_v_matrix(rng, d, max_val=2, zero_chance=0.2, ring=RING):
    rows = []
    for _ in range(d):
        row = []
        for _ in range(d):
            if rng.random() < zero_chance:
                row.append(ring.zero())
            else:
                row.append(random_v_scalar(rng, max_val, ring))
        rows.append(row)
    return MatrixV(ring, rows)


def test_01_noncommutative_torus():
    """20 random units lambda; U2 U1 = lambda U1 U2 and every monomial of
    length <= 6 equals the corresponding delta, exactly mod pi^N."""
    rng = random.Random(101)
    cap = 6
    ok = True
    for _ in range(20):
        lam = random_unit(rng)
        u1, u2, cocycle, monoid = nc_torus(RING, lam, cap)
        left = mul(u2, u1, cocycle)
        right = add_scale(DaggerSeries.zero(RING, monoid, cap),
                          mul(u1, u2, cocycle), lam)
        ok = ok and left == right
        for s in monoid.elements_up_to_length(cap):
            mono = torus_monomial(RING, monoid, cocycle,
                                  s.data[0], s.data[1], cap)
            ok = ok and mono == DaggerSeries.delta(RING, monoid, s, cap)
    report(1, "noncommutative torus relations", ok)


def test_02_twisted_associativity():
    """200 random triples over Z^2 with bicharacter cocycles: (ab)c = a(bc)
    exactly whenever no truncation flag is raised."""
    rng = random.Random(102)
    cap = 6
    ok = True
    checked = 0
    while checked < 200:
        lam = random_unit(rng)
        Q = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        cocycle = BicharacterCocycle(lam, Q)
        triple = []
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                s = Z2.random_element(rng, 2)
                terms[s] = random_v_scalar(rng)
            triple.append(DaggerSeries(RING, Z2, terms, cap))
        a, b, c = triple
        left = mul(mul(a, b, cocycle), c, cocycle)
        right = mul(a, mul(b, c, cocycle), cocycle)
        if left.truncated or right.truncated:
            continue
        ok = ok and left == right
        checked += 1
    report(2, "twisted associativity (200 triples)", ok)


def test_03_certificate_soundness():
    """100 random certified pairs: the combined (min c, k1+k2+1) product
    certificate is validated against the brute-force envelope.  Zero
    failures allowed."""
    rng = random.Random(103)
    cap = 6
    constants = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    failures = 0
    for _ in range(100):
        pair = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                s = Z2.random_element(rng, cap)
                terms[s] = random_v_scalar(rng, max_val=4)
            series = DaggerSeries(RING, Z2, terms, cap)
            c = rng.choice(constants)
            _, k = certify(series, c)
            pair.append(DaggerSeries(RING, Z2, terms, cap,
                                     GrowthCertificate(c, k)))
        lam = random_unit(rng)
        cocycle = BicharacterCocycle(lam, [[0, 0], [1, 0]])
        prod = mul(pair[0], pair[1], cocycle)
        expected = GrowthCertificate(
            min(pair[0].certificate.c, pair[1].certificate.c),
            pair[0].certificate.k + pair[1].certificate.k + 1)
        if prod.certificate != expected:
            failures += 1
            continue
        if not prod.is_zero and \
                not best_certificate(prod).admits(prod.certificate):
            failures += 1
    report(3, "certificate soundness (100 products)", failures == 0)


def _companion(coeff_vals, rng, d):
    """Companion matrix of x^d + sum pi^(v_i) u_i x^i."""
    rows = []
    for i in range(d):
        row = [RING.zero()] * d
        if i > 0:
            row[i - 1] = RING.one()
        rows.append(row)
    for i in range(d):
        v = coeff_vals[i]
        entry = RING.zero() if v is None else \
            RING.scalar(rng.randrange(1, P)).scaled_by_pi(v)
        rows[i][d - 1] = -entry
    return MatrixV(RING, rows)


def test_04_spectral_oracle_agreement():
    """50 matrices (diagonal, companion, nilpotent, random over V with one
    pi^-1 scaling): |rho1 exponent - min(0, Newton slope)| <= 1/16."""
    rng = random.Random(104)
    n_max = 16
    tol = Fraction(1, n_max)
    matrices = []
    for _ in range(15):
        d = rng.randint(2, 4)
        diag = [[RING.zero()] * d for _ in range(d)]
        for i in range(d):
            diag[i][i] = RING.scalar(rng.randrange(1, P)) \
                .scaled_by_pi(rng.randint(-1, 3))
        matrices.append(MatrixV(RING, diag))
    for _ in range(15):
        d = rng.randint(2, 4)
        vals = [rng.choice([0, 1, 2, 3, None]) for _ in range(d)]
        if all(v is None for v in vals):
            vals[0] = 1
        matrices.append(_companion(vals, rng, d))
    for _ in range(10):
        d = rng.randint(2, 4)
        rows = [[RING.zero()] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                if rng.random() < 0.7:
                    rows[i][j] = random_v_scalar(rng, 1)
        matrices.append(MatrixV(RING, rows))
    while len(matrices) < 50:
        a = random_v_matrix(rng, rng.randint(2, 4), max_val=1,
                            zero_chance=0.3)
        if all(x.is_zero for row in a.entries for x in row):
            continue
        matrices.append(a.scaled_by_pi(-1))
    ok = True
    for a in matrices:
        ctx = MatrixAlgebraContext(RING, a.rows)
        S = lattice_from_elements(ctx, [a])
        estimate = rho1_estimate(S, ctx, n_max).rho1_exponent
        slope = newton_polygon_rho(a)
        target = Fraction(0) if slope == INFINITY else min(Fraction(0), slope)
        ok = ok and abs(estimate - target) <= tol
    report(4, "spectral oracle agreement (50 matrices)", ok)


def _triangle_verdicts(S, ctx):
    a_true = rho1_estimate(S, ctx, 12).rho1_exponent == 0
    probes = semi_dagger_probe(S, ctx, 1, [1, 2, 3], l_max=8)
    b_true = all(r.verdict == "bounded" for r in probes.values())
    chain, stabilized = lgb_closure(S, ctx, 8)
    c_true = stabilized is not None and pi_multiplicative(ctx, chain[-1])
    return a_true, b_true, c_true


def test_05_consistency_triangle():
    """On a fixed family of 10 lattices the three verdicts (rho1 = 1,
    probe bounded for j in {1,2,3}, stabilised closure with pi U U in U)
    agree pairwise; the designed witness diag(pi^-1, 1) shows bounded at
    j = 1 but diverging at j = 2."""
    ctx = MatrixAlgebraContext(RING, 2)

    def m(rows):
        out = []
        for row in rows:
            r = []
            for x in row:
                if isinstance(x, tuple):
                    r.append(RING.scalar(x[1]).scaled_by_pi(x[0]))
                else:
                    r.append(RING.scalar(x))
            out.append(r)
        return MatrixV(RING, out)

    family = [
        [m([[0, 1], [0, 0]])],
        [m([[1, 0], [0, 1]])],
        [m([[(1, 1), 0], [0, (2, 1)]])],
        [m([[0, 1], [(1, 1), 0]])],
        [m([[1, 0], [0, 0]]), m([[0, 0], [0, 1]])],
        [m([[0, 1], [0, 0]]), m([[0, 0], [1, 0]])],
        [m([[0, (-1, 1)], [0, 0]])],
        [m([[(-2, 1), 0], [0, (-2, 1)]])],
        [m([[(-2, 1), 0], [0, (-1, 1)]])],
        [m([[0, (-2, 1)], [(-1, 1), 0]])],
    ]
    ok = True
    for gens in family:
        S = lattice_from_elements(ctx, gens)
        a_true, b_true, c_true = _triangle_verdicts(S, ctx)
        ok = ok and (a_true == b_true == c_true)
    witness = lattice_from_elements(ctx, [m([[(-1, 1), 0], [0, 1]])])
    probes = semi_dagger_probe(witness, ctx, 1, [1, 2], l_max=8)
    ok = ok and probes[1].verdict == "bounded"
    ok = ok and probes[2].verdict == "diverging"
    report(5, "spectral consistency triangle (10 lattices + witness)", ok)


def test_06_snf_correctness():
    """200 random matrices up to 4 x 4: U A W = D exactly, unimodular
    transforms, divisibility chain on the diagonal."""
    rng = random.Random(106)
    ok = True
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = MatrixV(RING, [[RING.zero() if rng.random() < 0.2
                            else random_v_scalar(rng, 3)
                            for _ in range(cols)] for _ in range(rows)])
        res = snf(a)
        ok = ok and res.U * a * res.W == res.D
        ok = ok and res.U.det().valuation == 0
        ok = ok and res.W.det().valuation == 0
        exps = res.diagonal_exponents
        ok = ok and exps == sorted(exps)
        for i in range(min(rows, cols)):
            for j in range(min(rows, cols)):
                if i != j:
                    ok = ok and res.D[i, j].is_zero
    report(6, "Smith form correctness (200 matrices)", ok)


def test_07_tensor_torsion_freeness():
    """50 random torsion-free presentations of rank <= 3: the tensor
    product presentation is torsion-free.  Zero failures."""
    rng = random.Random(107)

    def random_torsion_free():
        while True:
            rank = rng.randint(1, 3)
            cols = rng.randint(0, rank)
            rel = None
            if cols:
                rel = MatrixV(RING, [[RING.zero() if rng.random() < 0.3
                                      else random_v_scalar(rng, 2)
                                      for _ in range(cols)]
                                     for _ in range(rank)])
            pres = ModulePresentation(RING, rank, rel)
            if pres.is_torsion_free():
                return pres

    failures = 0
    for _ in range(50):
        P1 = random_torsion_free()
        Q1 = random_torsion_free()
        if not P1.tensor(Q1).is_torsion_free():
            failures += 1
    report(7, "tensor torsion-freeness shadow (50 pairs)", failures == 0)


def test_08_crossed_product_growth():
    """Products of length <= 4 of (c=1, k=0)-certified generators over the
    shift action re-certify with k <= 3, confirmed by the exhaustive
    coefficient scan."""
    rng = random.Random(108)
    cap, z_cap = 8, 4
    alpha = shift_action(RING)

    def gen(n, coeffs):
        series = DaggerSeries(RING, N1,
                              {N1.element((e,)): RING.pi(v)
                               for e, v in coeffs.items()}, cap)
        return CrossedElem(RING, N1, {n: series}, z_cap, cap,
                           GrowthCertificate(1, 0))

    generators = [
        gen(0, {1: 0}),            # x d0
        gen(1, {0: 0}),            # d1
        gen(-1, {0: 0}),           # d(-1)
        gen(0, {2: 1}),            # pi x^2 d0
        gen(1, {1: 1}),            # pi x d1
    ]
    ok = True
    for _ in range(60):
        length = rng.randint(2, 4)
        prod = rng.choice(generators)
        for _ in range(length - 1):
            prod = crossed_mul(prod, rng.choice(generators), alpha)
        if prod.truncated:
            continue
        ok = ok and prod.certificate == GrowthCertificate(1, length - 1)
        ok = ok and prod.certificate.k <= 3
        if not prod.is_zero:
            _, minimal = crossed_certify(prod, 1)
            ok = ok and minimal <= prod.certificate.k
    report(8, "crossed-product growth certificates", ok)


def test_09_gallery_regressions():
    """The nonseparated and nonclosed-image regressions pass at cap 8."""
    ring = RingDescriptor("padic", P, 12)
    first = gallery.run("nonseparated", ring, 8)
    second = gallery.run("nonclosed-image", ring, 8)
    ok = first["pass"] and not first["class_of_one_is_zero"]
    ok = ok and second["pass"]
    ok = ok and all(g["image_gap_valuation"] == g["n"] + 1
                    and g["source_gap_valuation"] == 0
                    for g in second["gaps"])
    report(9, "gallery regressions", ok)


def test_10_affine_action_invariants():
    """100 random (a, b, f) with a in GL_2(V): action identity,
    homomorphism property, degree preservation."""
    rng = random.Random(110)
    cap = 6
    ok = True
    checked = 0
    while checked < 100:
        a = random_v_matrix(rng, 2, max_val=1, zero_chance=0.3)
        if a.det().is_zero or a.det().valuation != 0:
            continue
        b = [RING.scalar(rng.randint(-3, 3)) for _ in range(2)]
        alpha = AffineAction(a, b)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            s = N2.random_element(rng, 3)
            terms[s] = random_v_scalar(rng)
        f = DaggerSeries(RING, N2, terms, cap)
        g_terms = {}
        for _ in range(rng.randint(1, 3)):
            s = N2.random_element(rng, 3)
            g_terms[s] = random_v_scalar(rng)
        g = DaggerSeries(RING, N2, g_terms, cap)
        n, m_exp = rng.randint(-3, 3), rng.randint(-3, 3)
        ok = ok and act(alpha, m_exp, act(alpha, n, f)) == \
            act(alpha, m_exp + n, f)
        ok = ok and act(alpha, n, mul(f, g)) == \
            mul(act(alpha, n, f), act(alpha, n, g))
        ok = ok and act(alpha, n, f).max_length() <= f.max_length()
        checked += 1
    report(10, "affine action invariants (100 samples)", ok)


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q"])
