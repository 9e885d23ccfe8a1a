"""eqchar-lattice: Smith forms, lattices and radii over F_q[[t]].

Why: residue arithmetic dominates here, and q = 4 and q = 9 take the
GF(q) polynomial path on every operation.  SNF and Hermite reduction both
run, so a merged elimination kernel that favours one of them shows.  Mix
per cycle of 40 queries at N = 40: q = 5 (24), q = 4 (8), q = 9 (8);
SNF and torsion of 3x3 to 6x6 presentations, lattice sum, intersection,
membership and equality of rank 2 to 4, and rho1_estimate (n_max 8) of
d <= 4 matrices.
"""

from __future__ import annotations

from fractions import Fraction

from common import companion, contains, frac, matrix, nilpotent, ring_json
from wl_padic import check_radius, check_snf

N_MAX = 8
PRECISION = 40

# Slots as (kind, n[, rho family]).  Sorted by cost, a cycle is 16 light
# q = 5 queries, 8 middling ones (the 5x5 and 6x6 eliminations) and 16 GF(4)
# and GF(9) queries, so the median and the 90th percentile fall inside a
# group of similar queries rather than in a gap between groups.
_Q5 = [("snf", 3), ("snf", 4), ("torsion", 3), ("torsion", 4),
       ("sum", 3), ("sum", 4), ("intersect", 3), ("membership", 3),
       ("membership", 4), ("equal", 3), ("equal", 4), ("rho", 2, "random"),
       ("rho", 2, "companion"), ("rho", 3, "nilpotent"),
       ("rho", 4, "nilpotent"), ("rho", 4, "random"),
       ("snf", 5), ("snf", 6), ("torsion", 5), ("torsion", 6),
       ("intersect", 4), ("sum", 5), ("rho", 3, "companion"),
       ("rho", 4, "companion")]
_Q49 = [("snf", 3), ("snf", 4), ("torsion", 3), ("torsion", 4),
        ("sum", 2), ("intersect", 3), ("equal", 3), ("rho", 2, "companion")]


def cycle(tiny: bool = False):
    if tiny:
        return [(q, kind, 2, "companion", 12) for q in (5, 4) for kind in
                ("snf", "torsion", "sum", "intersect", "membership",
                 "equal", "rho")]
    return [(q, *slot[:2], slot[2] if len(slot) > 2 else None, PRECISION)
            for q, slots in ((5, _Q5), (4, _Q49), (9, _Q49))
            for slot in slots]


def generate(rng, slot) -> dict:
    q, kind, n, family, precision = slot
    ring = ring_json("eqchar", q, precision)
    inp = {"kind": kind, "n": n, "ring": ring}
    if kind in ("snf", "torsion"):
        inp["matrix"] = matrix(rng, ring, n, n, vmax=2)
    elif kind == "rho":
        expected = None
        if family == "random":
            mat = matrix(rng, ring, n, n)
        elif family == "companion":
            k = rng.choice([k for k in range(1, 2 * n) if k % n])
            mat, expected = companion(rng, ring, n, k), frac(Fraction(k, n))
        else:
            mat, expected = nilpotent(rng, ring, n), "inf"
        inp.update(family=family, matrix=mat, expected_rho=expected)
    else:
        inp["gens"] = matrix(rng, ring, n, n, vmax=2)
        if kind in ("sum", "intersect"):
            inp["other"] = matrix(rng, ring, n, max(1, n - 1), vmax=2)
        elif kind == "membership":
            inp["coeffs"] = matrix(rng, ring, n, 1, vmax=2)
        else:
            # upper unitriangular change of generators: the same lattice
            inp["change"] = [[{"v": 0, "u": "1"} if i == j else
                              (matrix(rng, ring, 1, 1, vmax=2)[0][0] if j > i
                               else {"v": "inf", "u": "0"})
                              for j in range(n)] for i in range(n)]
    return inp


def parse(inputs, env):
    from daggerkit import serialize
    out = []
    for inp in inputs:
        ring = env.ring(inp["ring"])
        q = {"input": inp, "ring": ring}
        for key in ("matrix", "gens", "other", "coeffs", "change"):
            if key in inp:
                q[key] = serialize.matrix_from_json(ring, inp[key])
        if inp["kind"] == "rho":
            q["ctx"] = env.matrix_context(ring, inp["n"])
        out.append(q)
    return out


def _columns(m):
    return [m.column(j) for j in range(m.cols)]


def run(q):
    from daggerkit import linalg, spectral
    kind, ring, n = q["input"]["kind"], q["ring"], q["input"]["n"]
    if kind == "snf":
        return linalg.snf(q["matrix"])
    if kind == "torsion":
        P = linalg.ModulePresentation(ring, n, q["matrix"])
        return list(P.cokernel_invariants())
    if kind == "rho":
        ctx = q["ctx"]
        S = spectral.lattice_from_elements(ctx, [q["matrix"]])
        return spectral.rho1_estimate(S, ctx, N_MAX)
    L = linalg.Lattice.from_columns(ring, n, _columns(q["gens"]))
    if kind in ("sum", "intersect"):
        M = linalg.Lattice.from_columns(ring, n, _columns(q["other"]))
        return [L, M, L.sum(M) if kind == "sum" else L.intersect(M)]
    if kind == "membership":
        inside = q["gens"].apply(q["coeffs"].column(0))
        outside = [ring.pi(-1)] + [ring.zero()] * (n - 1)
        return [L, inside, L.membership(inside), L.membership(outside)]
    M = linalg.Lattice.from_columns(ring, n, _columns(q["gens"] * q["change"]))
    scaled = L.scale_by_pi(1)
    return [L, M, L == M, scaled, L == scaled]


def content(q, res):
    """What enters the digest: lattices the query only built are left out."""
    kind = q["input"]["kind"]
    if kind in ("sum", "intersect"):
        return res[2]
    if kind == "membership":
        return res[2:]
    if kind == "equal":
        return [res[2], res[4]]
    return res


def check(q, res, full: bool):
    from daggerkit import linalg
    kind = q["input"]["kind"]
    if kind == "snf":
        return check_snf(q["matrix"], res, full)
    if kind == "torsion":
        torsion, free = res
        problems = []
        if torsion != sorted(torsion) or any(a <= 0 for a in torsion):
            problems.append(f"bad torsion exponents {torsion}")
        if full:
            exps = linalg.snf(q["matrix"]).diagonal_exponents
            if torsion != [a for a in exps if a > 0] or \
                    free != q["input"]["n"] - len(exps):
                problems.append("torsion disagrees with the Smith form")
        return problems
    if kind == "rho":
        return check_radius(res, None, q["input"]["expected_rho"],
                            q["ring"].precision, N_MAX)
    lattices = [x for x in res if isinstance(x, linalg.Lattice)]
    loose = any(L.lossy for L in lattices)
    if kind == "sum":
        L, M, S = res
        return [] if contains(S, L.generator_vectors() + M.generator_vectors(),
                              loose) else ["sum does not contain both summands"]
    if kind == "intersect":
        L, M, I = res
        gens = I.generator_vectors()
        return [] if contains(L, gens, loose) and contains(M, gens, loose) \
            else ["intersection is not inside both lattices"]
    if kind == "membership":
        L, inside, member, outside = res
        if outside or not (member or (loose and contains(L, [inside], True))):
            return [f"membership answers {[member, outside]}, expected "
                    "[True, False]"]
        return []
    L, M, eq, scaled, eq_scaled = res
    problems = []
    if eq_scaled and not L.is_zero:
        problems.append("L equals pi L")
    same = contains(L, M.generator_vectors(), loose) and \
        contains(M, L.generator_vectors(), loose)
    if not same or not (eq or loose):
        problems.append("a change of generators changed the lattice")
    return problems
