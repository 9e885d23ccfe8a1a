"""padic-spectral: the acceptance-05 spectral pipeline over Z_5.

Why: integer residues make scalar arithmetic cheap, so matmul, Hermite
reduction, the lattice-power loops and the characteristic polynomial take
the time; the few large-d queries set the latency tail.  Mix per cycle of
40 queries: d = 2 (8), 3 (10), 4 (12), 5 (2), 6 (2), 7 (5), 8 (1); every
fourth query at N = 160, the rest at N = 40.  At d <= 4 the families
rotate through random V-matrices, companions of x^d - pi^k u, nilpotent,
pi-scaled and block-diagonal matrices; the d >= 5 scale sweep uses the
structured families, whose exponents are known exactly.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from common import (block_diagonal, companion, frac, matrix, nilpotent,
                    ring_json)

P = 5
N_MAX = 16
FAMILIES = ("random", "companion", "nilpotent", "scaled", "block")
SYMPY_MAX_D = 5


# The scale sweep: structured families with a fixed shape per slot, so the
# costly queries vary little between seeds.  The d = 7 slots are the 85th
# to 97th percentile of a cycle's latencies, so p90 falls among queries of
# one kind rather than in a gap between kinds.
SWEEP = [("companion", 5, 2), ("block", 5, (2, 3)), ("companion", 6, 1),
         ("block", 6, (3, 3)), ("nilpotent", 7, None), ("nilpotent", 7, None),
         ("nilpotent", 7, None), ("nilpotent", 7, None), ("companion", 7, 3),
         ("companion", 8, 5)]


def cycle(tiny: bool = False):
    sizes = [2, 3, 2, 3, 2] if tiny else [2] * 8 + [3] * 10 + [4] * 12
    slots = [(FAMILIES[i % len(FAMILIES)], d, None) for i, d in
             enumerate(sizes)] + ([] if tiny else SWEEP)
    return [(family, d, shape, 20 if tiny else (160 if i % 4 == 3 else 40))
            for i, (family, d, shape) in enumerate(slots)]


def _fractional_k(rng, d):
    return rng.choice([k for k in range(1, 2 * d) if k % d or d == 1])


def generate(rng, slot) -> dict:
    family, d, shape, precision = slot
    ring = ring_json("padic", P, precision)
    expected = None
    if family == "random":
        mat = matrix(rng, ring, d, d)
    elif family == "scaled":
        mat = [[x if x["v"] == "inf" else {"v": x["v"] + 1, "u": x["u"]}
                for x in row] for row in matrix(rng, ring, d, d)]
    elif family == "companion":
        k = shape or _fractional_k(rng, d)
        mat, expected = companion(rng, ring, d, k), Fraction(k, d)
    elif family == "nilpotent":
        mat, expected = nilpotent(rng, ring, d), float("inf")
    else:
        sizes, left = list(shape or ()), d - sum(shape or ())
        while left:
            sizes.append(rng.randint(1, min(4, left)))
            left -= sizes[-1]
        blocks = [(s, _fractional_k(rng, s)) for s in sizes]
        # the lcm of block sizes <= 4 is at most 12 <= N_MAX, so the
        # estimate reaches the exact exponent
        mat = block_diagonal([companion(rng, ring, s, k) for s, k in blocks])
        expected = min(Fraction(k, s) for s, k in blocks)
    return {"family": family, "d": d, "ring": ring, "matrix": mat,
            "expected_rho": None if expected is None else frac(expected)}


def parse(inputs, env):
    from daggerkit import serialize
    out = []
    for inp in inputs:
        ring = env.ring(inp["ring"])
        out.append({"input": inp, "ctx": env.matrix_context(ring, inp["d"]),
                    "A": serialize.matrix_from_json(ring, inp["matrix"])})
    return out


def run(q):
    from daggerkit import linalg, spectral
    A, ctx = q["A"], q["ctx"]
    S = spectral.lattice_from_elements(ctx, [A])
    report = spectral.rho1_estimate(S, ctx, N_MAX)
    slope = spectral.newton_polygon_rho(A)
    smith = linalg.snf(A)
    chain, stabilized = spectral.lgb_closure(S, ctx, 8)
    closed = spectral.pi_multiplicative(ctx, chain[-1]) \
        if stabilized is not None else None
    probes = spectral.semi_dagger_probe(S, ctx, 1, [1, 2, 3], l_max=8)
    return {"rho": report, "slope": slope, "snf": smith,
            "closure": {"gauges": [L.gauge_exponent() for L in chain],
                        "stabilized_at": stabilized, "final": chain[-1],
                        "pi_UU_in_U": closed},
            "probes": probes}


def check_snf(A, smith, full: bool):
    problems = []
    exps = smith.diagonal_exponents
    if exps != sorted(exps):
        problems.append(f"snf exponents {exps} not a divisibility chain")
    D = smith.D
    if any(not D[i, j].effectively_zero
           for i in range(D.rows) for j in range(D.cols) if i != j):
        problems.append("snf D is not diagonal")
    if full:
        if smith.U * A * smith.W != D:
            problems.append("U A W != D")
        if smith.U.det().valuation != 0 or smith.W.det().valuation != 0:
            problems.append("snf transform is not unimodular")
    return problems


def check_radius(report, slope, expected, precision, n_max):
    """Checks on rho_exponent that hold for any matrix over V."""
    inf = float("inf")
    rho = report.rho_exponent
    problems = []
    if rho != inf and report.rho1_exponent != min(Fraction(0), rho):
        problems.append("rho1_exponent != min(0, rho_exponent)")
    if expected is not None:
        exact = inf if expected == "inf" else Fraction(expected)
        # S^n may vanish at precision N before n_max when exact * n_max >= N
        if frac(rho) != expected and not (rho == inf
                                          and exact * n_max >= precision):
            problems.append(f"rho_exponent {frac(rho)} != {expected}")
        if slope is not None and frac(slope) != expected:
            problems.append(f"Newton slope {frac(slope)} != {expected}")
    elif slope is not None:
        # nu_n / n never exceeds the limit; an S^n that vanishes at
        # precision N forces slope * n_max >= N
        if rho == inf:
            if slope != inf and slope * n_max < precision:
                problems.append("power vanished below the Newton bound")
        elif slope != inf and rho > slope:
            problems.append(f"rho_exponent {frac(rho)} above Newton slope "
                            f"{frac(slope)}")
    return problems


def _int_lift(x, modulus):
    if x.effectively_zero:
        return 0
    return (P ** x.v * x.u) % modulus


def _charpoly_agrees(ints, ours, modulus):
    import sympy
    ref = sympy.Matrix(ints).charpoly().all_coeffs()[::-1]
    if [int(c) % modulus for c in ref] != ours:
        return ["characteristic polynomial disagrees with sympy"]
    return []


def late_check(q, res, full: bool):
    """The sympy oracle for characteristic_polynomial mod p^N, as a closure
    over plain integers; it runs after the peak-memory reading, so sympy
    stays out of that figure."""
    from daggerkit import spectral
    A = q["A"]
    if not (full or A.rows <= SYMPY_MAX_D):
        return None
    modulus = P ** A.ring.precision
    ints = [[_int_lift(A[i, j], modulus) for j in range(A.cols)]
            for i in range(A.rows)]
    ours = [_int_lift(c, modulus) for c in spectral.characteristic_polynomial(A)]
    return functools.partial(_charpoly_agrees, ints, ours, modulus)


def check(q, res, full: bool):
    inp, A = q["input"], q["A"]
    problems = check_radius(res["rho"], res["slope"], inp["expected_rho"],
                            A.ring.precision, N_MAX)
    problems += check_snf(A, res["snf"], True)
    verdicts = {r.verdict for r in res["probes"].values()}
    if not verdicts <= {"bounded", "diverging", "inconclusive"}:
        problems.append(f"unknown probe verdicts {verdicts}")
    return problems

