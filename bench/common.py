"""Shared pieces of the benchmark: seeded JSON input generation, the
canonical form of an answer's mathematical content, and its digest.

Generated inputs use the package's own JSON schemas (see
``daggerkit.serialize``), so the program receives nothing but these inputs.
The canonical form keeps valuations, unit digits inside the precision
window, verdicts, radii, Hermite forms, coefficients and exit codes, and
leaves out precision flags (``lossy``, ``valid_at_precision``), whose
meaning is due to change.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import time
from fractions import Fraction

# Host-speed probes (see run.py).  A python slice is a fixed piece of
# pure-Python big-integer work that does not touch the package; a spawn
# slice starts and reaps a trivial process the way the cli queries and the
# set-up probes start theirs.  Each *_REF_S is the slice time of the
# reference host speed the benchmark reports at.
PYTHON_REF_S = 5e-4
SPAWN_REF_S = 1e-3
_PYTHON_MOD = 5 ** 160
_TRUE = shutil.which("true") or "/bin/true"


def python_slice() -> float:
    t0 = time.perf_counter()
    x, acc, box = 987654321, 0, {}
    for i in range(400):
        x = (x * x + i) % _PYTHON_MOD
        box[i & 31] = x >> 7
        acc += x & 1023
    return time.perf_counter() - t0


def spawn_slice() -> float:
    t0 = time.perf_counter()
    subprocess.run([_TRUE], check=True)
    return time.perf_counter() - t0


class Draw(random.Random):
    """The random streams of one cycle of inputs.

    The object itself is the shape stream, which draws what sets a query's
    cost: sizes, valuations, zero patterns, supports, exponents and action
    matrices.  It is the same for every cycle and seed, so every cycle of
    every run does the same work, however many cycles a run completes.
    ``value`` draws every unit residue and the order of the cycle's
    queries from (seed, cycle), so each cycle and seed has its own inputs
    and answers.
    """

    def __init__(self, seed: int, cycle: int):
        super().__init__("shape")
        self.value = random.Random(f"{seed}:{cycle}")


def ring_json(backend: str, base: int, precision: int) -> dict:
    key = "p" if backend == "padic" else "q"
    return {"backend": backend, key: base, "precision": precision}


def base_of(ring: dict) -> int:
    return ring.get("p", ring.get("q"))


def unit_code(rng, ring: dict) -> int:
    """Integer code of a random unit residue.

    Z_p units are full-width residues below p^N.  F_q[[t]] units are
    polynomials in t with four nonzero coefficients, the kind of entry a
    user writes; elimination still fills their inverses up to t^N.  Fixed
    term counts keep the cost of one query from swinging with the seed.
    """
    b, rng = base_of(ring), rng.value
    if ring["backend"] == "padic":
        return rng.randrange(1, b) + b * rng.randrange(b ** (ring["precision"] - 1))
    code = 0
    for _ in range(4):
        code = code * b + rng.randrange(1, b)
    return code


def scalar(rng, ring: dict, v: int) -> dict:
    return {"v": v, "u": str(unit_code(rng, ring))}


ZERO = {"v": "inf", "u": "0"}


def matrix(rng, ring: dict, rows: int, cols: int, vmax: int = 1,
           zeros: float = 0.2) -> list:
    """Entries pi^v u with v <= vmax, and round(zeros * rows * cols) zero
    entries at random places (never all of them)."""
    cells = rows * cols
    blank = set(rng.sample(range(cells), min(round(zeros * cells), cells - 1)))
    return [[ZERO if i * cols + j in blank else
             scalar(rng, ring, rng.randint(0, vmax)) for j in range(cols)]
            for i in range(rows)]


def companion(rng, ring: dict, d: int, k: int) -> list:
    """Companion matrix of x^d - pi^k u: its d-th power is pi^k u I."""
    out = [[ZERO] * d for _ in range(d)]
    for i in range(d - 1):
        out[i][i + 1] = {"v": 0, "u": "1"}
    out[d - 1][0] = scalar(rng, ring, k)
    return out


def block_diagonal(blocks: list) -> list:
    d = sum(len(b) for b in blocks)
    out = [[ZERO] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def nilpotent(rng, ring: dict, d: int) -> list:
    upper = matrix(rng, ring, d, d, vmax=2, zeros=0.3)
    return [[upper[i][j] if j > i else ZERO for j in range(d)]
            for i in range(d)]


def frac(x) -> str:
    if x == float("inf"):
        return "inf"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def canon(x):
    """Canonical, JSON-ready mathematical content of a value."""
    from daggerkit import (CrossedElem, DaggerSeries, Lattice, MatrixV,
                           ScalarElem)
    from daggerkit.crossed import BoundednessReport
    from daggerkit.linalg import SNFResult
    from daggerkit.spectral import ProbeReport, RadiusReport

    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, (float, Fraction)):
        return frac(x)
    if isinstance(x, ScalarElem):
        if x.effectively_zero:
            return "0"
        return [x.v, str(x.ring.ops.encode(x._comparable_unit()))]
    if isinstance(x, MatrixV):
        return [[canon(a) for a in row] for row in x.entries]
    if isinstance(x, Lattice):
        if x.is_zero:
            return {"lattice": "zero"}
        return {"e": x.pi_exponent, "H": canon(x.gens)}
    if isinstance(x, DaggerSeries):
        return {"terms": sorted([[canon(list(s.data) if not isinstance(s.data, str)
                                        else s.data), canon(c)]
                                 for s, c in x.terms.items()], key=str),
                "truncated": x.truncated}
    if isinstance(x, CrossedElem):
        return {"terms": [[n, canon(s)] for n, s in sorted(x.terms.items())],
                "truncated": x.truncated}
    if isinstance(x, SNFResult):
        return {"U": canon(x.U), "D": canon(x.D), "W": canon(x.W),
                "exponents": x.diagonal_exponents}
    if isinstance(x, RadiusReport):
        return {"estimates": [[n, frac(f)] for n, f in x.exponent_estimates],
                "rho": frac(x.rho_exponent), "verdict": x.verdict}
    if isinstance(x, ProbeReport):
        return {"verdict": x.verdict, "gauges": [frac(g) for g in x.gauges],
                "stabilized_at": x.stabilized_at}
    if isinstance(x, BoundednessReport):
        return {"verdict": x.verdict, "steps": x.steps,
                "gauges": [frac(g) for g in x.gauges],
                "lattice": canon(x.lattice)}
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


# Digits the package may lose to pivot division without saying how many:
# it keeps one coarse ``lossy`` flag, not a precision per element.
LOOSE_DIGITS = 8


def contains(L, vectors, loose: bool) -> bool:
    """Every vector lies in L: back-substitution against L's Hermite form,
    ignoring residual digits the package may have lost when loose."""
    floor = L.ring.precision - LOOSE_DIGITS if loose else L.ring.precision
    cols = [L.gens.column(j) for j in range(L.gens.cols)]
    pivots = [next(i for i, g in enumerate(c) if not g.effectively_zero)
              for c in cols]
    for vec in vectors:
        residual = [x.scaled_by_pi(-L.pi_exponent) for x in vec]
        for col, i in zip(cols, pivots):
            x = residual[i]
            if x.is_zero or x.valuation >= floor:
                continue
            if x.valuation < col[i].valuation:
                return False
            coeff = x / col[i]
            residual = [r - coeff * g for r, g in zip(residual, col)]
        if any(not r.is_zero and r.valuation < floor for r in residual):
            return False
    return True


def digest(items) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
