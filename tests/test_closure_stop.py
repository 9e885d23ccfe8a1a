"""Differential test of the closure's stop at its first stable step.

``lgb_closure`` returns once L_i = L_(i+1), with L_i repeated up to i_max.
The reference here is the loop it replaced: it goes on building
pi^i S^(i+1) and summing it into the chain up to i_max.  In exact
arithmetic every such sum gives L_i back (the argument is in
``lgb_closure``'s docstring), so the two must agree: the same
``stabilized_at``, the same gauges, and a last lattice raw-identical to
the reference's (pi_exponent and every (v, u, lossy) triple).

Only a truncation artefact may tell them apart.  One kind is a post-stable
reference sum that is not the first lattice (``Lattice.sum`` hands that
back when nothing is added): the Hermite walk of ``membership`` can miss a
vector of L + pi^N V^n when a pivot is pi^e with e > 0 (ROADMAP item 3).
Each one found is pinned in ARTEFACTS.  There the gauges and
``stabilized_at`` still agree, and over Z_p an exact check (a Smith form
over ZZ) finds every generator of the skipped term inside the stop's L_i
modulo pi^N: the stop gives the exact answer and the full loop did not.
The other kind is a post-stable term whose gauge falls below -N, where the
reference raised ``PrecisionExhausted`` ("closure term has gauge below
-N") and the stop returns; none is found.  The CLI ``closure`` is run both
ways too: no exit code changes, so no argv that exited 3 past its stable
step now exits 0.

Inputs: padic p in {2, 5} and eqchar q in {4, 9} at N in {3, 12, 40, 160};
matrix contexts d = 2..4 with the families of the padic-spectral bench
(random V-matrices, companions of x^d - pi^k u, strictly upper nilpotent,
pi-scaled random, block-diagonal companions) plus random matrices over K
(valuations from -1); a series context over N^1 and N^2 twisted by a
``TableCocycle`` (not ``associative``); and the probe witness
span([[1, 1, 1], [pi^-1, 0, 0], [0, pi, 0]]).
"""

import json
import random

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_decomp

from daggerkit import cli, spectral
from daggerkit.linalg import MatrixV
from daggerkit.monoid import MonoidDescriptor, TableCocycle
from daggerkit.ring import INFINITY, PrecisionExhausted, RingDescriptor
from daggerkit.serialize import scalar_to_json
from daggerkit.series import DaggerSeries
from daggerkit.spectral import (MatrixAlgebraContext, SeriesAlgebraContext,
                                lattice_from_elements, lgb_closure)

RINGS = [("padic", 2), ("padic", 5), ("eqchar", 4), ("eqchar", 9)]
PRECISIONS = (3, 12, 40, 160)
CASES = [(b, base, n) for b, base in RINGS for n in PRECISIONS]
FAMILIES = ("random", "companion", "nilpotent", "scaled", "block", "K")
I_MAX = 8

# (backend, base, N) -> the (input, step i) of each post-stable reference
# sum that was not the first lattice: a walk that missed a term of L_i
# (ROADMAP item 3); the Z_p ones are checked exactly
ARTEFACTS = {
    ("padic", 2, 3): [("witness", 4)],
    ("padic", 2, 12): [("witness", 7), ((4, "random"), 7)],
    ("padic", 5, 3): [("witness", 3)],
    ("padic", 5, 12): [(("twisted", 2, 2), 7)],
    ("eqchar", 4, 3): [("witness", 4), ((2, "K"), 4)],
    ("eqchar", 4, 12): [((3, "scaled"), 4)],
    ("eqchar", 9, 3): [("witness", 3)],
    ("eqchar", 9, 12): [((2, "scaled"), 5), ((4, "random"), 8)],
}
# the CLI argv whose printed final lattice the full loop changed: the
# witness over Z_5 at N = 3, as in ARTEFACTS
CLI_ARTEFACTS = [(3, "witness")]


# -- the reference --

def ref_closure(S, ctx, i_max):
    """The loop as it was, on to i_max past the stable step.  Returns
    (chain, stabilized_at, artefacts): (i, term) for each post-stable sum
    that was not the first lattice, and (i, None) for a post-stable term
    whose gauge fell below -N (the chain then ends at the last link)."""
    chain, stab, artefacts = [S], None, []
    for i in range(1, i_max + 1):
        term = spectral._lattice_power(S, ctx, i + 1).scale_by_pi(i)
        if term.gauge_exponent() < -ctx.ring.precision:
            if stab is None:
                raise PrecisionExhausted("closure term has gauge below -N")
            artefacts.append((i, None))
            break
        nxt = chain[-1].sum(term)
        chain.append(nxt)
        if stab is None and nxt == chain[-2]:
            stab = i - 1
        elif stab is not None and nxt is not chain[-2]:
            artefacts.append((i, term))
    return chain, stab, artefacts


def _p_part(d, p):
    out = 1
    while d % p == 0:
        d //= p
        out *= p
    return out


def exactly_inside(L, vec):
    """Over Z_p: vec in L + pi^M V^n for both windows M = N and
    M = N - pi_exponent, decided on integer lifts in L's frame by the Smith
    form U [H | p^M I] V = D: vec lies in it when the p-part of each d_i
    divides (U vec)_i."""
    p, n, e = L.ring.base, L.ambient_rank, L.pi_exponent

    def lift(x, shift):
        assert x[0] == INFINITY or x[0] >= shift
        return 0 if x[0] == INFINITY else p ** (x[0] - shift) * int(x[1])

    cols = [[lift(x, 0) for x in c] for c in L.cols]
    target = Matrix([lift(x, e) for x in vec])
    for m in {L.ring.precision, L.ring.precision - e}:
        A = Matrix(n, len(cols) + n, lambda i, j: cols[j][i]
                   if j < len(cols) else p ** m * (i == j - len(cols)))
        D, U, _ = smith_normal_decomp(A, domain=ZZ)
        image = U * target
        if any(image[i] % _p_part(int(D[i, i]), p) for i in range(n)):
            return False
    return True


def raw(L):
    return L.pi_exponent, L.cols


def outcome(fn, build):
    """fn(S) on a fresh S from build(), or the exception's text."""
    try:
        return fn(build())
    except PrecisionExhausted as exc:
        return str(exc)


def compare(ctx, build, label):
    """Run both on fresh lattices; returns the (label, i) of each
    artefact the reference met, after checking what must agree."""
    ref = outcome(lambda S: ref_closure(S, ctx, I_MAX), build)
    got = outcome(lambda S: lgb_closure(S, ctx, I_MAX), build)
    if isinstance(ref, str) or isinstance(got, str):
        assert ref == got
        return []
    (ref_chain, ref_stab, artefacts), (chain, stab) = ref, got
    assert len(chain) == I_MAX + 1 and stab == ref_stab
    assert all(term is not None for _, term in artefacts)
    assert [L.gauge_exponent() for L in chain] == \
        [L.gauge_exponent() for L in ref_chain]
    if stab is not None:
        assert chain[stab] == chain[-1]
        assert all(L is chain[-1] for L in chain[stab + 1:])
    if not artefacts:
        assert raw(chain[-1]) == raw(ref_chain[-1])
    for i, term in artefacts:
        gens = term.generator_triples()
        assert not all(map(ref_chain[i - 1].membership, gens))
        if ctx.ring.backend == "padic":
            assert all(exactly_inside(chain[-1], g) for g in gens)
    return [(label, i) for i, _ in artefacts]


# -- the inputs --

class Entries:
    def __init__(self, ring, seed):
        self.ring, self.rng = ring, random.Random(seed)

    def unit(self, v):
        enc = self.rng.randrange(1, self.ring.base ** 3)
        if enc % self.ring.base == 0:
            enc += 1
        return self.ring.from_valuation_unit(v, enc)

    def random(self, d, vmin=0, vmax=1, zeros=0.2):
        zero = self.ring.zero()
        return [[zero if self.rng.random() < zeros else
                 self.unit(self.rng.randint(vmin, vmax)) for _ in range(d)]
                for _ in range(d)]

    def companion(self, d, k):
        """The companion matrix of x^d - pi^k u."""
        one, zero = self.ring.one(), self.ring.zero()
        out = [[one if j == i + 1 else zero for j in range(d)]
               for i in range(d)]
        out[d - 1][0] = self.unit(k)
        return out

    def matrix(self, family, d):
        rng, zero = self.rng, self.ring.zero()
        if family == "random":
            return self.random(d)
        if family == "K":
            return self.random(d, vmin=-1, zeros=0.4)
        if family == "scaled":
            return [[x * self.ring.pi() for x in row]
                    for row in self.random(d)]
        if family == "companion":
            return self.companion(d, rng.randint(1, 2 * d - 1))
        if family == "nilpotent":
            upper = self.random(d, vmax=2, zeros=0.3)
            return [[upper[i][j] if j > i else zero for j in range(d)]
                    for i in range(d)]
        out = [[zero] * d for _ in range(d)]
        at = 0
        while at < d:
            s = rng.randint(1, min(2, d - at))
            for i, row in enumerate(self.companion(s, rng.randint(1, 3))):
                out[at + i][at:at + s] = row
            at += s
        return out


def witness(ring):
    one, zero = ring.one(), ring.zero()
    return [[one, one, one], [ring.pi(-1), zero, zero],
            [zero, ring.pi(), zero]]


def matrix_lattice(ring, d, matrices):
    ctx = MatrixAlgebraContext(ring, d)
    return ctx, lambda: lattice_from_elements(
        ctx, [MatrixV(ring, m) for m in matrices])


def twisted_lattice(ring, gen, rank, cap):
    """A few random series over N^rank at D = cap in a context twisted by
    a ``TableCocycle`` on pairs of short monomials."""
    monoid = MonoidDescriptor("N", rank)
    basis = monoid.elements_up_to_length(cap)
    short = [s for s in basis if sum(s.data) <= 1]
    cocycle = TableCocycle(ring, {(s, t): gen.unit(0)
                                  for s in short for t in short})
    ctx = SeriesAlgebraContext(ring, monoid, cap, cocycle)
    assert not ctx.associative
    elements = [DaggerSeries(ring, monoid, {
        s: gen.unit(gen.rng.randint(-1, 2)) for s in basis
        if gen.rng.random() < 0.5}, cap)
        for _ in range(gen.rng.randint(1, 2))]
    return ctx, lambda: lattice_from_elements(ctx, elements)


# -- the tests --

@pytest.mark.parametrize("backend,base,n", CASES)
def test_the_stop_matches_the_full_loop(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    gen = Entries(ring, f"closure-{backend}-{base}-{n}")
    found = compare(*matrix_lattice(ring, 3, [witness(ring)]), "witness")
    for d in (2, 3, 4):
        for family in FAMILIES:
            matrices = [gen.matrix(family, d)
                        for _ in range(1 + (family == "random" and d < 4))]
            found += compare(*matrix_lattice(ring, d, matrices),
                             (d, family))
    for rank, cap in ((1, 3), (1, 4), (2, 2)):
        found += compare(*twisted_lattice(ring, gen, rank, cap),
                         ("twisted", rank, cap))
    assert found == ARTEFACTS.get((backend, base, n), [])


def closure_argv(d, matrices, n):
    lattice = json.dumps([[[scalar_to_json(x) for x in row] for row in m]
                          for m in matrices])
    return ["closure", "--p", "5", "--precision", str(n), "--d", str(d),
            "--lattice", lattice]


def test_the_cli_closure_exits_as_the_full_loop(capsys, monkeypatch):
    """Each argv exits with the same code under the stop and under the
    full loop, and prints the same JSON but for the final lattice of
    CLI_ARTEFACTS."""
    runs = []
    for n in PRECISIONS:
        ring = RingDescriptor("padic", 5, n)
        gen = Entries(ring, f"cli-closure-{n}")
        runs += [((n, "witness"), closure_argv(3, [witness(ring)], n)),
                 ((n, "pi^-2"), closure_argv(1, [[[ring.pi(-2)]]], n))]
        runs += [((n, d, family), closure_argv(d, [gen.matrix(family, d)], n))
                 for d in (2, 3) for family in FAMILIES]
    codes, changed = [], []
    for label, argv in runs:
        code = cli.dispatch(argv)
        out = json.loads(capsys.readouterr().out)
        with monkeypatch.context() as m:
            m.setattr(spectral, "lgb_closure",
                      lambda S, ctx, i_max: ref_closure(S, ctx, i_max)[:2])
            assert cli.dispatch(argv) == code, label
            ref = json.loads(capsys.readouterr().out)
        if out != ref:
            changed.append(label)
            assert {k: v for k, v in out.items() if k != "final_lattice"} \
                == {k: v for k, v in ref.items() if k != "final_lattice"}
        codes.append(code)
    assert changed == CLI_ARTEFACTS
    assert set(codes) == {0, 1, 3}
