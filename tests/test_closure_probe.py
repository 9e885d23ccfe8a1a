"""The closure and the (m, j) = (1, 1) probe build one chain, up to pi.

``lgb_closure`` builds L_i = sum_(a<=i) pi^a S^(a+1) and
``semi_dagger_probe(S, ctx, 1, [1])`` the partial sums
P_l = sum_(k<=l) pi^k S^k, so P_l = pi * L_(l-1) exactly: each term of P_l
is pi times a term of L_(l-1).  This is the premise on which one chain
could serve both (ROADMAP items 17 and 18).  Here P_l is built from its
definition, tied to the probe by the gauges and the stop the probe
reports, and compared with ``chain[l - 1].scale_by_pi(1)`` for l <= L_MAX.

At N = 40 the identity holds link by link on the bench's matrix families.
At small N it fails at truncation, and each input where it fails is listed
in EXCEPTIONS with the first link l that differs.  Once the two chains part
they stay apart.  A flagged exception (either lattice ``lossy``) has lost
digits.  An unflagged one must be a frame exception: the two lattices have
the same generators modulo pi^N in K^r (``RingDescriptor.same`` on
``generator_triples``), but a ``Lattice`` keeps pi^e * H to pi^(N + e), so
digits between pi^N and pi^(N + e) still tell them apart (the CHANGES.md
``FOUND:`` on frames; ROADMAP item 13).  WITNESS is the smallest one: over
Z_5 at N = 3, P_3 = P_2 while L_2 != L_1, and in frame e = 1 the second
column ends in unit 72 on one side and 52 on the other, the same residue
modulo pi^3.  So reading the probe off the closure chain would change its
answers until item 13 lands.

Inputs: the families of ``tests/test_closure_theorem.py`` (random,
companion, nilpotent, pi-scaled), d = 2, 3 (and 4 at N = 40), three seeds,
over Z_5 and F_4[[t]] at N = 40 with the three bench witnesses there, and
over Z_2, Z_5 and F_4[[t]] at N = 3 and 6 with WITNESS.
"""

import random
from itertools import chain as chained

from daggerkit.ring import RingDescriptor
from daggerkit.serialize import matrix_from_json
from daggerkit.spectral import (MatrixAlgebraContext, _lattice_power,
                                lattice_from_elements, lgb_closure,
                                semi_dagger_probe)
from test_closure_theorem import FAMILIES, WITNESSES, matrix

L_MAX = 8
SEEDS = range(3)
WITNESS = ("padic", 5, 3, [["pi", "pi^2"], ["pi", "2"]])

# (backend, base, N, family, d, seed) or "witness": (first link that
# differs, flagged)
EXCEPTIONS = {
    ("padic", 2, 3, "random", 3, 1): (3, True),
    ("padic", 2, 6, "random", 2, 0): (5, True),
    ("padic", 2, 6, "random", 2, 2): (4, True),
    ("padic", 2, 6, "random", 3, 1): (4, True),
    ("padic", 2, 6, "scaled", 3, 0): (3, True),
    ("padic", 2, 6, "scaled", 3, 2): (3, True),
    ("padic", 5, 3, "random", 3, 2): (3, True),
    ("padic", 5, 3, "nilpotent", 3, 0): (2, False),
    ("padic", 5, 6, "random", 2, 0): (5, True),
    ("padic", 5, 6, "random", 3, 0): (5, True),
    ("padic", 5, 6, "scaled", 3, 0): (3, True),
    ("padic", 5, 6, "scaled", 3, 1): (3, True),
    ("eqchar", 4, 3, "random", 2, 0): (2, True),
    ("eqchar", 4, 3, "random", 3, 1): (3, True),
    ("eqchar", 4, 6, "random", 3, 1): (5, True),
    ("eqchar", 4, 6, "scaled", 3, 0): (3, True),
    ("eqchar", 4, 6, "scaled", 3, 1): (3, True),
    ("eqchar", 4, 6, "scaled", 3, 2): (3, True),
    "witness": (3, False),
}


def cases(rings, ds):
    for backend, base, n in rings:
        ring = RingDescriptor(backend, base, n)
        for family in FAMILIES:
            for d in ds:
                for seed in SEEDS:
                    rng = random.Random(f"{backend}{base}{n}{family}{d}{seed}")
                    yield ((backend, base, n, family, d, seed), ring,
                           matrix(ring, family, d, rng))


def compare(ring, rows):
    """[(l, P_l == pi L_(l-1), either flagged, same generators modulo
    pi^N)] for l <= L_MAX, after checking that P is the probe's chain."""
    ctx = MatrixAlgebraContext(ring, len(rows))
    S = lattice_from_elements(ctx, [ctx.from_vector(
        [x for row in rows for x in row])])
    closure, _ = lgb_closure(S, ctx, L_MAX - 1)
    sums, gauges, links = [], [], []
    for l in range(1, L_MAX + 1):
        term = _lattice_power(S, ctx, l).scale_by_pi(l)
        gauges.append(term.gauge_exponent())
        sums.append(sums[-1].sum(term) if sums else term)
        P, C = sums[-1], closure[l - 1].scale_by_pi(1)
        links.append((l, P == C, P.lossy or C.lossy, ring.same(
            chained.from_iterable(P.generator_triples()),
            chained.from_iterable(C.generator_triples()))))
    report = semi_dagger_probe(S, ctx, 1, [1], l_max=L_MAX)[1]
    assert report.gauges == gauges[:len(report.gauges)]
    repeats = [l for l in range(2, L_MAX + 1) if sums[l - 1] == sums[l - 2]]
    if report.verdict == "bounded":
        assert report.stabilized_at == repeats[0] - 1
    else:
        assert not repeats or repeats[0] > len(report.gauges)
    return links


def test_the_probe_chain_is_pi_times_the_closure_at_n40():
    ring = RingDescriptor("padic", 5, 40)
    inputs = [*cases([("padic", 5, 40), ("eqchar", 4, 40)], (2, 3, 4)),
              *((label, ring, matrix_from_json(ring, rows).entries)
                for label, rows in WITNESSES.items())]
    for label, ring, rows in inputs:
        differ = [l for l, equal, _, _ in compare(ring, rows) if not equal]
        assert not differ, (label, differ)


def test_the_identity_fails_at_truncation_only_where_listed():
    backend, base, n, rows = WITNESS
    ring = RingDescriptor(backend, base, n)
    inputs = [*cases([(b, q, n) for b, q in (("padic", 2), ("padic", 5),
                                             ("eqchar", 4)) for n in (3, 6)],
                     (2, 3)),
              ("witness", ring, matrix_from_json(ring, rows).entries)]
    found, stray = {}, []
    for label, ring, rows in inputs:
        links = compare(ring, rows)
        differ = [link for link in links if not link[1]]
        if not differ:
            continue
        l, _, flagged, same = differ[0]
        found[label] = (l, flagged)
        # once apart, the chains stay apart
        assert [link[0] for link in differ] == list(range(l, L_MAX + 1))
        if not flagged and not same:
            stray.append(label)
    assert not stray, stray
    assert found == EXCEPTIONS


def test_the_witness_parts_in_frame_digits_only():
    backend, base, n, rows = WITNESS
    ring = RingDescriptor(backend, base, n)
    ctx = MatrixAlgebraContext(ring, 2)
    S = lattice_from_elements(ctx, [matrix_from_json(ring, rows)])
    report = semi_dagger_probe(S, ctx, 1, [1])[1]
    assert (report.verdict, report.gauges, report.stabilized_at) == \
        ("bounded", [1, 2, float("inf")], 2)
    closure, stabilized = lgb_closure(S, ctx, 8)
    L1, L2 = (closure[i].scale_by_pi(1) for i in (1, 2))
    assert L1 != L2 and not (L1.lossy or L2.lossy)
    assert (L1.pi_exponent, L2.pi_exponent) == (1, 1)
    assert (L1.cols[1][3][:2], L2.cols[1][3][:2]) == ((1, 72), (1, 52))
    assert ring.same(chained.from_iterable(L1.generator_triples()),
                     chained.from_iterable(L2.generator_triples()))
