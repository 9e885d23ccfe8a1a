"""The closure theorem as a check on ``lgb_closure`` and
``pi_multiplicative``.

In an associative context, once the chain L_i = sum_{j<=i} pi^j S^(j+1) is
stable, U = L_i is spanned by the pi^a S^(a+1) with a <= i, and
pi * pi^a S^(a+1) * pi^b S^(b+1) lies in pi^(a+b+1) S^(a+b+2), a term of
L_(a+b+1), which lies in U.  So ``pi_multiplicative(ctx, U)`` is true for
every stable closure.  A false answer is allowed only where U is flagged
(``Lattice.lossy``: a digit was lost to truncation), and each such
exception is listed in FLAGGED; any other false answer fails.

Inputs: random V-matrices, companions of x^d - pi^k u, strictly upper
nilpotent and pi-scaled random matrices, d = 2 and 3, over Z_5 and
F_4[[t]] at N = 6 and 12; and three matrices of the padic-spectral bench
over Z_5 at N = 40 whose closure reads false.
"""

import random

from daggerkit.ring import RingDescriptor
from daggerkit.serialize import matrix_from_json
from daggerkit.spectral import (MatrixAlgebraContext, lattice_from_elements,
                                lgb_closure, pi_multiplicative)

FAMILIES = ("random", "companion", "nilpotent", "scaled")
RINGS = [(backend, base, n) for backend, base in (("padic", 5), ("eqchar", 4))
         for n in (6, 12)]
SEEDS = range(3)
I_MAX = 8


def _s(v, u):
    return {"v": v, "u": u}


Z = _s("inf", "0")
# bench/run.inputs(wl_padic, seed, cycle)[i], keyed (seed, cycle, i)
WITNESSES = {
    (0, 2, 6): [  # random, d = 3, stable at 2
        [_s(1, "7737228086516540435796502477"), Z,
         _s(1, "7742559433116358499832684873")],
        [_s(0, "2828068845304773422125422353"),
         _s(0, "1587039088605616353195390528"),
         _s(0, "4482399319805103999239239844")],
        [_s(0, "7321259213689614658635225669"), Z,
         _s(1, "331274722241535866687074903")]],
    (7717, 0, 29): [  # scaled, d = 4, stable at 3
        [_s(2, "8709183708654931159075866017"),
         _s(2, "7476815684072879951496629957"),
         _s(1, "5825871897755161981149339667"),
         _s(2, "6635969662213950294928149942")],
        [_s(1, "453381353249610511672902616"),
         _s(1, "7107982364202907830042439786"),
         _s(2, "3174837435043681771600915144"),
         _s(1, "7851278101845096250261335808")],
        [_s(1, "8800335708958511564077669296"),
         _s(2, "2779502782990969260173960404"),
         _s(2, "4157177098694983177580391208"), Z],
        [Z, Z, _s(1, "4498274076171141270641353463"),
         _s(1, "8611847256346916110102994572")]],
    (7717, 3, 36): [  # scaled, d = 3, stable at 2
        [_s(2, "3515864366038529297238216556"),
         _s(1, "2360936943732118393373142851"),
         _s(2, "4153503033671715012239065879")],
        [Z, _s(1, "3728882746883612823212837517"),
         _s(2, "3517011881867432041036608308")],
        [_s(1, "7736426910917906302964735979"),
         _s(1, "2279349026223793423327126538"), Z]],
}

# the stable closures whose flagged U reads pi * U * U outside U
FLAGGED = [("padic", 5, 6, "random", 2, 0), ("padic", 5, 6, "random", 3, 1),
           ("padic", 5, 6, "scaled", 3, 0), ("padic", 5, 12, "scaled", 3, 2),
           ("eqchar", 4, 6, "random", 3, 1), ("eqchar", 4, 6, "random", 3, 2),
           ("eqchar", 4, 6, "scaled", 3, 1),
           (0, 2, 6), (7717, 0, 29), (7717, 3, 36)]


def matrix(ring, family, d, rng):
    def unit(v):
        enc = rng.randrange(1, ring.base ** 3)
        return ring.from_valuation_unit(v, enc + (enc % ring.base == 0))

    zero = ring.zero()
    if family == "companion":
        rows = [[ring.one() if j == i + 1 else zero for j in range(d)]
                for i in range(d)]
        rows[d - 1][0] = unit(rng.randrange(1, 2 * d))
        return rows
    rows = [[zero if rng.random() < 0.2 else unit(rng.randint(0, 1))
             for _ in range(d)] for _ in range(d)]
    if family == "nilpotent":
        return [[x if j > i else zero for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    if family == "scaled":
        return [[x * ring.pi() for x in row] for row in rows]
    return rows


def cases():
    for backend, base, n in RINGS:
        ring = RingDescriptor(backend, base, n)
        for family in FAMILIES:
            for d in (2, 3):
                for seed in SEEDS:
                    rng = random.Random(f"{backend}{base}{n}{family}{d}{seed}")
                    yield ((backend, base, n, family, d, seed), ring,
                           matrix(ring, family, d, rng))
    ring = RingDescriptor("padic", 5, 40)
    for label, rows in WITNESSES.items():
        yield label, ring, matrix_from_json(ring, rows).entries


def test_stable_closures_are_pi_multiplicative():
    stable, flagged, unflagged = 0, [], []
    for label, ring, rows in cases():
        ctx = MatrixAlgebraContext(ring, len(rows))
        S = lattice_from_elements(ctx, [ctx.from_vector(
            [x for row in rows for x in row])])
        chain, stabilized = lgb_closure(S, ctx, I_MAX)
        if stabilized is None:
            continue
        stable += 1
        if not pi_multiplicative(ctx, chain[-1]):
            (flagged if chain[-1].lossy else unflagged).append(label)
    assert not unflagged, unflagged
    assert flagged == FLAGGED
    assert stable == 99  # of 99 inputs
