"""Differential tests of the probe's powers and of Berkowitz on triples.

``semi_dagger_probe`` reads (pi^m S^j)^l as pi^(ml) S^(jl), a link of S's
memoised chain, where the algebra context's product is ``associative``
(matrices, and series over N^k with no cocycle), and reads a power whose
gauge reaches N as +inf, as the reduced product of the left-to-right loop
does.  ``characteristic_polynomial`` runs on raw (v, u, lossy) triples with
the elimination kernel's dot.  The left-to-right probe loop and the
ScalarElem dot they replaced are kept here as the references.

Verdicts, gauges, ``stabilized_at`` and the last partial sum must agree
under ``==``, with one exception.  Nearly every Hermite form is flagged
(an entry that an elimination cancels is left as a flagged zero), a sum
whose leading digits cancel keeps zeros in their place, and the probe stops
when a sum equals the one before, digits and all.  The two orders
zero-fill different digits, so on flagged sums they can stop a step apart,
and either one can be the step that exact arithmetic gives
(``test_flagged_sums_can_stop_a_step_apart``).  There both must read
"bounded", agree on the gauges they share, and stop at partial sums that
agree on all but the last LOOSE digits of each entry.  A Z^k context must
keep the left-to-right product (``test_z_contexts_multiply_left_to_right``).

Every coefficient of the characteristic polynomial must agree under
``==``, with the same valuation and unit.  The kernel's dot skips a pair
with a zero factor, so a flagged zero factor no longer flags the sum.

Inputs: random S of rank 1-3 in d x d matrices (d = 2, 3) and in truncated
series over N^1, N^2, Z^1 and Z^2, over Z_2, Z_3, Z_5, F_4[[t]], F_5[[t]]
and F_9[[t]] at N = 12 (where gauges reach N) and N = 40, with entry
valuations -1 to 2, flagged and zero entries, and m in {1, 2}; the probe
runs on a fresh S and on one whose chain rho1_estimate has begun.
"""

import operator
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from daggerkit import spectral
from daggerkit.linalg import Lattice, MatrixV
from daggerkit.monoid import BicharacterCocycle, MonoidDescriptor
from daggerkit.ring import INFINITY, RingDescriptor, ScalarElem
from daggerkit.series import DaggerSeries
from daggerkit.spectral import (MatrixAlgebraContext, SeriesAlgebraContext,
                                characteristic_polynomial,
                                lattice_from_elements, lattice_product,
                                rho1_estimate, semi_dagger_probe)

RINGS = [("padic", 5), ("padic", 3), ("padic", 2), ("eqchar", 5),
         ("eqchar", 9), ("eqchar", 4)]
PRECISIONS = (12, 40)
# digits a flagged Hermite entry may have lost, as bench/common.py allows
LOOSE = 8
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])
# monoid kind, rank and degree cap of the series contexts
SERIES = [("N", 1, 4), ("N", 2, 2), ("Z", 1, 3), ("Z", 2, 1)]


# -- the references --

def ref_probe(S, ctx, m, j_list, l_max=8):
    """The probe as it was: (pi^m S^j)^l by lattice_product from the left.
    Returns {j: (verdict, gauges, stabilized_at, last partial sum)}."""
    reports = {}
    decrease_window = -(-l_max // 2)
    for j in j_list:
        base = spectral._lattice_power(S, ctx, j).scale_by_pi(m)
        power = base
        chain = base
        gauges = [power.gauge_exponent()]
        verdict, stab = "inconclusive", None
        decreasing = 0
        for l in range(2, l_max + 1):
            power = lattice_product(ctx, power, base)
            gauges.append(power.gauge_exponent())
            if gauges[-1] < gauges[-2]:
                decreasing += 1
            else:
                decreasing = 0
            nxt = chain.sum(power)
            if nxt == chain:
                verdict, stab = "bounded", l - 1
                break
            chain = nxt
            if decreasing >= decrease_window:
                verdict = "diverging"
                break
        else:
            if decreasing >= decrease_window:
                verdict = "diverging"
        reports[j] = (verdict, gauges, stab, chain)
    return reports


def _dot(ring, xs, ys):
    """sum x*y over the pairs; stops at the end of the shorter operand."""
    return sum(map(operator.mul, xs, ys), ring.zero())


def ref_charpoly(a):
    """Berkowitz as it was, on ScalarElem with ``_dot``."""
    ring = a.ring
    rows = [[a[i, j] for j in range(a.cols)] for i in range(a.rows)]
    poly = [ring.one()]
    for r, row in enumerate(rows):
        col = [above[r] for above in rows[:r]]
        t = [ring.one(), -row[r]]
        for k in range(r):
            if k:
                col = [_dot(ring, above, col) for above in rows[:r]]
            t.append(-_dot(ring, row, col))
        poly = [_dot(ring, poly[:k + 1], t[k::-1]) for k in range(r + 2)]
    return poly[::-1]


def probe(S, ctx, m, j_list, l_max=8):
    """semi_dagger_probe as {j: (verdict, gauges, stabilized_at, last
    partial sum)}, one j at a time.  The sum is read off the probe's one
    Lattice.sum call per step, chain.sum(power)."""
    out, real = {}, Lattice.sum
    for j in j_list:
        sums = []

        def recording(self, other):
            sums.append(real(self, other))
            return sums[-1]

        with mock.patch.object(Lattice, "sum", recording):
            r = semi_dagger_probe(S, ctx, m, [j], l_max)[j]
        out[j] = (r.verdict, r.gauges, r.stabilized_at, sums[-1])
    return out


# -- inputs --

@st.composite
def scalars(draw, ring, lo=-1, hi=2):
    """Zeros, flagged zeros and pi^v * u for lo <= v <= hi, some flagged."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return ring.zero()
    if kind == 1:
        return ScalarElem(ring, INFINITY, None, True)
    v = draw(st.integers(lo, hi))
    enc = draw(st.integers(1, ring.base ** 4))
    x = ring.from_valuation_unit(v, enc + (enc % ring.base == 0))
    return ScalarElem(ring, x.v, x.u, kind == 2)


def rings():
    return st.sampled_from([(b, q, n) for b, q in RINGS
                            for n in PRECISIONS]).map(
        lambda case: RingDescriptor(*case))


@st.composite
def matrix_cases(draw):
    ring = draw(rings())
    ctx = MatrixAlgebraContext(ring, draw(st.sampled_from((2, 3))))
    gens = [MatrixV(ring, [[draw(scalars(ring)) for _ in range(ctx.d)]
                           for _ in range(ctx.d)])
            for _ in range(draw(st.integers(1, 3)))]
    return ctx, gens


@st.composite
def series_cases(draw):
    ring = draw(rings())
    kind, rank, cap = draw(st.sampled_from(SERIES))
    monoid = MonoidDescriptor(kind, rank)
    ctx = SeriesAlgebraContext(ring, monoid, cap)
    basis = ctx.basis
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(st.sampled_from(basis), min_size=1,
                                max_size=3, unique=True))
        gens.append(DaggerSeries(ring, monoid, {
            s: draw(scalars(ring)) for s in support}, cap))
    return ctx, gens


def lattice(ctx, gens):
    return lattice_from_elements(ctx, gens)


def loosely_equal(L1, L2):
    """Equality of two lattices on all but the last LOOSE digits of each
    entry's window: the package keeps one flag, not a count of lost digits
    (bench/common.py reads flagged results the same way).  A column that
    lies wholly in those digits is left out."""
    ring, N = L1.ring, L1.ring.precision

    def known(x):
        w = N - LOOSE - max(x[0], 0)
        return None if w <= 0 else (x[0], ring.ops.mod_pi_power(x[1], w))

    def columns(L):
        cols = [[known(x) for x in c] for c in L.cols]
        return [c for c in cols if any(x is not None for x in c)]

    return L1.pi_exponent == L2.pi_exponent and columns(L1) == columns(L2)


def assert_probes_agree(ctx, gens, m, warm):
    S = lattice(ctx, gens)
    if warm:  # the bench's order: rho1 has built S^2 .. S^8 already
        try:
            rho1_estimate(S, ctx, 8)
        except (ArithmeticError, ValueError):
            pass
    got = probe(S, ctx, m, [1, 2, 3])
    # the reference on an equal lattice with a chain of its own
    want = ref_probe(lattice(ctx, gens), ctx, m, [1, 2, 3])
    for j, (verdict, gauges, stab, partial_sum) in want.items():
        got_verdict, got_gauges, got_stab, got_sum = got[j]
        n = min(len(got_gauges), len(gauges))
        assert got_gauges[:n] == gauges[:n]
        if (got_verdict, got_stab) != (verdict, stab):
            # the stop compares flagged sums digit by digit, so either
            # order can stop a step later than exact arithmetic would;
            # past the stop the sum stays where it is
            assert got_verdict == verdict == "bounded"
            assert got_sum.lossy and partial_sum.lossy
        if got_sum.lossy or partial_sum.lossy:
            assert loosely_equal(got_sum, partial_sum)
        else:
            assert got_sum == partial_sum


# -- the probe --

class TestProbeReadsTheChain:
    @SETTINGS
    @given(matrix_cases(), st.sampled_from((1, 2)), st.booleans())
    def test_matrix_contexts_match_the_loop(self, case, m, warm):
        assert_probes_agree(*case, m, warm)

    @SETTINGS
    @given(series_cases(), st.sampled_from((1, 2)), st.booleans())
    def test_series_contexts_match_the_loop(self, case, m, warm):
        assert_probes_agree(*case, m, warm)

    def test_a_power_at_n_reads_inf(self):
        # a = [[0, pi^2], [pi^2, 0]] with m = 2 at N = 12: (pi^2 a)^2 is
        # pi^8 outside the span of pi^2 a, and (pi^2 a)^3 lies in pi^12 V,
        # which the loop's reduced product drops
        ring = RingDescriptor("padic", 5, 12)
        ctx = MatrixAlgebraContext(ring, 2)
        S = lattice(ctx, [MatrixV(ring, [[ring.zero(), ring.pi(2)],
                                         [ring.pi(2), ring.zero()]])])
        report = semi_dagger_probe(S, ctx, 2, [1])[1]
        assert report.gauges == [4, 8, INFINITY]
        assert (report.verdict, report.stabilized_at) == ("bounded", 2)
        assert probe(S, ctx, 2, [1]) == ref_probe(S, ctx, 2, [1])

    def test_the_probe_builds_only_chain_links(self, monkeypatch):
        ring = RingDescriptor("padic", 5, 40)
        ctx = MatrixAlgebraContext(ring, 2)
        S = lattice(ctx, [MatrixV(ring, [[ring.pi(-1), ring.zero()],
                                         [ring.zero(), ring.one()]])])
        calls = []
        real = spectral.lattice_product

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(spectral, "lattice_product", counting)
        reports = semi_dagger_probe(S, ctx, 1, [1, 2], l_max=8)
        assert [r.verdict for r in reports.values()] == ["bounded",
                                                         "diverging"]
        # the j = 2 probe reads S^4, S^6, S^8, S^10: links 2 .. 10
        assert len(calls) == len(S._chains[None][1]) == 9

    def test_z_contexts_multiply_left_to_right(self):
        # S = span(pi^-1 x^-1 + x) in Z^1 at D = 2, j = 2: regrouping the
        # truncated products would stop a step early, at gauges [-1, -1]
        ring = RingDescriptor("padic", 5, 12)
        z1 = MonoidDescriptor("Z", 1)
        ctx = SeriesAlgebraContext(ring, z1, 2)
        gens = [DaggerSeries(ring, z1, {z1.element((-1,)): ring.pi(-1),
                                        z1.element((1,)): ring.one()}, 2)]
        report = semi_dagger_probe(lattice(ctx, gens), ctx, 1, [2])[2]
        assert (report.verdict, report.gauges, report.stabilized_at) == \
            ("bounded", [-1, -1, -1], 2)
        assert_probes_agree(ctx, gens, 1, False)

    @pytest.mark.parametrize("n,loop,chain", [(12, 4, 3), (40, 3, 4)])
    def test_flagged_sums_can_stop_a_step_apart(self, n, loop, chain):
        # S = span(a), a = [[1, 1, 1], [pi^-1, 0, 0], [0, pi, 0]] over Z_3
        # and j = 2: in exact arithmetic pi^4 a^8 lies in the span of
        # pi^l a^(2l) for l <= 3, so the sums stop growing after step 3
        ring = RingDescriptor("padic", 3, n)
        ctx = MatrixAlgebraContext(ring, 3)
        one, zero = ring.one(), ring.zero()
        gens = [MatrixV(ring, [[one, one, one], [ring.pi(-1), zero, zero],
                               [zero, ring.pi(), zero]])]
        assert ref_probe(lattice(ctx, gens), ctx, 1, [2])[2][2] == loop
        assert semi_dagger_probe(lattice(ctx, gens), ctx, 1,
                                 [2])[2].stabilized_at == chain
        assert_probes_agree(ctx, gens, 1, False)


class TestAssociative:
    def test_matrices_and_n_series_regroup(self):
        ring = RingDescriptor("padic", 5, 12)
        assert MatrixAlgebraContext(ring, 2).associative
        for kind, rank, cap in SERIES:
            ctx = SeriesAlgebraContext(ring, MonoidDescriptor(kind, rank),
                                       cap)
            assert ctx.associative == (kind == "N")

    def test_a_cocycle_is_multiplied_from_the_left(self):
        ring = RingDescriptor("padic", 5, 12)
        n2 = MonoidDescriptor("N", 2)
        cocycle = BicharacterCocycle(ring.scalar(7), [[0, 0], [1, 0]])
        assert not SeriesAlgebraContext(ring, n2, 2, cocycle).associative

    def test_z_truncation_is_not_an_ideal(self):
        # (x^D x) x^-1 = 0 but x^D (x x^-1) = x^D
        ring = RingDescriptor("padic", 5, 12)
        z1 = MonoidDescriptor("Z", 1)
        ctx = SeriesAlgebraContext(ring, z1, 2)

        def x(e):
            return DaggerSeries(ring, z1, {z1.element((e,)): ring.one()}, 2)

        left = ctx.product(ctx.product(x(2), x(1)), x(-1))
        right = ctx.product(x(2), ctx.product(x(1), x(-1)))
        assert left != right


# -- the characteristic polynomial --

@st.composite
def matrices(draw):
    backend, base = draw(st.sampled_from(RINGS))
    ring = RingDescriptor(backend, base, draw(st.sampled_from((3, 12, 40))))
    d = draw(st.integers(1, 5))
    return MatrixV(ring, [[draw(scalars(ring, -1, ring.precision))
                           for _ in range(d)] for _ in range(d)])


class TestCharpolyOnTriples:
    @settings(SETTINGS, max_examples=200)
    @given(matrices())
    def test_coefficients_match_the_scalar_dot(self, a):
        got, want = characteristic_polynomial(a), ref_charpoly(a)
        assert got == want
        assert all(type(c) is ScalarElem for c in got)
        for x, y in zip(got, want):
            if not y.effectively_zero:
                assert (x.v, x.u) == (y.v, y.u)
            # the kernel flags a subset of what ScalarElem flagged
            assert x.lossy <= y.lossy

    @pytest.mark.parametrize("backend,base", [("padic", 5), ("eqchar", 5)])
    def test_a_flagged_zero_factor_flags_nothing(self, backend, base):
        # 1 + 124 at N = 3 is a flagged zero: 124 = -1 modulo 5^3 in Z_5
        # and in F_5[[t]]; the kernel's dot skips its products
        ring = RingDescriptor(backend, base, 3)
        z = ring.one() + ring.scalar(124)
        assert z.is_zero and z.lossy
        one = ring.one()
        a = MatrixV(ring, [[one, z], [one, one]])
        got, want = characteristic_polynomial(a), ref_charpoly(a)
        assert got == want
        # det = 1 * 1 - z * 1: ScalarElem flags it, the kernel does not
        assert want[0].lossy and not got[0].lossy
