"""Differential tests of the scalar rules on (v, u, lossy) triples.

The sum, product, quotient and split at a power of pi have one
implementation, ``ring._scalar_rules``; ScalarElem's ``+ - * / **`` and
``split_at_pi_power`` and the elimination kernel of ``linalg`` all run it.
The other differential tests (``test_linalg_kernel``, ``test_lattice_raw``,
``test_series_rules``) take ScalarElem as their reference, so this file is
the one that checks the rules themselves against independent code: the
ScalarElem method bodies as they were before the rules moved, kept here
verbatim on a reference scalar.  Outputs must be identical: the same
valuation, unit residue and ``lossy`` flag, and the same exceptions.

Inputs run over padic p in {2, 5} and eqchar q in {2, 4, 5, 9} at N in
{1, 3, 40}: zeros, flagged zeros, effectively-zero entries (N <= v < inf),
entries of K, flagged entries, and pairs whose sum cancels exactly or in
its leading digits only.  Each sweep asserts that it met both kinds of
cancellation.

Three rules are checked against the rules themselves.  The
multiply-accumulate ``acc[j] += f * b`` is a rule of its own with the sum
written out, and the row update ``row + f * prow``, ``_Kernel.dot`` and
``_Kernel.product`` run it, so hypothesis tests compare each with
``plus(acc, times(x, y))`` summed in the same order.  ``plus`` and the
multiply-accumulate read a valuation only when the summands' valuations
tie; a premise test checks, on the residues of both backends, that every
untied sum of units is a unit.  The Z_p inverse runs Newton iteration, so
it is compared with ``pow(a, -1, p^N)``, the inverse it replaced.
"""

import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from daggerkit.linalg import _ZERO, _Kernel, _sparse
from daggerkit.ring import INFINITY, RingDescriptor, ScalarElem

RINGS = [("padic", 2), ("padic", 5), ("eqchar", 2), ("eqchar", 4),
         ("eqchar", 5), ("eqchar", 9)]
PRECISIONS = (1, 3, 40)
CASES = [(b, base, n) for b, base in RINGS for n in PRECISIONS]


# -- the reference: ScalarElem's arithmetic before the shared rules --

def ref_from_residue(ring, r, extra_val=0, lossy=False):
    """Canonicalise a raw residue of V/pi^N into pi^(extra_val+w) * unit."""
    w = ring.ops.val(r)
    if w >= ring.precision:
        return RefScalar(ring, INFINITY, None, lossy=lossy)
    return RefScalar(ring, extra_val + w, ring.ops.shift_down(r, w),
                     lossy=lossy)


class RefScalar:
    __slots__ = ("ring", "v", "u", "lossy")

    def __init__(self, ring, v, u, lossy=False):
        self.ring = ring
        self.v = v
        self.u = u
        self.lossy = lossy

    @property
    def is_zero(self):
        return self.v == INFINITY

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring descriptor mismatch")

    def __add__(self, other):
        self._check(other)
        if self.is_zero:
            return RefScalar(other.ring, other.v, other.u,
                             other.lossy or self.lossy)
        if other.is_zero:
            return RefScalar(self.ring, self.v, self.u,
                             self.lossy or other.lossy)
        ops = self.ring.ops
        v = min(self.v, other.v)
        a = ops.shift_up(self.u, self.v - v)
        b = ops.shift_up(other.u, other.v - v)
        s = ops.add(a, b)
        w = ops.val(s)
        carried = self.lossy or other.lossy
        if w >= self.ring.precision:
            return RefScalar(self.ring, INFINITY, None, lossy=True)
        return RefScalar(self.ring, v + w, ops.shift_down(s, w),
                         lossy=carried or (w > 0))

    def __neg__(self):
        if self.is_zero:
            return self
        return RefScalar(self.ring, self.v, self.ring.ops.neg(self.u),
                         self.lossy)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return RefScalar(self.ring, INFINITY, None,
                             self.lossy or other.lossy)
        return RefScalar(self.ring, self.v + other.v,
                         self.ring.ops.mul(self.u, other.u),
                         self.lossy or other.lossy)

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        if self.is_zero:
            return RefScalar(self.ring, INFINITY, None, self.lossy)
        return RefScalar(self.ring, self.v - other.v,
                         self.ring.ops.mul(self.u, self.ring.ops.inv(other.u)),
                         self.lossy or other.lossy)

    def __pow__(self, e):
        if e == 0:
            return RefScalar(self.ring, 0, self.ring.ops.one())
        if self.is_zero:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return self
        if e < 0:
            inv = RefScalar(self.ring, -self.v,
                            self.ring.ops.inv(self.u), self.lossy)
            return inv ** (-e)
        return RefScalar(self.ring, self.v * e,
                         self.ring.ops.pow(self.u, e), self.lossy)

    def split_at_pi_power(self, e):
        if self.is_zero:
            return self, self
        if self.v < 0:
            raise ValueError("split_at_pi_power needs an element of V")
        ops = self.ring.ops
        full = ops.shift_up(self.u, self.v)
        rem = ops.mod_pi_power(full, e)
        quo = ops.shift_down(full, e)
        return (ref_from_residue(self.ring, quo, lossy=self.lossy),
                ref_from_residue(self.ring, rem, lossy=self.lossy))


# -- comparison and inputs --

def sig(x):
    if isinstance(x, tuple):  # a (quotient, remainder) pair
        return tuple(map(sig, x))
    return (x.v, x.u, x.lossy)


def outcome(fn, *args, to=sig):
    """to(fn(*args)), or the type and message of what it raised."""
    try:
        return to(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


def pool(ring, seed):
    """(v, u, lossy) triples: zeros, flagged zeros, N <= v < inf, entries
    of K and of V, flagged entries, and for each of a few units x its
    negative (exact cancellation) and -x + pi^(v+k) y (the leading k digits
    cancel)."""
    ops, n, q = ring.ops, ring.precision, ring.base
    rng = random.Random(seed)

    def unit():
        enc = rng.randrange(1, q ** n)
        return ops.decode(enc if enc % q else enc + 1)

    xs = [(INFINITY, None, False), (INFINITY, None, True),
          (n, unit(), False), (n + 2, unit(), True), (0, ops.one(), False)]
    for _ in range(6):
        xs.append((rng.randint(-2, min(n - 1, 3)), unit(),
                   rng.random() < 0.25))
    for v, u, _ in list(xs[4:]):
        xs.append((v, ops.neg(u), False))
        for k in {1, n - 1, n}:
            if k >= 1:
                xs.append((v, ops.add(ops.neg(u), ops.shift_up(unit(), k)),
                           rng.random() < 0.25))
    return xs


def both(ring, x):
    return ScalarElem(ring, *x), RefScalar(ring, *x)


@pytest.mark.parametrize("backend,base,n", CASES)
def test_binary_operations_match_reference(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    xs = pool(ring, f"binary-{backend}-{base}-{n}")
    met = set()
    ops = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b, "div": lambda a, b: a / b}
    for x in xs:
        a, ra = both(ring, x)
        for y in xs:
            b, rb = both(ring, y)
            for name, op in ops.items():
                ours, ref = outcome(op, a, b), outcome(op, ra, rb)
                assert ours == ref, (name, x, y)
            s = ra + rb
            if not (ra.is_zero or rb.is_zero or x[2] or y[2]):
                if s.is_zero:
                    met.add("exact")
                elif s.lossy:
                    met.add("partial")
    # at N = 1 a unit has one digit, so a sum cancels all of it or none
    assert met == ({"exact", "partial"} if n > 1 else {"exact"})


@pytest.mark.parametrize("backend,base,n", CASES)
def test_powers_and_splits_match_reference(backend, base, n):
    ring = RingDescriptor(backend, base, n)
    for x in pool(ring, f"unary-{backend}-{base}-{n}"):
        a, ra = both(ring, x)
        for e in (-3, -1, 0, 1, 2, 5):
            assert outcome(pow, a, e) == outcome(pow, ra, e), (x, e)
        for e in sorted({0, 1, 2, n - 1, n, n + 1}):
            assert outcome(ScalarElem.split_at_pi_power, a, e) == \
                outcome(RefScalar.split_at_pi_power, ra, e), (x, e)


@pytest.mark.parametrize("backend,base,n", CASES)
def test_kernel_runs_the_same_rules(backend, base, n):
    """``_Kernel`` row updates, dots, scaling and quotients agree with the
    reference entry by entry."""
    ring = RingDescriptor(backend, base, n)
    xs = pool(ring, f"kernel-{backend}-{base}-{n}")
    kern, rng = _Kernel(ring), random.Random(f"rows-{backend}-{base}-{n}")
    nonzero = [x for x in xs if x[0] != INFINITY]
    ref = [RefScalar(ring, *x) for x in xs]
    for _ in range(40):
        i = rng.sample(range(len(xs)), 6)
        j = rng.sample(range(len(xs)), 6)
        f = rng.choice(nonzero)
        rf = RefScalar(ring, *f)
        row, prow = [xs[k] for k in i], [xs[k] for k in j]
        assert kern.update(row, f, prow) == \
            [sig(ref[a] + rf * ref[b]) for a, b in zip(i, j)]
        acc = RefScalar(ring, INFINITY, None)
        for a, b in zip(i, j):
            if not (ref[a].is_zero or ref[b].is_zero):
                acc = acc + ref[a] * ref[b]
        assert kern.dot(row, prow) == sig(acc)
        rows = [list(row)]
        kern.scale([rows], 0, f)
        assert rows[0] == [sig(rf * ref[a]) for a in i]
        for a in i:
            assert outcome(kern.over, xs[a], f, to=tuple) == outcome(
                RefScalar.__truediv__, ref[a], rf)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        kern.over(nonzero[0], (INFINITY, None, False))


# -- the Z_p inverse: Newton iteration against pow(a, -1, p^N) --

INVERSE_PRIMES = (2, 3, 5, 2**31 - 1)
INVERSE_PRECISIONS = (1, 2, 3, 40, 160)


def residue_classes(p, rng):
    """Every nonzero class mod p, or for a p too large to list them 1, 2,
    p - 1 and 61 random classes."""
    if p < 100:
        return range(1, p)
    return [1, 2, p - 1, *(rng.randrange(1, p) for _ in range(61))]


@pytest.mark.parametrize("n", INVERSE_PRECISIONS)
@pytest.mark.parametrize("p", INVERSE_PRIMES)
def test_padic_inverse_is_pow(p, n):
    """``inv`` of a unit a equals ``pow(a, -1, p^N)``, for a in every
    nonzero class mod p, each lifted by a random multiple of p."""
    ops, rng = RingDescriptor("padic", p, n).ops, random.Random(f"{p}-{n}")
    modulus = p ** n
    for c in residue_classes(p, rng):
        for a in {c, (c + p * rng.randrange(p ** (n - 1))) % modulus}:
            assert ops.inv(a) == pow(a, -1, modulus), (p, n, a)


@pytest.mark.parametrize("n", INVERSE_PRECISIONS)
@pytest.mark.parametrize("p", INVERSE_PRIMES)
def test_padic_non_unit_raises_as_pow_does(p, n):
    ops, modulus = RingDescriptor("padic", p, n).ops, p ** n
    for a in {0, p % modulus, (p * (p + 1)) % modulus, modulus - p}:
        assert outcome(ops.inv, a, to=int) == \
            outcome(pow, a, -1, modulus, to=int), (p, n, a)
        with pytest.raises(ValueError):
            ops.inv(a)


@pytest.mark.parametrize("n", INVERSE_PRECISIONS)
@pytest.mark.parametrize("p", INVERSE_PRIMES)
def test_padic_valuation_counts_factors_of_p(p, n):
    """``val`` of u p^v mod p^N, u a unit, is v for every v < N, and N for
    zero: the count of factors of p, found by division."""
    ops, rng = RingDescriptor("padic", p, n).ops, random.Random(f"v{p}-{n}")
    modulus = p ** n
    assert ops.val(0) == n
    for v in range(n):
        u = rng.randrange(1, p) + p * rng.randrange(p ** (n - 1))
        r, count = u * p ** v % modulus, 0
        while r % p ** (count + 1) == 0:
            count += 1
        assert count == v and ops.val(r) == v, (p, n, v)


def test_large_prime_ring_allocates_nothing_sized_by_p():
    """Building Z_p for p = 2^31 - 1 (and inverting in it) allocates a
    few kilobytes, not a table with one entry per class mod p."""
    tracemalloc.start()
    try:
        ring = RingDescriptor("padic", 2**31 - 1, 8)
        ring.ops.inv(12345)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_high_precision_ring_builds_powers_on_demand():
    """Z_5 at N = 20000 keeps no list of every p^k (about 58 MB): its table
    builds each power on first read."""
    tracemalloc.start()
    try:
        ops = RingDescriptor("padic", 5, 20000).ops
        assert ops.val(ops.shift_up(3, 7)) == 7
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, peak


# -- the row update rule against plus(a, times(f, b)) --

UPDATE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                           database=None,
                           suppress_health_check=[HealthCheck.too_slow])
# what one entry of an update case is built to be
UPDATE_KINDS = ("random", "zero_a", "zero_b", "cancel")


@st.composite
def triples(draw, ring, nonzero=False):
    """A zero or flagged zero (unless nonzero), or pi^v u with v from -3
    (an entry of K) to N + 1 (N <= v: effectively zero), some flagged."""
    n, q = ring.precision, ring.base
    if not nonzero and draw(st.integers(0, 4)) == 0:
        return (INFINITY, None, draw(st.booleans()))
    enc = draw(st.integers(1, q ** n - 1))
    u = ring.ops.decode(enc if enc % q else enc + 1)
    return (draw(st.integers(-3, n + 1)), u,
            draw(st.booleans()) and draw(st.booleans()))


@st.composite
def update_cases(draw, ring):
    """(row, f, prow) with f nonzero and each entry pair of one kind of
    ``UPDATE_KINDS``.  A "cancel" pair has f * b = -a + pi^(v+k) y for a
    unit y, so the leading k digits of the sum cancel (all of them when
    k >= N)."""
    plus, minus, over = ring._plus, ring._minus, ring._over
    f = draw(triples(ring, nonzero=True))
    row, prow = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(UPDATE_KINDS))
        a, b = draw(triples(ring)), draw(triples(ring))
        if kind == "zero_a":
            a = (INFINITY, None, draw(st.booleans()))
        elif kind == "zero_b":
            b = (INFINITY, None, draw(st.booleans()))
        elif kind == "cancel":
            a = draw(triples(ring, nonzero=True))
            k = draw(st.integers(1, ring.precision + 1))
            y = draw(triples(ring, nonzero=True))[1]
            b = over(plus(minus(a), (a[0] + k, y, False)), f)
        row.append(a)
        prow.append(b)
    return row, f, prow


def covered(f, row, prow, out):
    """What an update case covered, read off its inputs and its output."""
    met = {"flagged_f"} if f[2] else set()
    for a, b, c in zip(row, prow, out):
        if b[0] == INFINITY and b[2]:
            met.add("flagged_zero_b")
        if min(a[0], b[0], f[0]) < 0:
            met.add("K")
        if INFINITY not in (a[0], b[0]):
            if c[0] == INFINITY:
                met.add("cancel_all")
            elif c[0] > min(a[0], f[0] + b[0]):
                met.add("cancel_some")
    return met


@pytest.mark.parametrize("backend,base", RINGS)
def test_row_update_is_plus_of_times(backend, base):
    """``ring._update(row, f, prow)`` (``_Kernel.update``) equals
    [plus(a, times(f, b)) for a, b in zip(row, prow)], raw triples and
    flags alike, and the cases met every kind of entry it must handle."""
    rings = [RingDescriptor(backend, base, n) for n in (1, 3, 12, 40)]
    met = set()

    @UPDATE_SETTINGS
    @given(st.sampled_from(rings).flatmap(
        lambda r: update_cases(r).map(lambda case: (r, case))))
    def run(ring_case):
        ring, (row, f, prow) = ring_case
        plus, times = ring._plus, ring._times
        ref = [plus(a, times(f, b)) for a, b in zip(row, prow)]
        assert _Kernel(ring).update(row, f, prow) == ref
        met.update(covered(f, row, prow, ref))

    run()
    assert met == {"cancel_some", "cancel_all", "flagged_zero_b", "K",
                   "flagged_f"}


# -- the multiply-accumulate against plus(acc, times(x, y)) --

# what a sum plus(acc, x * y) met: "untied" valuations, a tie that cancels
# some or all of the leading digits (over F_2 every tie cancels one), a
# flagged zero summand, and an entry of K among the summands
SUM_KINDS = {"untied", "tie_cancel_some", "tie_cancel_all", "flagged_zero",
             "K"}


def recording(plus, met):
    """``plus`` that adds to met what each sum was (``SUM_KINDS``)."""

    def summed(a, b):
        s = plus(a, b)
        if min(a[0], b[0]) < 0:
            met.add("K")
        if INFINITY in (a[0], b[0]):
            if (a[0] == INFINITY and a[2]) or (b[0] == INFINITY and b[2]):
                met.add("flagged_zero")
        elif a[0] != b[0]:
            met.add("untied")
        elif s[0] == INFINITY:
            met.add("tie_cancel_all")
        elif s[0] > a[0]:
            met.add("tie_cancel_some")
        return s

    return summed


@st.composite
def accumulate_cases(draw, ring):
    """An ``update_cases`` case whose pairs go to entries drawn with
    repeats, so one entry can take several products in turn."""
    row, f, prow = draw(update_cases(ring))
    js = draw(st.lists(st.integers(0, len(row) - 1), min_size=len(prow),
                       max_size=len(prow)))
    return row, f, list(zip(js, prow))


def ref_sum(plus, times, xs, ys):
    """plus(acc, times(x, y)) over the pairs without a zero factor, from an
    unflagged zero: ``dot``'s definition."""
    acc = _ZERO
    for x, y in zip(xs, ys):
        if x[0] != INFINITY and y[0] != INFINITY:
            acc = plus(acc, times(x, y))
    return acc


@pytest.mark.parametrize("backend,base", RINGS)
def test_multiply_accumulate_is_plus_of_times(backend, base):
    """``ring._accumulate(acc, f, pairs)`` equals acc[j] = plus(acc[j],
    times(f, b)) for each (j, b) in turn, and ``_Kernel.product`` and
    ``_Kernel.dot`` equal ``ref_sum`` entry by entry, in increasing k: raw
    triples and flags alike.  The row [1, f, 1] times the rows [row, prow,
    row] of the case makes entry j a + f * b + a, so the case's
    cancellations reach the products and a sum cancelled to a flagged zero
    takes one more term; the zeros of the case, and a flagged zero factor,
    are zero factors that neither reads."""
    rings = [RingDescriptor(backend, base, n) for n in (1, 3, 12, 40)]
    met = set()

    @UPDATE_SETTINGS
    @given(st.sampled_from(rings).flatmap(
        lambda r: accumulate_cases(r).map(lambda case: (r, case))))
    def run(ring_case):
        ring, (row, f, pairs) = ring_case
        kern, times = _Kernel.of(ring), ring._times
        plus = recording(ring._plus, met)
        ref = list(row)
        for j, b in pairs:
            ref[j] = plus(ref[j], times(f, b))
        acc = list(row)
        ring._accumulate(acc, f, pairs)
        assert acc == ref

        prow = [b for _, b in pairs]
        one, flagged = (0, ring.ops.one(), False), (INFINITY, None, True)
        a = [[one, f, one], [f, one, flagged], [row[0], prow[-1], f]]
        b = [row, prow, row]
        cols = list(zip(*b))
        ref = [[ref_sum(plus, times, r, c) for c in cols] for r in a]
        assert kern.product(_sparse(a), _sparse(b), len(row)) == ref
        assert [[kern.dot(r, c) for c in cols] for r in a] == ref
        assert kern.dot(row, prow) == ref_sum(plus, times, row, prow)

    run()
    assert met == SUM_KINDS


@pytest.mark.parametrize("backend,base", RINGS)
def test_untied_sums_of_units_are_units(backend, base):
    """The premise of reading ``val`` only on a tie: for units a, f, b and
    every d >= 1, past N too, a + pi^d b, a + pi^d f b and pi^d a + f b
    have valuation 0."""
    rng = random.Random(f"untied-{backend}-{base}")
    for n in (1, 3, 12, 40):
        ring = RingDescriptor(backend, base, n)
        ops, q = ring.ops, ring.base

        def unit():
            enc = rng.randrange(1, q ** n)
            return ops.decode(enc if enc % q else enc + 1)

        for _ in range(8):
            a, f, b = unit(), unit(), unit()
            for d in range(1, n + 3):
                up = ops.shift_up
                assert ops.val(ops.add(a, up(b, d))) == 0, (n, d)
                assert ops.val(ops.fma(a, up(f, d), b)) == 0, (n, d)
                assert ops.val(ops.fma(up(a, d), f, b)) == 0, (n, d)
