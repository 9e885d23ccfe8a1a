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

Inputs run over padic p in {2, 5} and eqchar q in {4, 9} at N in
{1, 3, 40}: zeros, flagged zeros, effectively-zero entries (N <= v < inf),
entries of K, flagged entries, and pairs whose sum cancels exactly or in
its leading digits only.  Each sweep asserts that it met both kinds of
cancellation.
"""

import random

import pytest

from daggerkit.linalg import _Kernel
from daggerkit.ring import INFINITY, RingDescriptor, ScalarElem

RINGS = [("padic", 2), ("padic", 5), ("eqchar", 4), ("eqchar", 9)]
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
