"""Exact arithmetic in a complete discrete valuation ring at fixed precision.

A nonzero element of the ring V (or of its fraction field K) is stored as
``pi^v * u`` where ``v`` is the valuation and ``u`` is a unit residue kept
modulo ``pi^N`` for a single global absolute precision ``N``.  Two backends
share this element model:

* ``padic``  -- V = Z_p, uniformiser pi = p, residue field F_p;
* ``eqchar`` -- V = F_q[[t]], uniformiser pi = t, residue field F_q.

Both backends keep a unit residue as one Python int and hand the same
residue protocol (``add``, ``mul``, ``fma``, ``inv``, ``val``,
``shift_up``, ..., ``encode``/``decode``) to ``ScalarElem``; ``fma(a, f,
b)`` is a + f b in one reduction.  For ``padic`` the int is the residue in
[0, p^N).  For ``eqchar``, q = p^m, it is a Kronecker substitution: the m
base-p digits of the coefficient of t^i fill lanes i*w .. i*w + m - 1 of b
bits, w = 2m - 1 lanes per t-degree, and b is derived from (p, m, N) so
that the largest lane of an unreduced product plus an addend fits
(``_EqcharOps`` gives the bound, and its reduction mod p for p = 2 is one
mask).  ``encode`` maps either residue to the base-q (or base-p) integer
that the JSON schemas carry.

Norms are never materialised as floating-point numbers: |x| = eps^v with
eps = |pi| < 1 symbolic, so every norm comparison in this package is a
comparison of valuation exponents (eps^a <= eps^b iff a >= b).

Precision semantics: representatives are manipulated exactly modulo pi^N.
A coarse ``lossy`` flag (deliberately not per-digit tracking) is set when
an operation produces digits that are no longer determined by the inputs'
stored digits -- cancellation in a sum, or a residue that is
indistinguishable from zero at precision N.  Equality compares stored
representatives; the flag is advisory metadata.  One function,
``_scalar_rules``, holds the rules that set it; ``RingDescriptor`` binds
them once (``_plus``, ``_times``, ``_dot``, ...), and ScalarElem, the
elimination of ``linalg`` and the algebra contexts all run them.  One of
these rules, ``accumulate``, adds f * b into entries in place, the sum
written out and each sum of two nonzero entries one ``fma``; the rules
``product`` (of matrices), ``dot`` and ``update`` (the row update
``row + f * prow``) all run it.  A sum reads the valuation of its residue
only when the summands' valuations tie: an untied sum of units is a unit.

Both backends invert a unit by Newton iteration at doubling precision,
from its inverse modulo pi.
"""

from __future__ import annotations

from math import isqrt

INFINITY = float("inf")


class PrecisionExhausted(ArithmeticError):
    """A computation needed digits beyond the ring's absolute precision."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # the least divisor > 1 is prime; trial division stops at sqrt(q)
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    m = 0
    r = q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


class FiniteField:
    """GF(q) = F_p[x]/(modulus), q = p^m, with a deterministic modulus.

    An element is encoded as an integer in [0, q): base p on its coefficient
    vector with respect to the power basis.  For m = 1 the modulus is
    unused.  The F_p[x] helpers find the modulus; element arithmetic lives
    in the packed residues of ``_EqcharOps``.
    """

    def __init__(self, q: int):
        p, m = _factor_prime_power(q)
        self.p = p
        self.degree = m
        self.modulus = self._find_irreducible(p, m) if m > 1 else None

    # -- F_p[x] helpers on coefficient tuples (low degree first) --

    @staticmethod
    def _poly_trim(f: tuple[int, ...]) -> tuple[int, ...]:
        i = len(f)
        while i > 0 and f[i - 1] == 0:
            i -= 1
        return f[:i]

    @classmethod
    def _poly_mulmod(cls, f, g, mod, p):
        out = [0] * (len(f) + len(g) - 1) if f and g else []
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] = (out[i + j] + a * b) % p
        return cls._poly_rem(tuple(out), mod, p)

    @classmethod
    def _poly_rem(cls, f, mod, p):
        f = list(f)
        dm = len(mod) - 1
        lead_inv = pow(mod[-1], -1, p)
        while len(cls._poly_trim(tuple(f))) - 1 >= dm:
            f = list(cls._poly_trim(tuple(f)))
            d = len(f) - 1
            c = (f[-1] * lead_inv) % p
            for i in range(dm + 1):
                f[d - dm + i] = (f[d - dm + i] - c * mod[i]) % p
        return cls._poly_trim(tuple(f))

    @classmethod
    def _poly_gcd(cls, f, g, p):
        f, g = cls._poly_trim(tuple(f)), cls._poly_trim(tuple(g))
        while g:
            f, g = g, cls._poly_rem(f, g, p)
        return f

    @classmethod
    def _poly_powmod_x(cls, e: int, mod, p):
        """x^e mod (mod) by square and multiply."""
        result = (1,)
        base = (0, 1)
        base = cls._poly_rem(base, mod, p)
        while e > 0:
            if e & 1:
                result = cls._poly_mulmod(result, base, mod, p)
            base = cls._poly_mulmod(base, base, mod, p)
            e >>= 1
        return result

    @classmethod
    def _sub_x(cls, f, p):
        """f(x) - x as a trimmed coefficient tuple."""
        out = list(f) + [0] * (2 - len(f))
        out[1] = (out[1] - 1) % p
        return cls._poly_trim(tuple(out))

    @classmethod
    def _is_irreducible(cls, mod, p: int, m: int) -> bool:
        # x^(p^m) == x mod f, and gcd(x^(p^(m/r)) - x, f) = 1 for primes r | m
        xq = cls._poly_powmod_x(p**m, mod, p)
        if cls._sub_x(xq, p) != ():
            return False
        for r in range(2, m + 1):
            if m % r == 0 and _is_prime(r):
                xr = cls._poly_powmod_x(p ** (m // r), mod, p)
                diff = cls._sub_x(xr, p)
                if diff == ():
                    return False
                g = cls._poly_gcd(mod, diff, p)
                if len(g) != 1:
                    return False
        return True

    @classmethod
    def _find_irreducible(cls, p: int, m: int) -> tuple[int, ...]:
        # deterministic: scan monic polynomials x^m + c_{m-1}x^{m-1} + ... + c_0
        for code in range(p**m):
            coeffs = []
            c = code
            for _ in range(m):
                coeffs.append(c % p)
                c //= p
            mod = tuple(coeffs) + (1,)
            if cls._is_irreducible(mod, p, m):
                return mod
        raise RuntimeError(f"no irreducible polynomial of degree {m} over F_{p}")


class _Powers(dict):
    """p^k for k >= 0, each computed on its first read."""

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, k):
        self[k] = power = self.p**k
        return power


class _PadicOps:
    """Unit-residue arithmetic for V = Z_p: residues are ints in [0, p^N).

    ``add``, ``neg``, ``mul``, ``fma``, ``val``, ``shift_up``,
    ``shift_down`` and ``mod_pi_power`` are closures built once per ring
    over the modulus p^N and a ``_Powers`` table of p^k, which computes
    each power once, on its first read, so a ring of high precision holds
    only the powers it uses.  ``val`` tests divisibility by
    powers from the table, doubling the exponent and then bisecting, so a
    residue of valuation v costs about 2 log2(v) reductions rather than v
    divisions by p.  A shift or a window at or past N needs no power: a
    residue below p^N has no digit there.
    """

    def __init__(self, p: int, precision: int):
        n = precision
        self.p = p
        self.precision = n
        self.modulus = modulus = p**n
        pk = _Powers(p)
        # the modulus p^k of each Newton step of ``inv``, k = 2, ..., N
        ks = (-(-n >> i) for i in range(n.bit_length()))
        self._newton = [pk[k] for k in ks if k > 1][::-1]

        def add(a, b):
            return (a + b) % modulus

        def neg(a):
            return -a % modulus

        def mul(a, b):
            return a * b % modulus

        def fma(a, f, b):
            return (a + f * b) % modulus

        def val(r):
            """Valuation of a residue, capped at the precision: p^lo
            divides r, and p^hi doubles until it does not (r < p^N does
            not divide by p^N), then bisection."""
            if r % p:
                return 0
            if not r:
                return n
            lo, hi = 1, 2
            while hi < n and not r % pk[hi]:
                lo, hi = hi, 2 * hi
            hi = min(hi, n)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if r % pk[mid]:
                    hi = mid
                else:
                    lo = mid
            return lo

        def shift_up(a, d):
            return a * pk[d] % modulus if d < n else 0

        def shift_down(a, w):
            return a // pk[w] if w < n else 0

        def mod_pi_power(a, e):
            return a % pk[e] if e < n else a

        (self.add, self.neg, self.mul, self.fma, self.val, self.shift_up,
         self.shift_down, self.mod_pi_power) = (
            add, neg, mul, fma, val, shift_up, shift_down, mod_pi_power)

    def one(self):
        return 1

    def is_zero(self, r) -> bool:
        return r == 0

    def inv(self, a):
        """Newton iteration g <- g (2 - a g) modulo p^k at doubling
        precision (von zur Gathen and Gerhard, 9.1) from the inverse of a
        modulo p, which raises ValueError for a non-unit."""
        g = pow(a % self.p, -1, self.p)
        for m in self._newton:
            g = g * (2 - a * g) % m
        return g

    def pow(self, a, e: int):
        return pow(a, e, self.modulus)

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def from_int(self, n: int):
        return n % self.modulus

    def encode(self, a) -> int:
        return a

    def decode(self, n: int):
        return n % self.modulus


class _EqcharOps:
    """Unit-residue arithmetic for V = F_q[[t]], q = p^m: a residue is one
    packed int (Kronecker substitution).

    Layout: the coefficient of t^i is c_0 + c_1 x + ... + c_(m-1) x^(m-1) in
    GF(q) = F_p[x]/(modulus); its digit c_j sits in lane i*w + j, where a
    lane is b bits wide and w = 2m - 1 lanes make up one t-degree.  Stored
    residues have every lane in [0, p) and the top m - 1 lanes of each
    t-degree zero, so the plain integer product of two residues is their
    product in F_p[x][t], one lane per (t, x)-degree pair: x-degrees reach
    at most 2m - 2 < w and no lane carries into the next t-degree.

    ``mul`` and ``fma(a, f, b) = a + f b`` end in one normalisation: it
    masks to t^N, folds lanes m .. 2m-2 back with the precomputed
    x^l mod modulus, and reduces every lane mod p, with one multiply by
    mu = floor(2^b / p) + 1 per lane parity.  A sum of two stored residues,
    or one times p - 1, has no lane to fold and none at t^N or above, so
    ``add`` and ``neg`` run the lane-wise reduction alone.  For p = 2 that
    reduction keeps bit 0 of each lane (one mask), ``add`` is XOR and
    ``neg`` the identity.  These operations are closures over the ring's
    constants, built once per ring.

    Lane width: a lane of a product holds at most N m (p-1)^2 before the
    fold and (1 + (m-1)(p-1)) times that after it, and the addend of
    ``fma`` adds p - 1; k is the bit length of this bound, or of p^2 when
    that is larger (sums and negations).  The lane-wise quotient by p is
    exact for lanes below 2^k when 2^b >= p 2^k, and the products x * mu
    of alternate lanes fit in 2b bits, so b = k + ceil(log2 p).
    """

    def __init__(self, q: int, precision: int):
        field = FiniteField(q)
        p, m, n = field.p, field.degree, precision
        w = 2 * m - 1
        lane_max = max(p * p, n * m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))
                       + p - 1)
        b = lane_max.bit_length() + (p - 1).bit_length()
        self.q = q
        self.p = p
        self.precision = precision
        self._b = b
        self._stride = stride = b * w
        self._block = (1 << stride) - 1
        lane = (1 << b) - 1
        lane0 = sum(lane << (stride * i) for i in range(n))
        self._low = low = sum(lane0 << (b * j) for j in range(m))
        folds = []
        for e in range(m, w):
            rem = FiniteField._poly_powmod_x(e, field.modulus, p)
            folds.append((b * e, sum(c << (b * j) for j, c in enumerate(rem))))
        if p == 2:
            ones = low // lane  # bit 0 of every digit lane

            def reduce(s):
                return s & ones

            def neg(a):
                return a
            add = int.__xor__
        else:
            mu, p1 = (1 << b) // p + 1, p - 1
            even = sum(lane << (2 * b * g) for g in range((n * w + 1) // 2))

            def reduce(s):
                quot = (s & even) * mu >> b & even
                quot |= ((s >> b & even) * mu >> b & even) << b
                return s - p * quot

            def neg(a):
                return reduce(p1 * a)

            def add(x, y):
                return reduce(x + y)

        def normalise(r):
            s = r & low
            for shift, rem in folds:
                s += (r >> shift & lane0) * rem
            return reduce(s)

        def mul(x, y):
            return normalise(x * y)

        def fma(a, f, x):
            return normalise(a + f * x)

        def val(r):
            return ((r & -r).bit_length() - 1) // stride if r else n

        self._normalise, self.add, self.neg, self.mul, self.fma, self.val = \
            normalise, add, neg, mul, fma, val
        # lane shift of every base-p digit of the base-q encoding, high first
        self._digits = [b * (i * w + j) for i in reversed(range(n))
                        for j in reversed(range(m))]
        # the masks and shift of each Newton step of ``inv``, from
        # ceil(k / 2) correct t-degrees to k = ..., ceil(N / 2), N
        ks = (-(-n >> i) for i in range(n.bit_length()))
        self._newton = [((1 << stride * k) - 1, stride * (k - k // 2),
                         (1 << stride * (k // 2)) - 1)
                        for k in ks if k > 1][::-1]
        self._unit_inv = {}  # GF(q) inverses of constant terms, q - 1 at most

    def one(self):
        return 1

    def is_zero(self, r) -> bool:
        return r == 0

    def inv(self, a):
        """Newton iteration g <- g (2 - a g) at doubling precision (von zur
        Gathen and Gerhard, 9.1) from the memoised inverse of the constant
        term.  From j to k <= 2j correct t-degrees a step reads a and g
        modulo t^k, where a g = 1 + t^j h: only g h mod t^(k - j) is new."""
        c0 = a & self._block
        g = self._unit_inv.get(c0)
        if g is None:
            if not c0:
                raise ZeroDivisionError("inverse of a non-unit power series")
            g = self._unit_inv[c0] = self.pow(c0, self.q - 2)
        norm, neg = self._normalise, self.neg
        for mask, shift, high in self._newton:
            h = norm((a & mask) * g & mask) >> shift
            g |= norm(g * neg(h) & high) << shift
        return g

    def pow(self, a, e: int):
        out = 1
        base = a
        while e > 0:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def shift_up(self, a, d: int):
        if d >= self.precision:
            return 0
        return a << (self._stride * d) & self._low

    def shift_down(self, a, w: int):
        return a >> (self._stride * w)

    def mod_pi_power(self, a, e: int):
        return a & ((1 << (self._stride * e)) - 1)

    def is_unit(self, a) -> bool:
        return bool(a & self._block)

    def from_int(self, n: int):
        return n % self.p

    def encode(self, a) -> int:
        """The base-q integer sum c_i q^i of the t-coefficients c_i."""
        out = 0
        lane = (1 << self._b) - 1
        for s in self._digits:
            out = out * self.p + (a >> s & lane)
        return out

    def decode(self, n: int):
        out = 0
        for s in reversed(self._digits):
            n, d = divmod(n, self.p)
            out |= d << s
        return out


def _scalar_rules(ops, N):
    """The sum, negation, product, quotient and split at a power of pi of
    (v, u, lossy) triples at precision N, and the multiply-accumulate, row
    update, dot and matrix product of elimination, with the residue
    operations of ``ops`` bound once; a zero is (inf, None, lossy).  This
    is the one place that decides which digits of a result are known.

    A sum reads ``val`` only when its summands' valuations tie.  Otherwise
    it is pi^min (u + pi^d u') with d >= 1 for units u, u', and that is a
    unit again (or u itself when d >= N), the invariant ``times`` and
    ``over`` rely on for their inputs too."""
    add, neg, mul, fma, val = ops.add, ops.neg, ops.mul, ops.fma, ops.val
    one, zero = ops.one(), (INFINITY, None, False)
    up, down, mod = ops.shift_up, ops.shift_down, ops.mod_pi_power

    def plus(a, b):
        """a + b.  A sum whose w > 0 leading digits cancel is flagged; one
        that cancels all N digits is a flagged zero."""
        av, au, al = a
        bv, bu, bl = b
        if av == INFINITY:
            return (bv, bu, bl or al)
        if bv == INFINITY:
            return (av, au, al or bl)
        if av < bv:
            return (av, add(au, up(bu, bv - av)), al or bl)
        if bv < av:
            return (bv, add(up(au, av - bv), bu), al or bl)
        s = add(au, bu)
        w = val(s)
        if not w:
            return (av, s, al or bl)
        if w >= N:
            return (INFINITY, None, True)
        return (av + w, down(s, w), True)

    def minus(a):
        """-a; a zero stays as it is, flag included."""
        return a if a[0] == INFINITY else (a[0], neg(a[1]), a[2])

    def times(a, b):
        """a * b."""
        av, au, al = a
        bv, bu, bl = b
        if av == INFINITY or bv == INFINITY:
            return (INFINITY, None, al or bl)
        return (av + bv, mul(au, bu), al or bl)

    def over(a, b):
        """a / b; the unit of b is inverted (``ops.inv``, read at each call)
        unless it is 1.  A zero quotient keeps the flag of a only."""
        if b[0] == INFINITY:
            raise ZeroDivisionError("division by zero")
        if a[0] == INFINITY:
            return (INFINITY, None, a[2])
        u = a[1] if b[1] == one else mul(a[1], ops.inv(b[1]))
        return (a[0] - b[0], u, a[2] or b[2])

    def accumulate(acc, f, pairs):
        """acc[j] = plus(acc[j], times(f, b)) for each (j, b) of pairs, in
        place, f nonzero: ``plus`` written out, each sum of two nonzero
        entries one ``fma`` and a zero b passing on its flag only.  The
        multiply-accumulate of matrix products, dots and row updates."""
        fv, fu, fl = f
        for j, (bv, bu, bl) in pairs:
            if bv == INFINITY:
                if fl or bl:  # f * b is a flagged zero, which flags acc[j]
                    av, au, _ = acc[j]
                    acc[j] = (av, au, True)
                continue
            tv, tl = fv + bv, fl or bl
            av, au, al = acc[j]
            # modulo pi^N, up(x * y, d) = up(x, d) * y
            if av < tv:
                acc[j] = (av, fma(au, up(fu, tv - av), bu), al or tl)
            elif av == INFINITY:
                acc[j] = (tv, mul(fu, bu), tl or al)
            elif tv < av:
                acc[j] = (tv, fma(up(au, av - tv), fu, bu), al or tl)
            else:
                s = fma(au, fu, bu)
                w = val(s)
                if not w:
                    acc[j] = (av, s, al or tl)
                elif w >= N:
                    acc[j] = (INFINITY, None, True)
                else:
                    acc[j] = (av + w, down(s, w), True)

    def update(row, f, prow):
        """[plus(a, times(f, b)) for a, b in zip(row, prow)], f nonzero: the
        row update of elimination."""
        out = list(row)
        accumulate(out, f, enumerate(prow))
        return out

    def dot(xs, ys):
        """The sum of x * y over the pairs without a zero factor, in order."""
        acc = [zero]
        for x, y in zip(xs, ys):
            if x[0] != INFINITY and y[0] != INFINITY:
                accumulate(acc, x, ((0, y),))
        return acc[0]

    def product(a, b, n):
        """Rows of a * b (n columns) from ``linalg._sparse`` rows: each entry
        sums its pairs in increasing k, as ``dot`` (Gustavson, TOMS 1978)."""
        out = []
        for row in a:
            acc = [zero] * n
            for k, x in row:
                accumulate(acc, x, b[k])
            out.append(acc)
        return out

    def canonical(r, lossy):
        """A residue of V/pi^N as pi^w * unit, or a zero."""
        w = val(r)
        return (INFINITY, None, lossy) if w >= N else (w, down(r, w), lossy)

    def split(x, e):
        """(quotient, remainder) with x = pi^e * quotient + remainder and
        the remainder canonical modulo pi^e; x must lie in V."""
        v, u, lossy = x
        if v == INFINITY:
            return x, x
        if v < 0:
            raise ValueError("split_at_pi_power needs an element of V")
        full = up(u, v)
        return canonical(down(full, e), lossy), canonical(mod(full, e), lossy)

    return plus, minus, times, over, split, accumulate, update, dot, product


class RingDescriptor:
    """A complete discrete valuation ring fixed by backend, base and precision.

    ``backend`` is "padic" (base = prime p) or "eqchar" (base = prime power q).
    ``precision`` is the pi-adic absolute precision N >= 1.
    """

    def __init__(self, backend: str, base: int, precision: int):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if backend == "padic":
            if not _is_prime(base):
                raise ValueError(f"p = {base} is not prime")
            self.ops = _PadicOps(base, precision)
        elif backend == "eqchar":
            _factor_prime_power(base)
            self.ops = _EqcharOps(base, precision)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.base = base
        self.precision = precision
        (self._plus, self._minus, self._times, self._over, self._split,
         self._accumulate, self._update, self._dot,
         self._product) = _scalar_rules(self.ops, precision)
        self._one = self.ops.one()  # the unit residue 1, read per product

    def __eq__(self, other):
        return (isinstance(other, RingDescriptor)
                and self.backend == other.backend
                and self.base == other.base
                and self.precision == other.precision)

    def __hash__(self):
        return hash((self.backend, self.base, self.precision))

    def __repr__(self):
        sym = "p" if self.backend == "padic" else "q"
        return (f"RingDescriptor({self.backend}, {sym}={self.base}, "
                f"N={self.precision})")

    def seen(self, x):
        """What equality sees of an entry x = (v, u, ...): None when it is
        effectively zero (v >= N), else v and the unit digits inside the
        window pi^(N - max(v, 0)).  Those determine pi^v * u modulo pi^N;
        digits above the window depend on the order in which the value was
        computed.  ScalarElem, MatrixV and Lattice compare and hash by it.
        """
        v, N = x[0], self.precision
        return None if v >= N else \
            (v, self.ops.mod_pi_power(x[1], N - max(v, 0)))

    def same(self, xs, ys):
        """Entrywise equality under ``seen`` of two sequences of entries;
        equal v and u need no windowing."""
        seen = self.seen
        return all(x[:2] == y[:2] or seen(x) == seen(y)
                   for x, y in zip(xs, ys))

    def zero(self) -> "ScalarElem":
        return ScalarElem(self, INFINITY, None)

    def one(self) -> "ScalarElem":
        return ScalarElem(self, 0, self.ops.one())

    def pi(self, exponent: int = 1) -> "ScalarElem":
        return ScalarElem(self, exponent, self.ops.one())

    def scalar(self, n: int) -> "ScalarElem":
        """Embed an integer.  Exact: valuation computed on the integer itself."""
        if n == 0:
            return self.zero()
        if self.backend == "padic":
            v = 0
            m = abs(n)
            while m % self.base == 0:
                m //= self.base
                v += 1
            unit = self.ops.from_int(n // self.base**v if n > 0
                                     else -((-n) // self.base**v))
            return ScalarElem(self, v, unit)
        r = self.ops.from_int(n)
        if self.ops.is_zero(r):
            return self.zero()
        return ScalarElem(self, 0, r)

    def from_valuation_unit(self, v, unit_encoded: int) -> "ScalarElem":
        """Build pi^v * u from an integer-encoded unit residue."""
        if v == INFINITY:
            return self.zero()
        u = self.ops.decode(unit_encoded)
        if not self.ops.is_unit(u):
            raise ValueError("encoded residue is not a unit")
        return ScalarElem(self, v, u)


class ScalarElem:
    """An element pi^v * u of V or K at absolute precision N.

    Zero is canonical: valuation +inf, no unit part.  Elements of K are
    exactly those with negative valuation.  All operations are referentially
    transparent; instances are immutable and safe to share.
    """

    __slots__ = ("ring", "v", "u", "lossy")

    def __init__(self, ring: RingDescriptor, v, u, lossy: bool = False):
        self.ring = ring
        self.v = v
        self.u = u
        self.lossy = lossy

    # -- queries --

    @property
    def valuation(self):
        """nu(x): the largest n with x in pi^n V, +inf for zero."""
        return self.v

    @property
    def is_zero(self) -> bool:
        return self.v == INFINITY

    @property
    def effectively_zero(self) -> bool:
        """True when the element is indistinguishable from 0 at absolute
        precision N, i.e. nu(x) >= N.  Such elements compare equal to zero
        and linear algebra treats them as zero with a validity flag."""
        return self.v == INFINITY or self.v >= self.ring.precision

    @property
    def is_unit(self) -> bool:
        return self.v == 0

    def unit_encoded(self) -> int:
        return 0 if self.is_zero else self.ring.ops.encode(self.u)

    # -- arithmetic --

    def _check(self, other: "ScalarElem"):
        # the identity test skips the field-by-field comparison in the
        # common case of operands built from one descriptor
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring descriptor mismatch")

    def __add__(self, other: "ScalarElem") -> "ScalarElem":
        self._check(other)
        v, u, lossy = self.ring._plus(
            (self.v, self.u, self.lossy), (other.v, other.u, other.lossy))
        return ScalarElem(self.ring, v, u, lossy)

    def __neg__(self) -> "ScalarElem":
        if self.is_zero:
            return self
        return ScalarElem(self.ring,
                          *self.ring._minus((self.v, self.u, self.lossy)))

    def __sub__(self, other: "ScalarElem") -> "ScalarElem":
        return self + (-other)

    def __mul__(self, other: "ScalarElem") -> "ScalarElem":
        self._check(other)
        v, u, lossy = self.ring._times(
            (self.v, self.u, self.lossy), (other.v, other.u, other.lossy))
        return ScalarElem(self.ring, v, u, lossy)

    def __truediv__(self, other: "ScalarElem") -> "ScalarElem":
        self._check(other)
        v, u, lossy = self.ring._over(
            (self.v, self.u, self.lossy), (other.v, other.u, other.lossy))
        return ScalarElem(self.ring, v, u, lossy)

    def __pow__(self, e: int) -> "ScalarElem":
        if e == 0:
            return self.ring.one()
        if self.is_zero:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return self
        if e < 0:
            return (self.ring.one() / self) ** (-e)
        return ScalarElem(self.ring, self.v * e,
                          self.ring.ops.pow(self.u, e), self.lossy)

    def scaled_by_pi(self, e: int) -> "ScalarElem":
        """Multiply by pi^e (exact valuation shift, unit part untouched)."""
        if self.is_zero:
            return self
        return ScalarElem(self.ring, self.v + e, self.u, self.lossy)

    def split_at_pi_power(self, e: int):
        """Write x = pi^e * quotient + remainder with remainder canonical
        modulo pi^e.  Requires nu(x) >= 0."""
        return tuple(ScalarElem(self.ring, *x) for x in
                     self.ring._split((self.v, self.u, self.lossy), e))

    # -- comparison and display --

    def _comparable_unit(self):
        """Unit digits inside the absolute window pi^N that equality sees
        (``RingDescriptor.seen``): None for zero, 0 when N <= v < inf."""
        if self.is_zero:
            return None
        seen = self.ring.seen((self.v, self.u))
        return 0 if seen is None else seen[1]

    def __eq__(self, other):
        if not isinstance(other, ScalarElem):
            return NotImplemented
        return (self.ring == other.ring
                and self.ring.seen((self.v, self.u))
                == self.ring.seen((other.v, other.u)))

    def __hash__(self):
        seen = self.ring.seen((self.v, self.u))
        if seen is None:
            return hash((self.ring, INFINITY))
        return hash((self.ring, seen[0], self.ring.ops.encode(seen[1])))

    def __repr__(self):
        if self.is_zero:
            return "0"
        sym = "pi"
        if self.v == 0:
            return f"[{self.unit_encoded()}]"
        return f"{sym}^{self.v}*[{self.unit_encoded()}]"


def val(x: ScalarElem):
    """Valuation nu(x) = sup{n : x in pi^n V}; +inf exactly for zero."""
    return x.valuation


_ARITH = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def arith(op: str, x: ScalarElem, y: ScalarElem | None = None,
          exponent: int | None = None) -> ScalarElem:
    """Named ring operation dispatcher (used by the CLI surface)."""
    if op == "pow":
        if exponent is None:
            raise ValueError("pow needs an exponent")
        return x**exponent
    if op == "neg":
        return -x
    if op not in _ARITH:
        raise ValueError(f"unknown operation {op!r}")
    if y is None:
        raise ValueError(f"{op} needs two operands")
    return _ARITH[op](x, y)


def div(x: ScalarElem, y: ScalarElem) -> ScalarElem:
    """Division in the fraction field K; nu(x/y) = nu(x) - nu(y)."""
    return x / y
