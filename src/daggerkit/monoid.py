"""Finitely generated monoids with word lengths, and unit-valued 2-cocycles.

Three monoid kinds are supported, each with its canonical generating set
and the word length it induces: N^k (generators e_i, length = sum of
exponents), Z^k (generators +-e_i, length = sum of absolute exponents) and
the free monoid on a finite alphabet (length = word length).

Twisted series index their terms by keys, not by ``MonoidElem``: a
``Packing`` (one per descriptor and degree cap, kept on the descriptor)
packs an exponent vector into one int of fixed-width fields, and a word is
its own key, so ``compose`` of two keys is one addition.  The cocycles here
take keys as well as elements and keep what they compute on themselves:
``BicharacterCocycle`` its powers of lambda, ``TableCocycle`` its table
re-keyed per packing, ``TrivialCocycle`` its one.  A cocycle must
therefore not change once it has been used.
"""

from __future__ import annotations

import operator
import random
from types import MappingProxyType

from .ring import ScalarElem


class MonoidDescriptor:
    """Kind ("N", "Z" or "free") plus rank (or alphabet size)."""

    __slots__ = ("kind", "rank", "_packings")

    _ALPHABET = "abcdefghijklmnopqrstuvwxyz"

    def __init__(self, kind: str, rank: int):
        if kind not in ("N", "Z", "free"):
            raise ValueError(f"unknown monoid kind {kind!r}")
        if rank < 1 or (kind == "free" and rank > 26):
            raise ValueError("rank out of range")
        self.kind = kind
        self.rank = rank
        self._packings: dict[int, Packing] = {}

    def __eq__(self, other):
        return (isinstance(other, MonoidDescriptor)
                and (self.kind, self.rank) == (other.kind, other.rank))

    def __hash__(self):
        return hash((self.kind, self.rank))

    def __repr__(self):
        return f"MonoidDescriptor({self.kind}, rank={self.rank})"

    def packing(self, cap: int) -> "Packing":
        """The keys of the elements of length <= cap, made once per cap."""
        packing = self._packings.get(cap)
        if packing is None:
            packing = self._packings[cap] = Packing(self.kind, self.rank, cap)
        return packing

    def normal(self, data):
        """(data, length) of a valid element: exponents as a tuple of ints
        of the right rank (nonnegative for N^k), each read with
        ``operator.index`` (so 1.5 and True are refused), or a word in the
        first ``rank`` letters of a..z."""
        if self.kind == "free":
            if not isinstance(data, str):
                raise ValueError("free monoid elements are words")
            letters = self._ALPHABET[:self.rank]
            if data.strip(letters):  # what is left holds a foreign letter
                raise ValueError(f"free monoid words use only {letters!r}")
            return data, len(data)
        try:
            data = tuple(data)
            ok = bool not in map(type, data)  # operator.index reads True as 1
            data = tuple(map(operator.index, data))
        except TypeError:
            ok = False
        if not ok:
            raise ValueError("monoid exponents must be integers")
        if len(data) != self.rank:
            raise ValueError("exponent vector has wrong rank")
        if self.kind == "N" and any(c < 0 for c in data):
            raise ValueError("N^k exponents must be nonnegative")
        return data, sum(map(abs, data))

    def identity(self) -> "MonoidElem":
        if self.kind == "free":
            return MonoidElem(self, "")
        return MonoidElem(self, (0,) * self.rank)

    def element(self, data) -> "MonoidElem":
        return MonoidElem(self, tuple(data) if self.kind != "free" else data)

    def elements_up_to_length(self, bound: int):
        """All elements s with word length l(s) <= bound (N^k and Z^k only)."""
        if self.kind == "free":
            raise ValueError("free monoids are enumerated by words")
        # prefixes p with what they leave r of the bound, one level a slot
        level = [((), bound)]
        for _ in range(self.rank):
            level = [(p + (c,), r - abs(c)) for p, r in level
                     for c in range(-r if self.kind == "Z" else 0, r + 1)]
        return [MonoidElem._of(self, p, bound - r) for p, r in level]

    def random_element(self, rng: random.Random, max_length: int):
        if self.kind == "free":
            n = rng.randint(0, max_length)
            return MonoidElem(self, "".join(
                rng.choice(self._ALPHABET[: self.rank]) for _ in range(n)))
        budget = rng.randint(0, max_length)
        data = [0] * self.rank
        for _ in range(budget):
            i = rng.randrange(self.rank)
            step = rng.choice((1, -1)) if self.kind == "Z" else 1
            data[i] += step
        return MonoidElem(self, tuple(data))


class Packing:
    """Keys for the elements of length <= cap of one monoid.

    After Monagan and Pearce, *Polynomial division using dynamic arrays,
    heaps, and packed exponent vectors* (CASC 2007), an exponent vector is
    one int: exponent i, plus a bias B, in bits [w i, w i + w).  The width
    w = bitlen(2D) + 1 comes from the cap D: two elements of length <= D
    compose to exponents in [-2D, 2D], which every field holds, so a sum of
    keys never carries from one field into the next.  B is 2^(w-1) > 2D on
    Z^k and 0 on N^k.  A sum of two keys holds the bias twice, so
    ``compose(lead(s), t)``, with ``lead`` taking one bias off, is the key
    of s t.  A word of a free monoid is its own key, and its ``lead`` is
    itself.  ``additive`` says that the length of s t is the sum of the
    lengths.
    """

    __slots__ = ("kind", "rank", "cap", "identity", "additive", "key", "data",
                 "length", "lead", "fields")

    def __init__(self, kind: str, rank: int, cap: int):
        if cap < 0:
            raise ValueError("degree cap must be nonnegative")
        self.kind, self.rank, self.cap = kind, rank, cap
        self.additive = kind != "Z"
        if kind == "free":
            self.identity = ""
            self.key = self.data = self.lead = str
            self.length = len
            return
        w = (2 * cap).bit_length() + 1
        bias = 1 << (w - 1) if kind == "Z" else 0
        shifts = tuple(range(0, w * rank, w))
        mask = (1 << w) - 1
        offset = sum(bias << s for s in shifts)

        def key(data):
            k = offset
            for e, s in zip(data, shifts):
                k += e << s
            return k

        def data(key):
            return tuple([(key >> s & mask) - bias for s in shifts])

        def length(key):
            n = 0
            for s in shifts:
                n += abs((key >> s & mask) - bias)
            return n

        def lead(key):
            return key - offset

        self.key, self.data, self.length, self.lead = key, data, length, lead
        # exponent i of a key k is (k >> shifts[i] & mask) - bias
        self.identity, self.fields = offset, (shifts, mask, bias)


class MonoidElem:
    """An exponent vector (N^k, Z^k) or word (free), with cached length."""

    __slots__ = ("descriptor", "data", "length")

    def __init__(self, descriptor: MonoidDescriptor, data):
        self.descriptor = descriptor
        self.data, self.length = descriptor.normal(data)

    @classmethod
    def _of(cls, descriptor, data, length: int) -> "MonoidElem":
        """An element from data already known to be valid."""
        s = object.__new__(cls)
        s.descriptor, s.data, s.length = descriptor, data, length
        return s

    def __eq__(self, other):
        return (isinstance(other, MonoidElem)
                and self.descriptor == other.descriptor
                and self.data == other.data)

    def __hash__(self):
        # equal elements have equal data; __eq__ compares the descriptors
        return hash(self.data)

    def __repr__(self):
        return f"<{self.data!r}>"


def compose(s, t):
    """Monoid product.  Of two elements it is an element: componentwise
    addition of exponent vectors, concatenation of words.  Of two keys of
    one ``Packing``, the left one passed through ``lead``, it is the key
    of the product, one addition."""
    if not isinstance(s, MonoidElem):
        return s + t
    d = s.descriptor
    if d is not t.descriptor and d != t.descriptor:
        raise ValueError("monoid descriptor mismatch")
    if d.kind == "free":
        return MonoidElem._of(d, s.data + t.data, s.length + t.length)
    data = tuple(map(operator.add, s.data, t.data))
    return MonoidElem._of(d, data, s.length + t.length if d.kind == "N"
                          else sum(map(abs, data)))


def length_ge1(s: MonoidElem) -> int:
    """Word length clamped below by 1: the identity counts as one factor."""
    return max(s.length, 1)


class Cocycle:
    """Base class; value(s, t) must return a unit of V.

    The cocycles of this module also take keys: ``value(s, t, packing)``
    with s and t keys of ``packing`` (``keyed`` is True).  A subclass whose
    ``value`` takes elements only leaves ``keyed`` False, and series
    products hand it elements.  ``torus_monomial`` keeps the powers it makes
    on the cocycle, so a cocycle must not change once it has been used.
    """

    keyed = False
    _unit = None

    def value(self, s: MonoidElem, t: MonoidElem) -> ScalarElem:
        raise NotImplementedError

    def _meet(self, packing) -> None:
        """Raise ValueError if the series of packing's monoid are outside
        this cocycle's domain; ``series.mul`` asks before any term, so a
        product with no term left under the cap is refused too.  Every
        monoid is inside by default."""

    def _one(self) -> ScalarElem:
        """The ring's one, made on first use and kept."""
        if self._unit is None:
            self._unit = self.ring.one()
        return self._unit


class TrivialCocycle(Cocycle):
    keyed = True

    def __init__(self, ring):
        self.ring = ring

    def value(self, s, t, packing=None):
        return self._unit or self._one()

    def __repr__(self):
        return "TrivialCocycle()"


class BicharacterCocycle(Cocycle):
    """c(s, t) = lambda^(s . Q t) on Z^k for a square integer matrix Q.

    Bilinearity of the exponent makes the cocycle identity automatic, and
    c(s, 1) = c(1, s) = 1 since the exponent vanishes.  Each power of
    lambda is computed once and kept on the cocycle.
    """

    keyed = True

    def __init__(self, lam: ScalarElem, Q):
        if lam.valuation != 0:
            raise ValueError("cocycle values must be units of V")
        try:
            rows = [list(row) for row in Q]
            ok = rows and all(len(row) == len(rows) for row in rows) and \
                not any(isinstance(x, bool) for row in rows for x in row)
            Q = tuple(tuple(map(operator.index, row)) for row in rows)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError("Q must be a nonempty square matrix of integers")
        self.lam = lam
        self.ring = lam.ring
        self.Q = Q
        self._powers: dict[int, ScalarElem] = {}
        # packing -> (mask, bias, [(shift of i, Q_ij, shift of j)])
        self._fields: dict[Packing, tuple] = {}

    def value(self, s, t, packing=None):
        if packing is None:
            if s.descriptor.kind != "Z" or s.descriptor != t.descriptor:
                raise ValueError("bicharacter cocycles live on Z^k")
            packing = s.descriptor.packing(max(s.length, t.length))
            s, t = packing.key(s.data), packing.key(t.data)
        # the exponent s . Q t, read off the fields that Q's entries use
        mask, bias, entries = self._fields.get(packing) or self._on(packing)
        exp = 0
        for i, q, j in entries:
            exp += ((s >> i & mask) - bias) * q * ((t >> j & mask) - bias)
        power = self._powers.get(exp)
        if power is None:
            power = self._powers[exp] = self.lam ** exp
        return power

    def _meet(self, packing):
        # one dict read once packing has been met
        if packing not in self._fields:
            self._on(packing)

    def _on(self, packing):
        """The fields of keys of packing that the entries of Q read."""
        if packing.kind != "Z":
            raise ValueError("bicharacter cocycles live on Z^k")
        if len(self.Q) != packing.rank:
            raise ValueError("Q has wrong size")
        shifts, mask, bias = packing.fields
        fields = self._fields[packing] = (mask, bias, [
            (shifts[i], q, shifts[j]) for i, row in enumerate(self.Q)
            for j, q in enumerate(row) if q])
        return fields

    def __repr__(self):
        return f"BicharacterCocycle(lambda={self.lam!r}, Q={self.Q})"


class TableCocycle(Cocycle):
    """An explicit finite table (s, t) -> unit; defaults to 1 off the table.

    Used to express hand-built candidate cocycles, valid or not, so that
    cocycle_check has something to reject.  The table is a read-only copy;
    the cocycle keeps one copy keyed by the keys of each packing it meets.
    """

    keyed = True

    def __init__(self, ring, table):
        self.ring = ring
        self.table = MappingProxyType(dict(table))
        for value in self.table.values():
            if value.valuation != 0:
                raise ValueError("cocycle values must be units of V")
        self._keyed: dict[Packing, dict] = {}

    def value(self, s, t, packing=None):
        if packing is None:
            return self.table.get((s, t)) or self._one()
        table = self._keyed.get(packing)
        if table is None:
            table = self._keyed[packing] = self._by_key(packing)
        return table.get((s, t)) or self._one()

    def _by_key(self, packing):
        """The entries that can meet keys of packing, keyed by them: pairs
        of elements of its monoid of length <= its cap."""
        def fits(s):
            return (isinstance(s, MonoidElem) and s.length <= packing.cap
                    and (s.descriptor.kind, s.descriptor.rank)
                    == (packing.kind, packing.rank))

        key = packing.key
        return {(key(s.data), key(t.data)): x
                for (s, t), x in self.table.items() if fits(s) and fits(t)}


def cocycle_check(c: Cocycle, descriptor: MonoidDescriptor,
                  sample_count: int = 50, seed: int = 0) -> bool:
    """Test normalisation and the cocycle identity
    c(r, s t) c(s, t) = c(r s, t) c(r, s) on deterministically sampled
    triples of words of length at most 4."""
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    rng = random.Random(seed)
    one = descriptor.identity()
    ring_one = c.ring.one()
    for _ in range(sample_count):
        r, s, t = (descriptor.random_element(rng, 4) for _ in range(3))
        if c.value(r, one) != ring_one or c.value(one, r) != ring_one:
            return False
        lhs = c.value(r, compose(s, t)) * c.value(s, t)
        rhs = c.value(compose(r, s), t) * c.value(r, s)
        if lhs != rhs:
            return False
    return True
