"""Finitely generated monoids with word lengths, and unit-valued 2-cocycles.

Three monoid kinds are supported, each with its canonical generating set
and the word length it induces: N^k (generators e_i, length = sum of
exponents), Z^k (generators +-e_i, length = sum of absolute exponents) and
the free monoid on a finite alphabet (length = word length).
"""

from __future__ import annotations

import random
from types import MappingProxyType

from .ring import ScalarElem


class MonoidDescriptor:
    """Kind ("N", "Z" or "free") plus rank (or alphabet size)."""

    __slots__ = ("kind", "rank")

    _ALPHABET = "abcdefghijklmnopqrstuvwxyz"

    def __init__(self, kind: str, rank: int):
        if kind not in ("N", "Z", "free"):
            raise ValueError(f"unknown monoid kind {kind!r}")
        if rank < 1 or (kind == "free" and rank > 26):
            raise ValueError("rank out of range")
        self.kind = kind
        self.rank = rank

    def __eq__(self, other):
        return (isinstance(other, MonoidDescriptor)
                and (self.kind, self.rank) == (other.kind, other.rank))

    def __hash__(self):
        return hash((self.kind, self.rank))

    def __repr__(self):
        return f"MonoidDescriptor({self.kind}, rank={self.rank})"

    def identity(self) -> "MonoidElem":
        if self.kind == "free":
            return MonoidElem(self, "")
        return MonoidElem(self, (0,) * self.rank)

    def element(self, data) -> "MonoidElem":
        return MonoidElem(self, tuple(data) if self.kind != "free" else data)

    def generators(self):
        if self.kind == "free":
            return [MonoidElem(self, self._ALPHABET[i])
                    for i in range(self.rank)]
        out = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            out.append(MonoidElem(self, tuple(e)))
            if self.kind == "Z":
                e = [0] * self.rank
                e[i] = -1
                out.append(MonoidElem(self, tuple(e)))
        return out

    def elements_up_to_length(self, bound: int):
        """All elements s with word length l(s) <= bound (N^k and Z^k only)."""
        if self.kind == "free":
            raise ValueError("free monoids are enumerated by words")
        out = []

        def rec(prefix, remaining):
            if len(prefix) == self.rank:
                out.append(MonoidElem(self, tuple(prefix)))
                return
            lo = -remaining if self.kind == "Z" else 0
            for c in range(lo, remaining + 1):
                rec(prefix + [c], remaining - abs(c))

        rec([], bound)
        return out

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


class MonoidElem:
    """An exponent vector (N^k, Z^k) or word (free), with cached length."""

    __slots__ = ("descriptor", "data", "length")

    def __init__(self, descriptor: MonoidDescriptor, data):
        self.descriptor = descriptor
        if descriptor.kind == "free":
            if not isinstance(data, str):
                raise ValueError("free monoid elements are words")
            self.data = data
            self.length = len(data)
        else:
            data = tuple(int(c) for c in data)
            if len(data) != descriptor.rank:
                raise ValueError("exponent vector has wrong rank")
            if descriptor.kind == "N" and any(c < 0 for c in data):
                raise ValueError("N^k exponents must be nonnegative")
            self.data = data
            self.length = sum(abs(c) for c in data)

    @property
    def is_identity(self) -> bool:
        return self.length == 0

    def __eq__(self, other):
        return (isinstance(other, MonoidElem)
                and self.descriptor == other.descriptor
                and self.data == other.data)

    def __hash__(self):
        return hash((self.descriptor, self.data))

    def __repr__(self):
        return f"<{self.data!r}>"


def compose(s: MonoidElem, t: MonoidElem) -> MonoidElem:
    """Monoid product; for exponent vectors this is componentwise addition."""
    if s.descriptor != t.descriptor:
        raise ValueError("monoid descriptor mismatch")
    if s.descriptor.kind == "free":
        return MonoidElem(s.descriptor, s.data + t.data)
    return MonoidElem(s.descriptor,
                      tuple(a + b for a, b in zip(s.data, t.data)))


def length_ge1(s: MonoidElem) -> int:
    """Word length clamped below by 1: the identity counts as one factor."""
    return max(s.length, 1)


class Cocycle:
    """Base class; value(s, t) must return a unit of V.

    ``torus_monomial`` keeps the powers it makes on the cocycle, so a
    cocycle must not change once it has been used.
    """

    def value(self, s: MonoidElem, t: MonoidElem) -> ScalarElem:
        raise NotImplementedError


class TrivialCocycle(Cocycle):
    def __init__(self, ring):
        self.ring = ring

    def value(self, s, t):
        return self.ring.one()

    def __repr__(self):
        return "TrivialCocycle()"


class BicharacterCocycle(Cocycle):
    """c(s, t) = lambda^(s . Q t) on Z^k for an integer matrix Q.

    Bilinearity of the exponent makes the cocycle identity automatic, and
    c(s, 1) = c(1, s) = 1 since the exponent vanishes.
    """

    def __init__(self, lam: ScalarElem, Q):
        if lam.valuation != 0:
            raise ValueError("cocycle values must be units of V")
        self.lam = lam
        self.ring = lam.ring
        self.Q = tuple(tuple(int(x) for x in row) for row in Q)

    def value(self, s, t):
        if s.descriptor.kind != "Z" or s.descriptor != t.descriptor:
            raise ValueError("bicharacter cocycles live on Z^k")
        k = s.descriptor.rank
        if len(self.Q) != k:
            raise ValueError("Q has wrong size")
        exp = 0
        for i in range(k):
            if s.data[i]:
                for j in range(k):
                    exp += s.data[i] * self.Q[i][j] * t.data[j]
        return self.lam ** exp

    def __repr__(self):
        return f"BicharacterCocycle(lambda={self.lam!r}, Q={self.Q})"


class TableCocycle(Cocycle):
    """An explicit finite table (s, t) -> unit; defaults to 1 off the table.

    Used to express hand-built candidate cocycles, valid or not, so that
    cocycle_check has something to reject.  The table is a read-only copy.
    """

    def __init__(self, ring, table):
        self.ring = ring
        self.table = MappingProxyType(dict(table))
        for value in self.table.values():
            if value.valuation != 0:
                raise ValueError("cocycle values must be units of V")

    def value(self, s, t):
        return self.table.get((s, t), self.ring.one())


def cocycle_check(c: Cocycle, descriptor: MonoidDescriptor,
                  sample_count: int = 50, seed: int = 0,
                  max_length: int = 4) -> bool:
    """Test normalisation and the cocycle identity
    c(r, s t) c(s, t) = c(r s, t) c(r, s) on deterministically sampled
    triples."""
    rng = random.Random(seed)
    one = descriptor.identity()
    ring_one = c.ring.one()
    for _ in range(sample_count):
        r = descriptor.random_element(rng, max_length)
        s = descriptor.random_element(rng, max_length)
        t = descriptor.random_element(rng, max_length)
        if c.value(r, one) != ring_one or c.value(one, r) != ring_one:
            return False
        lhs = c.value(r, compose(s, t)) * c.value(s, t)
        rhs = c.value(compose(r, s), t) * c.value(r, s)
        if lhs != rhs:
            return False
    return True
