"""Finite-precision regression gallery.

Two classical pathologies of truncated quotients and maps, replayed as
checkable computations:

* ``nonseparated``: in V[x]/(1 - pi^n x^n : n <= D) the class of 1 is
  divisible by pi^m for every m <= D while [1] itself is nonzero, so the
  quotient cannot be separated.
* ``nonclosed-image``: the coefficient rescaling x^n |-> pi^n x^n maps the
  non-Cauchy partial sums p_n = 1 + x + ... + x^n to a Cauchy sequence,
  exhibiting a non-closed image: consecutive image gaps have valuation
  n + 1 while the preimage gaps stay at valuation 0.
"""

from __future__ import annotations

from .ring import RingDescriptor

GALLERY_NAMES = ("nonseparated", "nonclosed-image")


class CapTooSmall(ValueError):
    """The gallery needs a degree cap of at least 2."""


def nonseparated_presentation(ring: RingDescriptor,
                              cap: int) -> ModulePresentation:
    """V[x] truncated at degree cap, with one relation 1 - pi^n x^n per
    1 <= n <= cap."""
    from .linalg import MatrixV, ModulePresentation
    cols = []
    for n in range(1, cap + 1):
        col = [ring.zero()] * (cap + 1)
        col[0] = ring.one()
        col[n] = -ring.pi(n)
        cols.append(col)
    mat = MatrixV(ring, [[c[i] for c in cols] for i in range(cap + 1)])
    return ModulePresentation(ring, cap + 1, mat)


def run_nonseparated(ring: RingDescriptor, cap: int) -> dict:
    if cap < 2:
        raise CapTooSmall("nonseparated gallery needs cap >= 2")
    if ring.precision <= cap:
        raise CapTooSmall("precision must exceed the cap for the "
                          "nonzero check to be meaningful")
    P = nonseparated_presentation(ring, cap)
    one = [ring.one()] + [ring.zero()] * cap
    divisible = {m: P.quotient_divisibility(one, m)
                 for m in range(1, cap + 1)}
    one_is_zero = P.quotient_is_zero(one)
    passed = all(divisible.values()) and not one_is_zero
    return {
        "name": "nonseparated",
        "cap": cap,
        "divisible_by_pi_m": {str(m): v for m, v in divisible.items()},
        "class_of_one_is_zero": one_is_zero,
        "pass": passed,
    }


def run_nonclosed_image(ring: RingDescriptor, cap: int) -> dict:
    from .monoid import MonoidDescriptor
    from .series import DaggerSeries, add_scale
    if cap < 2:
        raise CapTooSmall("nonclosed-image gallery needs cap >= 2")
    monoid = MonoidDescriptor("N", 1)

    def partial_sum(n):
        return DaggerSeries(ring, monoid,
                            {monoid.element((j,)): ring.one()
                             for j in range(n + 1)}, cap)

    def rescale(series):
        terms = {s: x.scaled_by_pi(s.length) for s, x in series.terms.items()}
        return DaggerSeries(ring, monoid, terms, cap)

    gaps = []
    ok = True
    for n in range(cap):
        p_n, p_next = partial_sum(n), partial_sum(n + 1)
        diff = add_scale(p_next, p_n, -ring.one())
        image_diff = add_scale(rescale(p_next), rescale(p_n), -ring.one())
        source_val = min(x.valuation for x in diff.terms.values())
        image_val = min(x.valuation for x in image_diff.terms.values())
        gaps.append({"n": n, "source_gap_valuation": source_val,
                     "image_gap_valuation": image_val})
        ok = ok and source_val == 0 and image_val == n + 1
    return {
        "name": "nonclosed-image",
        "cap": cap,
        "gaps": gaps,
        "pass": ok,
    }


def run(name: str, ring: RingDescriptor, cap: int) -> dict:
    if name == "nonseparated":
        return run_nonseparated(ring, cap)
    if name == "nonclosed-image":
        return run_nonclosed_image(ring, cap)
    raise ValueError(f"unknown gallery entry {name!r}; "
                     f"choose from {GALLERY_NAMES}")
