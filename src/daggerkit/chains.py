"""Memoised left-to-right power chains.

A chain is x_0 = start(), x_1 = step(x_0), x_2 = step(x_1), ...: the
powers of one element, each built from the one before by the same product.
The order is fixed because the callers' answers depend on it: a twisted
series under a table that breaks the cocycle identity is not associative,
so ``((1 * x) * x) * x`` is never regrouped.

``link`` keeps the links x_1, x_2, ... of a chain on its owner (a lattice,
a cocycle or an affine action), in the owner's ``_chains`` attribute
(name -> (context, [x_1, x_2, ...])), so they are matched by the owner's
identity and go when the owner is collected.  An owner keeps one chain per
name.  A name holds plain integers (caps, exponents, coordinates) and is
matched by value.  The context holds the objects the chain is built with
(an algebra context, a ring, a monoid) and is matched by identity, because
equal lattices and descriptors can differ in their flags or in the
descriptor their results carry; a new context replaces the owner's chain
of that name.

A chain is read, never rebuilt, once it has a link: an owner whose values
change after it was used (a cocycle, say) gets the powers made under the
old values.  Owners must not change once they have been used.
"""

from __future__ import annotations

import operator


def link(owner, name, context: tuple, start, step, n: int):
    """x_n for n >= 0 of the chain start(), step(start()), ... that owner
    keeps under name for this context.

    x_0 is not kept (it may be the owner itself), so ``start`` runs only
    for n = 0 or when the chain is begun.  An owner of None keeps nothing
    and makes the n products afresh, holding only the last.
    """
    if owner is None:
        x = start()
        for _ in range(n):
            x = step(x)
        return x
    if n == 0:
        return start()
    held = getattr(owner, "_chains", None)
    if held is None:
        held = owner._chains = {}
    chain = held.get(name)
    if chain is None or any(map(operator.is_not, chain[0], context)):
        chain = held[name] = (context, [])
    links = chain[1]
    while len(links) < n:
        links.append(step(links[-1] if links else start()))
    return links[n - 1]
