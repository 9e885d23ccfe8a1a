"""Memoised left-to-right power chains.

A chain is x_0 = start(), x_1 = step(x_0), x_2 = step(x_1), ...: the
powers of one element, each built from the one before by the same product.
The order is fixed because the callers' answers depend on it: a twisted
series under a table that breaks the cocycle identity is not associative,
so ``((1 * x) * x) * x`` is never regrouped.

``link`` keeps the links x_1, x_2, ... of a chain on its owner (a lattice,
a cocycle or an affine action), in the owner's ``_chains`` attribute
(name -> (context, [x_1, x_2, ...], factor)), so they go when the owner is
collected.  A name holds plain integers and is matched by value; the
context holds the objects the chain is built with (an algebra context, a
ring, a monoid) and is matched by identity, because equal lattices and
descriptors can differ in their flags or in the descriptor their results
carry, and a new context replaces the chain.  The factor a step multiplies
by (a torus generator, a substituted line) is made once per chain; it must
not refer to the owner, which would then outlive its last use.  A link
already built costs one dict read and an identity test per entry of the
context (``held``).  A chain is read, never rebuilt, so owners must not
change once they have been used.
"""

from __future__ import annotations

_NONE: dict = {}


def held(owner, name, context: tuple, n: int):
    """x_n if owner keeps it under name for this context, else None.  A hit
    costs one dict read and an identity test per entry of the context."""
    chain = getattr(owner, "_chains", _NONE).get(name)
    if chain is None:
        return None
    kept, links, _ = chain
    if not 0 < n <= len(links) or len(kept) != len(context):
        return None
    i = 0  # an index loop: zip or map(operator.is_not) cost more per hit
    for x in context:
        if x is not kept[i]:
            return None
        i += 1
    return links[n - 1]


def link(owner, name, context: tuple, start, step, n: int, factor=None):
    """x_n for n >= 0 of the chain start(), step(start()), ... that owner
    keeps under name for this context; with a ``factor``, each step is
    step(x, g) for the chain's g = factor().  x_0 is not kept (it may be
    the owner), so ``start`` runs only for n = 0 or when the chain is
    begun.  An owner of None keeps nothing."""
    x = held(owner, name, context, n)
    if x is not None:
        return x
    if n == 0:
        return start()
    chains = {} if owner is None else getattr(owner, "_chains", None)
    if chains is None:
        chains = owner._chains = {}
    chain = chains.get(name)
    # a chain under another context, or with no link yet, is begun anew
    if chain is None or held(owner, name, context, 1) is None:
        chain = chains[name] = (context, [], factor and factor())
    links, g = chain[1], chain[2]
    while len(links) < n:
        x = links[-1] if links else start()
        links.append(step(x) if factor is None else step(x, g))
    return links[n - 1]
