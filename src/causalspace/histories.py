"""The restriction semilattice of histories.

Histories are partial functions from events to binary inputs, ordered by
restriction. In the bit encoding the order-theoretic operations collapse to
plain bitwise arithmetic: restriction is the subset relation on item bits,
the meet is bitwise AND, and the join of a compatible family is bitwise OR.
A bitvector is a valid history exactly when no event carries both of its
item bits, which also makes compatibility a constant-time check.
"""

from __future__ import annotations

from collections.abc import Iterable

from .encoding import _EVENT_BITS, History, is_subset


def restriction_leq(f: History, g: History) -> bool:
    """Whether ``f`` is a restriction of ``g``."""
    return is_subset(f, g)


def meet(f: History, g: History) -> History:
    """The largest common restriction of two histories."""
    return f & g


def compatible(f: History, g: History) -> bool:
    """Whether two histories agree on their common domain."""
    u = f | g
    return not (u & (u >> 1) & _EVENT_BITS)


def compatible_set(fs: Iterable[History]) -> bool:
    """Whether a set of histories is pairwise compatible.

    Equivalent to the validity of the union of all items: with binary
    inputs, any double assignment arising from some pair survives in the
    full union.
    """
    u = 0
    for f in fs:
        u |= f
    return not (u & (u >> 1) & _EVENT_BITS)


def join(fs: Iterable[History]) -> History:
    """The union of a compatible set of histories.

    Raises :class:`ValueError` if the set is incompatible.
    """
    u = 0
    for f in fs:
        u |= f
    if u & (u >> 1) & _EVENT_BITS:
        raise ValueError("Cannot join an incompatible set of histories.")
    return u
