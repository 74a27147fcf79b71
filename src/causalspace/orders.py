"""Causal orders: preorders on events, their lattice, and induced spaces.

A causal order is a preorder (reflexive, transitive relation) on a finite
set of events; it is definite when the relation is antisymmetric. Orders are
stored as per-event bitmasks of the events below them, so containment and
closure computations are plain integer arithmetic. The text syntax accepted
by :func:`parse_order` is::

    expr     := term ("|" term)*          joins, e.g. "total(A,B)|discrete(C)"
    term     := kind "(" args ")"
    kind     := "total" | "discrete" | "indiscrete"
    args     := group ("," group)*
    group    := EVENT | "{" EVENT ("," EVENT)* "}"

``total`` chains its argument groups (events within a braced group are in
indefinite causal order, as in ``total(A,{B,C})``); ``discrete`` relates no
events; ``indiscrete`` relates all of them. Terms over different event sets
are joined over the union, with missing events treated as discrete.
Events are single letters, read case-insensitively, and whitespace may
surround any token. Anything else raises ``ValueError``.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product

from .encoding import (
    Event,
    HistorySet,
    bitvec,
    idx_to_event,
    is_subset,
    iter_bitvec,
    total_assignments,
)


class CausalRelation(Enum):
    """How two distinct events relate under a causal order."""

    PRECEDES = "precedes"
    SUCCEEDS = "succeeds"
    UNRELATED = "unrelated"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class CausalOrder:
    """A preorder on a finite set of events.

    ``below[i]`` is the bitmask of positions ``j`` with
    ``events[j] <= events[i]``; the relation is reflexive and transitive by
    construction.
    """

    events: tuple[Event, ...]
    below: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.events))) != self.events:
            raise ValueError("Events must be sorted and not repeated.")
        if any(not self.below[i] & (1 << i) for i in range(len(self.events))):
            raise ValueError("Causal relation must be reflexive.")
        if not _is_transitive(self.below):
            raise ValueError("Causal relation must be transitive.")

    def index(self, e: Event) -> int:
        return self.events.index(e)

    def leq(self, a: Event, b: Event) -> bool:
        """Whether ``a`` causally precedes-or-equals ``b``."""
        return bool(self.below[self.index(b)] & (1 << self.index(a)))

    def __str__(self) -> str:
        return format_order(self)


def _closure(events: tuple[Event, ...], below: list[int]) -> CausalOrder:
    """The reflexive and transitive closure of ``below`` (Warshall)."""
    below = [m | 1 << i for i, m in enumerate(below)]
    for k in range(len(below)):
        for i, m in enumerate(below):
            if m >> k & 1:
                below[i] = m | below[k]
    return CausalOrder(events, tuple(below))


def order_from_pairs(
    events: Iterable[Event], pairs: Iterable[tuple[Event, Event]]
) -> CausalOrder:
    """The smallest causal order on ``events`` with ``a <= b`` per pair."""
    evs = tuple(sorted(set(events)))
    pos = {e: i for i, e in enumerate(evs)}
    below = [0] * len(evs)
    for a, b in pairs:
        below[pos[b]] |= 1 << pos[a]
    return _closure(evs, below)


def _chain_pairs(groups: Sequence[Collection[Event]]) -> list[tuple[Event, Event]]:
    """``(a, b)`` for each ``a`` in a group and ``b`` in it or a later one."""
    events = [e for g in groups for e in g]
    if len(set(events)) != len(events):
        raise ValueError("Events must not be repeated across groups.")
    return [
        (a, b) for i, g in enumerate(groups) for h in groups[i:] for a in g for b in h
    ]


def discrete_order(events: Iterable[Event]) -> CausalOrder:
    """The order relating no two distinct events."""
    return order_from_pairs(events, ())


def indiscrete_order(events: Iterable[Event]) -> CausalOrder:
    """The order placing all events in indefinite causal order."""
    evs = set(events)
    return order_from_pairs(evs, _chain_pairs([evs]))


def total_order(*groups: Iterable[Event]) -> CausalOrder:
    """A chain of event groups, each group internally indefinite.

    ``total_order("A", "B")`` is the definite total order A before B;
    ``total_order("A", "BC")`` puts B and C in indefinite causal order
    after A.
    """
    norm = [tuple(g) for g in groups]
    return order_from_pairs((e for g in norm for e in g), _chain_pairs(norm))


def classify(order: CausalOrder, a: Event, b: Event) -> CausalRelation:
    """The causal relationship between two distinct events."""
    if a == b:
        raise ValueError("Events must be distinct.")
    ab, ba = order.leq(a, b), order.leq(b, a)
    if ab and ba:
        return CausalRelation.INDEFINITE
    if ab:
        return CausalRelation.PRECEDES
    if ba:
        return CausalRelation.SUCCEEDS
    return CausalRelation.UNRELATED


def causal_past(order: CausalOrder, e: Event) -> frozenset[Event]:
    """All events at or before ``e``."""
    mask = order.below[order.index(e)]
    return frozenset(order.events[i] for i in iter_bitvec(mask))


def causal_future(order: CausalOrder, e: Event) -> frozenset[Event]:
    """All events at or after ``e``."""
    i = order.index(e)
    return frozenset(
        order.events[j] for j in range(len(order.events)) if order.below[j] & (1 << i)
    )


def causal_eq_class(order: CausalOrder, e: Event) -> frozenset[Event]:
    """All events both at-or-before and at-or-after ``e``."""
    return causal_past(order, e) & causal_future(order, e)


def is_definite(order: CausalOrder) -> bool:
    """Whether the causal relation is antisymmetric.

    Two events have the same ``below`` mask iff each is below the other.
    """
    return len(set(order.below)) == len(order.below)


def lowerset_masks(order: CausalOrder) -> tuple[int, ...]:
    """Bitmasks of all downward-closed event subsets, smallest first."""
    n = len(order.events)
    out = []
    for mask in range(1 << n):
        if all(is_subset(order.below[i], mask) for i in iter_bitvec(mask)):
            out.append(mask)
    return tuple(sorted(out, key=lambda m: (m.bit_count(), m)))


def lowersets(order: CausalOrder) -> tuple[frozenset[Event], ...]:
    """All downward-closed subsets of events, including the empty set."""
    return tuple(
        frozenset(order.events[i] for i in iter_bitvec(mask))
        for mask in lowerset_masks(order)
    )


def order_leq(a: CausalOrder, b: CausalOrder) -> bool:
    """Whether ``a`` imposes at least the causal constraints of ``b``.

    Holds iff the events of ``a`` are contained in those of ``b`` and the
    causal relation of ``a`` is contained in that of ``b``.
    """
    if a.events != b.events:
        if not set(a.events) <= set(b.events):
            return False
        pairs = (
            (a.events[j], e) for e, m in zip(a.events, a.below) for j in iter_bitvec(m)
        )
        a = order_from_pairs(b.events, pairs)
    return all(x == x & y for x, y in zip(a.below, b.below))


def _require_same_events(a: CausalOrder, b: CausalOrder) -> None:
    if a.events != b.events:
        raise ValueError("Orders must share the same event set.")


def order_join(a: CausalOrder, b: CausalOrder) -> CausalOrder:
    """Least upper bound: transitive closure of the union of relations."""
    _require_same_events(a, b)
    below = [ma | mb for ma, mb in zip(a.below, b.below)]
    return _closure(a.events, below)


def order_meet(a: CausalOrder, b: CausalOrder) -> CausalOrder:
    """Greatest lower bound: intersection of relations."""
    _require_same_events(a, b)
    below = tuple(ma & mb for ma, mb in zip(a.below, b.below))
    return CausalOrder(a.events, below)


@lru_cache(maxsize=None)
def hist_space(order: CausalOrder) -> HistorySet:
    """The input histories induced by an order.

    One history per event and per total assignment on that event's causal
    past; always a valid (join-prime) space of input histories.
    """
    members: set[int] = set()
    for e in order.events:
        members.update(total_assignments(causal_past(order, e)))
    return bitvec(members)


@lru_cache(maxsize=None)
def ext_hist_space(order: CausalOrder) -> HistorySet:
    """The extended input histories induced by an order.

    All total assignments on each non-empty lowerset.
    """
    members: set[int] = set()
    for mask in lowerset_masks(order):
        if mask == 0:
            continue
        members.update(
            total_assignments(order.events[i] for i in iter_bitvec(mask))
        )
    return bitvec(members)


@lru_cache(maxsize=None)
def all_orders(num_events: int) -> tuple[CausalOrder, ...]:
    """All causal orders on the first ``num_events`` events.

    Brute-force enumeration over relation candidates; meant for small
    event counts (at 4 events there are 4096 candidates).
    """
    events = tuple(idx_to_event(i) for i in range(num_events))
    n = num_events
    free_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for combo in product((0, 1), repeat=len(free_pairs)):
        below = [1 << i for i in range(n)]
        for (i, j), bit in zip(free_pairs, combo):
            if bit:
                below[j] |= 1 << i
        if _is_transitive(below):
            found.append(CausalOrder(events, tuple(below)))
    return tuple(found)


def _is_transitive(below: Sequence[int]) -> bool:
    for i in range(len(below)):
        for j in iter_bitvec(below[i]):
            if not is_subset(below[j], below[i]):
                return False
    return True


# all_orders(5) alone takes seconds (6,942 orders), and the inclusion matrix
# and covering scan over them would take minutes.
MAX_ORDER_HIERARCHY_EVENTS = 4


def order_hierarchy(
    num_events: int,
) -> tuple[tuple[CausalOrder, ...], tuple[tuple[int, int], ...]]:
    """All causal orders on ``n`` events with their covering edges.

    Returns ``(orders, edges)`` where ``(i, j)`` in ``edges`` means
    ``orders[i] < orders[j]`` with no order strictly in between. The
    discrete order is the minimum and the indiscrete order the maximum.
    Raises ``ValueError`` beyond ``MAX_ORDER_HIERARCHY_EVENTS`` events.
    """
    if num_events > MAX_ORDER_HIERARCHY_EVENTS:
        raise ValueError(
            f"The order hierarchy is built for at most {MAX_ORDER_HIERARCHY_EVENTS}"
            f" events, not {num_events}."
        )
    orders = all_orders(num_events)
    n = len(orders)
    lt = [
        [a != b and order_leq(a, b) for b in orders]
        for a in orders
    ]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))
    ]
    return orders, tuple(edges)


_TERM_RE = re.compile(r"\s*(total|discrete|indiscrete)\s*\(([^()]*)\)\s*")
_EVENT = r"\s*[A-Za-z]\s*"
_GROUP = rf"(?:{_EVENT}|\s*\{{{_EVENT}(?:,{_EVENT})*\}}\s*)"
_ARGS_RE = re.compile(rf"{_GROUP}(?:,{_GROUP})*")


def parse_order(text: str) -> CausalOrder:
    """Parses an order literal; see the module docstring for the grammar."""
    events: set[Event] = set()
    pairs: list[tuple[Event, Event]] = []
    for chunk in text.split("|"):
        m = _TERM_RE.fullmatch(chunk)
        if m is None:
            raise ValueError(f"Invalid order term {chunk.strip()!r}.")
        kind, args = m.groups()
        if _ARGS_RE.fullmatch(args) is None:
            raise ValueError(
                f"Invalid arguments {args!r} in order term {chunk.strip()!r}."
            )
        parts = re.findall(r"\{[^}]*\}|[A-Z]", args.upper())
        groups = [re.findall("[A-Z]", part) for part in parts]
        flat = {e for g in groups for e in g}
        events |= flat
        if kind == "total":
            pairs += _chain_pairs(groups)
        elif kind == "indiscrete":
            pairs += _chain_pairs([flat])
    return order_from_pairs(events, pairs)


def format_order(order: CausalOrder) -> str:
    """Renders an order in the literal syntax accepted by ``parse_order``.

    Each comparability component that relates two events is one term:
    ``indiscrete`` for a single class of equivalent events, ``total`` for a
    chain of classes, else one ``total`` per covering pair of classes.
    Components come in the order of their last class's first event, and
    events related to no other event close the literal in one ``discrete``.
    Raises ``ValueError`` for an order on no events, which has no literal.
    """
    events, below, n = order.events, order.below, len(order.events)
    if not n:
        raise ValueError("An order literal names at least one event.")
    above = [bitvec(j for j in range(n) if below[j] >> i & 1) for i in range(n)]
    related = [b | a for b, a in zip(below, above)]
    # the first event of each equivalence class below[i] & above[i]
    firsts = bitvec(
        i for i, (b, a) in enumerate(zip(below, above)) if not b & a & ((1 << i) - 1)
    )

    def names(mask: int) -> str:
        return ",".join(events[i] for i in iter_bitvec(mask))

    def group(i: int) -> str:
        cls = below[i] & above[i]
        return names(cls) if cls & (cls - 1) == 0 else "{" + names(cls) + "}"

    comps = []
    rest = (1 << n) - 1
    while rest:
        comp, grown = 0, rest & -rest
        while grown != comp:
            comp = grown
            for i in iter_bitvec(comp):
                grown |= related[i]
        comps.append(comp)
        rest &= ~comp
    singles, terms = 0, []
    for comp in sorted(comps, key=lambda c: (c & firsts).bit_length()):
        classes = list(iter_bitvec(comp & firsts))
        if comp & (comp - 1) == 0:
            singles |= comp
        elif len(classes) == 1:
            terms.append("indiscrete(" + names(comp) + ")")
        elif all(related[i] == comp for i in classes):
            chain = sorted(classes, key=lambda i: (below[i] & firsts).bit_count())
            terms.append("total(" + ",".join(map(group, chain)) + ")")
        else:
            # one total(a,b) per class a < b with no event strictly between
            terms += sorted(
                f"total({group(a)},{group(b)})"
                for b in classes
                for a in iter_bitvec(below[b] & ~above[b] & firsts)
                if not above[a] & ~below[a] & below[b] & ~above[b]
            )
    if singles:
        terms.append("discrete(" + names(singles) + ")")
    return "|".join(terms)
