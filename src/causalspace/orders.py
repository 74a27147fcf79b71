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
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
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
    n = len(events)
    for i in range(n):
        below[i] |= 1 << i
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = below[i]
            for j in iter_bitvec(below[i]):
                acc |= below[j]
            if acc != below[i]:
                below[i] = acc
                changed = True
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


def discrete_order(events: Iterable[Event]) -> CausalOrder:
    """The order relating no two distinct events."""
    evs = tuple(sorted(set(events)))
    return CausalOrder(evs, tuple(1 << i for i in range(len(evs))))


def indiscrete_order(events: Iterable[Event]) -> CausalOrder:
    """The order placing all events in indefinite causal order."""
    evs = tuple(sorted(set(events)))
    full = (1 << len(evs)) - 1
    return CausalOrder(evs, (full,) * len(evs))


def total_order(*groups: Iterable[Event] | Event) -> CausalOrder:
    """A chain of event groups, each group internally indefinite.

    ``total_order("A", "B")`` is the definite total order A before B;
    ``total_order("A", "BC")`` puts B and C in indefinite causal order
    after A.
    """
    norm: list[tuple[Event, ...]] = []
    for g in groups:
        members = (g,) if isinstance(g, str) and len(g) == 1 else tuple(g)
        norm.append(members)
    events = tuple(sorted(e for g in norm for e in g))
    if len(set(events)) != len(events):
        raise ValueError("Events must not be repeated across groups.")
    pos = {e: i for i, e in enumerate(events)}
    below = [0] * len(events)
    seen_mask = 0
    for g in norm:
        g_mask = bitvec(pos[e] for e in g)
        seen_mask |= g_mask
        for e in g:
            below[pos[e]] = seen_mask
    return CausalOrder(events, tuple(below))


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
    """Whether the causal relation is antisymmetric."""
    n = len(order.events)
    for i in range(n):
        for j in iter_bitvec(order.below[i]):
            if j != i and order.below[j] & (1 << i):
                return False
    return True


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
    if not set(a.events) <= set(b.events):
        return False
    for i, e in enumerate(a.events):
        for j in iter_bitvec(a.below[i]):
            if not b.leq(a.events[j], e):
                return False
    return True


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


def extend_order(order: CausalOrder, events: Iterable[Event]) -> CausalOrder:
    """Embeds an order into a larger event set, new events discrete."""
    evs = tuple(sorted(set(events) | set(order.events)))
    pos = {e: i for i, e in enumerate(evs)}
    below = [1 << i for i in range(len(evs))]
    for i, e in enumerate(order.events):
        mask = 0
        for j in iter_bitvec(order.below[i]):
            mask |= 1 << pos[order.events[j]]
        below[pos[e]] = mask
    return CausalOrder(evs, tuple(below))


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


def order_hierarchy(
    num_events: int,
) -> tuple[tuple[CausalOrder, ...], tuple[tuple[int, int], ...]]:
    """All causal orders on ``n`` events with their covering edges.

    Returns ``(orders, edges)`` where ``(i, j)`` in ``edges`` means
    ``orders[i] < orders[j]`` with no order strictly in between. The
    discrete order is the minimum and the indiscrete order the maximum.
    """
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


_TERM_RE = re.compile(r"\s*(total|discrete|indiscrete)\s*\(([^()]*)\)\s*$")


def parse_order(text: str) -> CausalOrder:
    """Parses an order literal; see the module docstring for the grammar."""
    terms = []
    for chunk in text.split("|"):
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"Invalid order term {chunk.strip()!r}.")
        kind, args = m.group(1), m.group(2)
        groups = _parse_groups(args)
        flat = [e for g in groups for e in g]
        if kind == "discrete":
            terms.append(discrete_order(flat))
        elif kind == "indiscrete":
            terms.append(indiscrete_order(flat))
        else:
            terms.append(total_order(*groups))
    events = sorted(set(e for t in terms for e in t.events))
    joined = extend_order(terms[0], events)
    for t in terms[1:]:
        joined = order_join(joined, extend_order(t, events))
    return joined


def _parse_groups(args: str) -> list[tuple[Event, ...]]:
    groups: list[tuple[Event, ...]] = []
    for part in re.findall(r"\{[^{}]*\}|\[[^\[\]]*\]|[A-Za-z]", args):
        if part[0] in "{[":
            members = tuple(
                e.strip().upper() for e in part[1:-1].split(",") if e.strip()
            )
            groups.append(members)
        else:
            groups.append((part.upper(),))
    if not groups:
        raise ValueError("Order term must name at least one event.")
    return groups


def format_order(order: CausalOrder) -> str:
    """Renders an order in the literal syntax accepted by ``parse_order``."""
    pos_of = {e: i for i, e in enumerate(order.events)}
    classes: list[tuple[Event, ...]] = []
    seen: set[Event] = set()
    for e in order.events:
        if e not in seen:
            cls = tuple(sorted(causal_eq_class(order, e)))
            classes.append(cls)
            seen.update(cls)
    comps = _related_components(order, classes)
    singles: list[Event] = []
    terms: list[str] = []
    for comp in comps:
        if len(comp) == 1 and len(comp[0]) == 1:
            singles.extend(comp[0])
            continue
        terms.extend(_format_component(order, comp, pos_of))
    if singles or not terms:
        terms.append("discrete(" + ",".join(sorted(singles)) + ")")
    return "|".join(terms)


def _related_components(
    order: CausalOrder, classes: list[tuple[Event, ...]]
) -> list[list[tuple[Event, ...]]]:
    index = {cls: i for i, cls in enumerate(classes)}
    parent = list(range(len(classes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in classes:
        for b in classes:
            if a is not b and (order.leq(a[0], b[0]) or order.leq(b[0], a[0])):
                parent[find(index[a])] = find(index[b])
    comps: dict[int, list[tuple[Event, ...]]] = {}
    for cls in classes:
        comps.setdefault(find(index[cls]), []).append(cls)
    return [comps[r] for r in sorted(comps, key=lambda r: classes[r][0])]


def _format_component(
    order: CausalOrder, comp: list[tuple[Event, ...]], pos_of: dict[Event, int]
) -> list[str]:
    def fmt_group(cls: tuple[Event, ...]) -> str:
        return cls[0] if len(cls) == 1 else "{" + ",".join(cls) + "}"

    chain = sorted(comp, key=lambda cls: sum(order.leq(o[0], cls[0]) for o in comp))
    is_chain = all(
        order.leq(chain[i][0], chain[i + 1][0]) for i in range(len(chain) - 1)
    )
    if is_chain:
        if len(chain) == 1:
            return ["indiscrete(" + ",".join(chain[0]) + ")"]
        return ["total(" + ",".join(fmt_group(c) for c in chain) + ")"]
    # fall back to one total(...) term per covering pair of classes
    terms = []
    for a in comp:
        for b in comp:
            if a is b or not order.leq(a[0], b[0]):
                continue
            if any(
                c is not a and c is not b and order.leq(a[0], c[0]) and order.leq(c[0], b[0])
                for c in comp
            ):
                continue
            terms.append(f"total({fmt_group(a)},{fmt_group(b)})")
    return sorted(terms)
