"""Catalogue analyses: causal functions, the condensed hierarchy, reports.

Given the equivalence classes produced by the enumerator, this module
computes per-class metadata (causal-function counts, tightness, induced
orders, causaltope dimensions), the covering structure of the refinement
order condensed by symmetry, and per-class report records with JSON and
DOT exports. A hierarchy's catalogue (class ids, orbits, join-closures) is
built up front as ``PermTable`` dense ints. Each class's facts are computed
when first read and memoised, so a one-class query analyses only that class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Optional

from . import causaltope as ct
from .encoding import (
    Event,
    History,
    HistorySet,
    format_history,
    history_items,
    history_sort_key,
    hset_members,
    is_subset,
    iter_bitvec,
)
from .orders import (
    CausalOrder,
    all_orders,
    causal_past,
    ext_hist_space,
    format_order,
    hist_space,
    is_definite,
    order_leq,
)
from .spaces import (
    Space,
    _determination,
    _frontier,
    _load_class_table,
    determination_classes,
    ext,
    ext_hset,
    prime_hset,
    tightness,
)
from .symmetry import perm_table

MAX_FUNCTION_EVENTS = 3
# explicit causal-function tables are 2**n entries of n bits each; counting
# and novelty work on packed integers and stay cheap through n = 4


def count_causal_functions(space: Space) -> int:
    """Number of causal functions: one free output bit per class."""
    return 1 << len(determination_classes(space))


def causal_function_set(space: Space) -> frozenset[int]:
    """All causal functions of a space, as packed output tables."""
    tables = [0]
    for _, mask in _determination(space):
        tables += [t | mask for t in tables]
    return frozenset(tables)


@dataclass(frozen=True)
class CausalFunction:
    """A deterministic assignment of joint outputs to joint inputs.

    ``table[i]`` is the joint output index for joint input index ``i``,
    both read with the first event's bit most significant.
    """

    num_events: int
    table: tuple[int, ...]

    @classmethod
    def from_packed(cls, packed: int, num_events: int) -> "CausalFunction":
        n = num_events
        out_mask = (1 << n) - 1
        return cls(n, tuple((packed >> (i * n)) & out_mask for i in range(1 << n)))


def enumerate_causal_functions(space: Space) -> tuple[CausalFunction, ...]:
    """Explicit function tables, one per free assignment of class bits."""
    n = space.event_count
    if n > MAX_FUNCTION_EVENTS:
        raise ValueError(
            f"Explicit function tables supported up to {MAX_FUNCTION_EVENTS} events."
        )
    return tuple(
        CausalFunction.from_packed(t, n) for t in sorted(causal_function_set(space))
    )


def novel_causal_functions(space: Space, refinements: Iterable[Space]) -> int:
    """Count of causal functions not causal for any given refinement."""
    own = causal_function_set(space)
    seen: set[int] = set()
    for r in refinements:
        seen |= causal_function_set(r)
    return len(own - seen)


# per-class facts, computed on first read by the function that sets them
_SYSTEM_FACTS = frozenset((
    "num_equations", "num_independent_equations", "causaltope_dim",
    "causal_function_count",
))
_CLASS_FACTS = frozenset((
    "closest_refinements", "closest_coarsenings", "is_tight", "identifications",
    "induced_by_order", "closest_order_coarsenings", "novel_causal_function_count",
    "is_join_of_refinements", "is_meet_of_coarsenings",
    "causaltope_dim_of_coarsening_meet",
))


@dataclass
class HierarchyNode:
    """Per-class record of the condensed hierarchy.

    The fields are the catalogue entry; the facts in ``_SYSTEM_FACTS`` and
    ``_CLASS_FACTS`` are computed on first read and memoised on the node.
    """

    class_id: int
    representative: HistorySet
    key: int  # the representative's dense int
    canonical: HistorySet
    orbit_size: int
    hierarchy: "Hierarchy" = field(repr=False, compare=False)

    def __getattr__(self, name: str):
        # reached only for attributes not set yet
        if name in _SYSTEM_FACTS:
            _system_facts(self)
        elif name in _CLASS_FACTS:
            _analyse(self)
        else:
            raise AttributeError(name)
        return self.__dict__[name]


@dataclass
class Hierarchy:
    """The condensed refinement hierarchy of causally complete spaces.

    Spaces and join-closures are dense ``PermTable`` ints; the history-set
    views ``class_of_space`` and ``ext_of_space`` are built on first read.
    """

    num_events: int
    nodes: dict[int, HierarchyNode]  # in increasing class id order
    class_of_key: dict[int, int]
    # the join-closure of every space, the spaces in increasing order
    ext_of_key: dict[int, int]

    @cached_property
    def class_of_space(self) -> dict[HistorySet, int]:
        sparse = perm_table(self.num_events).sparse
        return {sparse(k): c for k, c in self.class_of_key.items()}

    @cached_property
    def ext_of_space(self) -> dict[HistorySet, HistorySet]:
        sparse = perm_table(self.num_events).sparse
        return {sparse(k): sparse(e) for k, e in self.ext_of_key.items()}

    @property
    def minima(self) -> tuple[int, ...]:
        return tuple(i for i, n in self.nodes.items() if not n.closest_refinements)

    @property
    def maxima(self) -> tuple[int, ...]:
        return tuple(i for i, n in self.nodes.items() if not n.closest_coarsenings)


def _dense_images(num_events: int, s: HistorySet) -> list[int]:
    """The dense ints of the images of a history set, the identity's first."""
    keys = perm_table(num_events).dense_images(iter_bitvec(s))
    return [int.from_bytes(k, "big") for k in keys]


def classify_order_relation(
    space: Space,
) -> tuple[Optional[CausalOrder], tuple[CausalOrder, ...]]:
    """Order provenance of a space.

    Returns the order inducing the space exactly (or ``None``), together
    with the minimal definite orders whose induced space the given space
    refines.
    """
    evs = tuple(sorted(space.events))
    induced = None
    coarsenings = []
    space_ext = ext(space)
    for order in _orders_on(evs):
        if hist_space(order) == space.histories:
            induced = order
        if is_definite(order) and is_subset(ext_hist_space(order), space_ext):
            coarsenings.append(order)
    minimal = tuple(
        o
        for o in coarsenings
        if not any(p != o and order_leq(p, o) for p in coarsenings)
    )
    return induced, minimal


def _orders_on(events: tuple[Event, ...]) -> tuple[CausalOrder, ...]:
    base = all_orders(len(events))
    if tuple(sorted(events)) == base[0].events:
        return base
    return tuple(CausalOrder(tuple(sorted(events)), o.below) for o in base)


@dataclass(frozen=True)
class OrderDifference:
    """One group of extra histories relative to an order-induced space."""

    events: tuple[Event, ...]
    freed_events: tuple[Event, ...]
    assignments: tuple[History, ...]


def diff_from_order(space: Space, order: CausalOrder) -> tuple[OrderDifference, ...]:
    """Extended histories of a space absent from an order's space.

    Grouped by domain; each group states that the outputs on its domain
    are independent of the inputs at the remaining events of the domain's
    order-pasts, for the listed assignments. Requires the space to refine
    the space induced by the order; the result is empty exactly when it
    equals it.
    """
    order_ext = ext_hist_space(order)
    space_ext = ext(space)
    if not is_subset(order_ext, space_ext):
        raise ValueError("Space does not refine the space induced by the order.")
    extra = [h for h in hset_members(space_ext) if not (order_ext >> h) & 1]
    by_domain: dict[tuple[Event, ...], list[History]] = {}
    for h in extra:
        evs = tuple(e for e, _ in history_items(h))
        by_domain.setdefault(evs, []).append(h)
    out = []
    for evs in sorted(by_domain, key=lambda d: (-len(d), d)):
        pasts: set[Event] = set()
        for e in evs:
            pasts |= causal_past(order, e)
        freed = tuple(sorted(pasts - set(evs)))
        out.append(
            OrderDifference(
                evs, freed, tuple(sorted(by_domain[evs], key=history_sort_key))
            )
        )
    return tuple(out)


def build_hierarchy(classes: Iterable[HistorySet], num_events: int) -> Hierarchy:
    """Computes the condensed hierarchy for enumerated class representatives.

    Class ids and representatives always come from the shipped class table
    of the event count. With no table for it, or a class missing from it,
    this raises ``ValueError`` before any analysis. Every class's facts are
    read, through ``_catalogue``'s first-read path, before this returns.
    """
    hierarchy = _catalogue(classes, num_events)
    for node in hierarchy.nodes.values():
        for name in _SYSTEM_FACTS | _CLASS_FACTS:
            getattr(node, name)
    return hierarchy


def _catalogue(classes: Iterable[HistorySet], num_events: int) -> Hierarchy:
    """The hierarchy's catalogue: ids, orbits and join-closures.

    Each class's facts are computed on first read, from its own join-closure
    and those of its neighbours only.
    """
    reps = _load_class_table(num_events)
    images = {r: _dense_images(num_events, r) for r in reps.values()}
    # canonical form -> class id, representative and its dense int
    class_table = {min(images[r]): (i, r, images[r][0]) for i, r in reps.items()}
    table = perm_table(num_events)

    # dense canonical form -> {space: join-closure} over the orbit in
    # encounter order; ext commutes with the group, so the images of a
    # closure are the closures of the images, in the same group order
    orbits: dict[int, dict[int, int]] = {}
    for rep in classes:
        imgs = images.get(rep) or _dense_images(num_events, rep)
        if min(imgs) not in orbits:
            ext_imgs = _dense_images(num_events, ext_hset(rep))
            orbits[min(imgs)] = dict(zip(imgs, ext_imgs))

    missing = [table.sparse(c) for c in orbits if c not in class_table]
    if missing:
        raise ValueError(
            f"No class in the {num_events}-event table has canonical form {missing[0]}."
        )
    hierarchy = Hierarchy(num_events, {}, {}, {})
    nodes = {
        c: HierarchyNode(*class_table[c], table.sparse(c), len(orbits[c]), hierarchy)
        for c in orbits
    }
    for canon, node in sorted(nodes.items(), key=lambda cn: cn[1].class_id):
        hierarchy.nodes[node.class_id] = node
        for s, e in orbits[canon].items():
            hierarchy.class_of_key[s] = node.class_id
            hierarchy.ext_of_key[s] = e
    hierarchy.ext_of_key = dict(sorted(hierarchy.ext_of_key.items()))
    return hierarchy


def _system_facts(node: HierarchyNode) -> None:
    """Sets the equation counts, rank, dimension and causal-function count."""
    sp = Space(node.representative)
    node.num_equations = ct.num_equations(ext(sp), sp.events)
    rank = node.num_independent_equations = ct.rank(ext(sp), sp.events)
    node.causaltope_dim = (1 << (2 * sp.event_count)) - rank - 1
    node.causal_function_count = count_causal_functions(sp)


def _analyse(node: HierarchyNode) -> None:
    """Sets the facts that relate one class to the rest of the hierarchy."""
    # dense ints keep order: subset tests, sizes and AND/OR match history sets
    hierarchy, rep = node.hierarchy, node.representative
    exts, class_of = hierarchy.ext_of_key, hierarchy.class_of_key
    sparse = perm_table(hierarchy.num_events).sparse
    sp = Space(rep)
    rep_ext = exts[node.key]
    below = [s for s, e in exts.items() if e != rep_ext and is_subset(rep_ext, e)]
    above = [s for s, e in exts.items() if e != rep_ext and is_subset(e, rep_ext)]
    covered = _frontier(below, exts, reverse=False)
    covering = _frontier(above, exts, reverse=True)

    node.closest_refinements = tuple(sorted({class_of[s] for s in covered}))
    node.closest_coarsenings = tuple(sorted({class_of[s] for s in covering}))
    node.is_tight, node.identifications = tightness(sp)
    node.induced_by_order, node.closest_order_coarsenings = classify_order_relation(sp)
    node.novel_causal_function_count = novel_causal_functions(
        sp, [Space(sparse(s)) for s in covered]
    )
    # the prime part of a union of closures is that of its join-closure
    node.is_join_of_refinements = bool(covered) and (
        prime_hset(sparse(reduce(and_, (exts[s] for s in covered)))) == rep
    )
    meet_ext = sparse(reduce(or_, (exts[s] for s in covering), 0))
    node.is_meet_of_coarsenings = bool(covering) and prime_hset(meet_ext) == rep
    node.causaltope_dim_of_coarsening_meet = None
    if covering:
        # a row depends only on its history, so the stacked systems of the
        # coarsening spaces have the rows of the union of their closures
        node.causaltope_dim_of_coarsening_meet = (
            (1 << (2 * hierarchy.num_events)) - ct.rank(meet_ext, sp.events) - 1
        )


# -- report records ---------------------------------------------------------


def node_record(node: HierarchyNode) -> dict:
    """JSON-ready record for one class, with deterministic key order."""
    return {
        "class_id": node.class_id,
        "class_size": node.orbit_size,
        "representative": node.representative,
        "representative_histories": [
            format_history(h) for h in hset_members(node.representative)
        ],
        "canonical_representative": node.canonical,
        "induced_by_order": (
            format_order(node.induced_by_order)
            if node.induced_by_order is not None
            else None
        ),
        "closest_order_coarsenings": [
            format_order(o) for o in node.closest_order_coarsenings
        ],
        "order_differences": _order_difference_records(node),
        "is_tight": node.is_tight,
        "identifications": [
            [format_history(h) for h in group] for group in node.identifications
        ],
        "causal_functions": node.causal_function_count,
        "novel_causal_functions": node.novel_causal_function_count,
        "closest_refinements": list(node.closest_refinements),
        "closest_coarsenings": list(node.closest_coarsenings),
        "is_join_of_closest_refinements": node.is_join_of_refinements,
        "is_meet_of_closest_coarsenings": node.is_meet_of_coarsenings,
        "causaltope": {
            "dimension": node.causaltope_dim,
            "equations": node.num_equations,
            "independent_equations": node.num_independent_equations,
            "dimension_of_coarsening_meet": node.causaltope_dim_of_coarsening_meet,
        },
    }


def _order_difference_records(node: HierarchyNode) -> list[dict]:
    order = node.induced_by_order
    if order is None:
        candidates = node.closest_order_coarsenings
        if not candidates:
            return []
        order = candidates[0]
    sp = Space(node.representative)
    return [
        {
            "events": list(d.events),
            "independent_of_inputs_at": list(d.freed_events),
            "assignments": [format_history(h) for h in d.assignments],
        }
        for d in diff_from_order(sp, order)
    ]


def report(space_or_class: Space | int, hierarchy: Hierarchy) -> dict:
    """The report record for a class id or for any space in the hierarchy."""
    if isinstance(space_or_class, Space):
        try:  # a history outside the table, or a space outside the catalogue
            keys = _dense_images(hierarchy.num_events, space_or_class.histories)
            space_or_class = hierarchy.class_of_key[keys[0]]
        except KeyError:
            raise ValueError("Space is not part of the hierarchy.") from None
    if space_or_class not in hierarchy.nodes:
        raise ValueError(f"Unknown class id {space_or_class}.")
    return node_record(hierarchy.nodes[space_or_class])


def hierarchy_json(hierarchy: Hierarchy) -> str:
    """Deterministic JSON dump of all class records."""
    records = [
        node_record(hierarchy.nodes[i])
        for i in sorted(hierarchy.nodes)
    ]
    return json.dumps(
        {"num_events": hierarchy.num_events, "classes": records},
        indent=2,
        sort_keys=True,
    )


def hierarchy_dot(hierarchy: Hierarchy) -> str:
    """DOT export of the condensed hierarchy.

    An edge ``i -> j`` states that spaces of class ``i`` are closest
    refinements of spaces of class ``j``.
    """
    lines = ["digraph hierarchy {"]
    for i in sorted(hierarchy.nodes):
        node = hierarchy.nodes[i]
        shape = "box" if node.induced_by_order is not None else "ellipse"
        style = ' style="dashed"' if not node.is_tight else ""
        lines.append(f'  "{i}" [label="{i}", shape={shape}{style}];')
    for i in sorted(hierarchy.nodes):
        for j in hierarchy.nodes[i].closest_coarsenings:
            lines.append(f'  "{i}" -> "{j}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
