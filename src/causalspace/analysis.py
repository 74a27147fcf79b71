"""Catalogue analyses: causal functions, the condensed hierarchy, reports.

Given the equivalence classes produced by the enumerator, this module
computes per-class metadata (causal-function counts, tightness, induced
orders, causaltope dimensions), the covering structure of the refinement
order condensed by symmetry, and per-class report records with JSON and
DOT exports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Optional

from . import causaltope as ct
from .encoding import (
    Event,
    History,
    HistorySet,
    event_to_idx,
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
    determination_classes,
    ext,
    ext_hset,
    prime,
    space_meet,
    tightness,
    tip,
    total_assignments,
)
from .symmetry import canonical_rep, perm_table, space_orbit

MAX_FUNCTION_EVENTS = 3
# explicit causal-function tables are 2**n entries of n bits each; counting
# and novelty work on packed integers and stay cheap through n = 4


def count_causal_functions(space: Space) -> int:
    """Number of causal functions: one free output bit per class."""
    return 1 << len(determination_classes(space))


def _function_masks(space: Space) -> list[int]:
    """Per-class bit masks over (input index, event) output cells.

    The table of a causal function is packed into an integer with bit
    ``input_index * n + (n - 1 - event_position)`` holding the output at
    that event; each determination class controls a fixed, disjoint set of
    those bits.
    """
    evs = tuple(sorted(space.events))
    n = len(evs)
    pos = {e: i for i, e in enumerate(evs)}
    classes = determination_classes(space)
    class_of: dict[History, int] = {}
    for c, group in enumerate(classes):
        for h in group:
            class_of[h] = c
    members = hset_members(space.histories)
    tip_of = {h: tip(space, h) for h in members}
    masks = [0] * len(classes)
    for input_idx, k in enumerate(total_assignments(evs)):
        for h in members:
            if is_subset(h, k):
                masks[class_of[h]] |= 1 << (
                    input_idx * n + (n - 1 - pos[tip_of[h]])
                )
    return masks


def causal_function_set(space: Space) -> frozenset[int]:
    """All causal functions of a space, as packed output tables."""
    tables = [0]
    for mask in _function_masks(space):
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


@dataclass
class HierarchyNode:
    """Per-class record of the condensed hierarchy."""

    class_id: int
    representative: HistorySet
    canonical: HistorySet
    orbit_size: int
    closest_refinements: tuple[int, ...] = ()
    closest_coarsenings: tuple[int, ...] = ()
    is_tight: bool = True
    identifications: tuple[tuple[History, ...], ...] = ()
    induced_by_order: Optional[CausalOrder] = None
    closest_order_coarsenings: tuple[CausalOrder, ...] = ()
    causal_function_count: int = 0
    novel_causal_function_count: int = 0
    causaltope_dim: int = 0
    num_equations: int = 0
    num_independent_equations: int = 0
    is_join_of_refinements: bool = False
    is_meet_of_coarsenings: bool = False
    causaltope_dim_of_coarsening_meet: Optional[int] = None


@dataclass
class Hierarchy:
    """The condensed refinement hierarchy of causally complete spaces."""

    num_events: int
    nodes: dict[int, HierarchyNode]
    class_of_space: dict[HistorySet, int]

    def node_of_space(self, s: HistorySet) -> HierarchyNode:
        return self.nodes[self.class_of_space[s]]

    @property
    def minima(self) -> tuple[int, ...]:
        return tuple(
            sorted(i for i, n in self.nodes.items() if not n.closest_refinements)
        )

    @property
    def maxima(self) -> tuple[int, ...]:
        return tuple(
            sorted(i for i, n in self.nodes.items() if not n.closest_coarsenings)
        )


def _load_class_table(num_events: int) -> Optional[dict[int, tuple[int, int]]]:
    """Pinned class numbering: canonical representative -> (id, exhibited rep)."""
    name = f"classes{num_events}.json"
    try:
        data = json.loads(
            resources.files("causalspace").joinpath("data").joinpath(name).read_text()
        )
    except (FileNotFoundError, ModuleNotFoundError):
        return None
    table = perm_table(num_events)
    return {
        canonical_rep(entry["representative"], table): (
            entry["id"],
            entry["representative"],
        )
        for entry in data["classes"]
    }


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
    order_ext = ext_hset(hist_space(order))
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


def build_hierarchy(
    classes: Iterable[HistorySet], num_events: Optional[int] = None
) -> Hierarchy:
    """Computes the condensed hierarchy for enumerated class representatives.

    Classes are numbered by the pinned catalogue table when one is shipped
    for the event count; otherwise by ascending (causaltope dimension,
    causal-function count, canonical representative).
    """
    reps_in = list(classes)
    if num_events is None:
        num_events = max(
            event_to_idx(e) + 1
            for rep in reps_in
            for h in iter_bitvec(rep)
            for e, _ in history_items(h)
        )
    table = perm_table(num_events)

    orbits: dict[HistorySet, tuple[HistorySet, ...]] = {}
    for rep in reps_in:
        canon = canonical_rep(rep, table)
        if canon not in orbits:
            orbits[canon] = space_orbit(rep, table)

    class_table = _load_class_table(num_events)
    prelim: list[tuple[HistorySet, HistorySet]] = []  # (canonical, representative)
    for canon, orbit in orbits.items():
        if class_table is not None and canon in class_table:
            prelim.append((canon, class_table[canon][1]))
        else:
            prelim.append((canon, canon))

    # metadata needed for numbering
    ranks: dict[HistorySet, int] = {}
    dims: dict[HistorySet, int] = {}
    cf_counts: dict[HistorySet, int] = {}
    systems: dict[HistorySet, ct.LinearSystem] = {}
    for canon, rep in prelim:
        sp = Space(rep)
        systems[canon] = ct.build_equations(sp)
        ranks[canon] = ct.rank(systems[canon])
        dims[canon] = systems[canon].num_columns - ranks[canon] - 1
        cf_counts[canon] = count_causal_functions(sp)

    if class_table is not None and all(c in class_table for c, _ in prelim):
        numbered = sorted(prelim, key=lambda cr: class_table[cr[0]][0])
        ids = [class_table[c][0] for c, _ in numbered]
    else:
        numbered = sorted(prelim, key=lambda cr: (dims[cr[0]], cf_counts[cr[0]], cr[0]))
        ids = list(range(len(numbered)))

    nodes: dict[int, HierarchyNode] = {}
    class_of_space: dict[HistorySet, int] = {}
    for class_id, (canon, rep) in zip(ids, numbered):
        nodes[class_id] = HierarchyNode(
            class_id=class_id,
            representative=rep,
            canonical=canon,
            orbit_size=len(orbits[canon]),
        )
        for s in orbits[canon]:
            class_of_space[s] = class_id

    all_spaces = sorted(class_of_space)
    exts = {s: ext_hset(s) for s in all_spaces}
    for class_id, (canon, rep) in zip(ids, numbered):
        node = nodes[class_id]
        sp = Space(rep)
        rep_ext = exts[rep]
        below = [s for s in all_spaces if exts[s] != rep_ext and is_subset(rep_ext, exts[s])]
        above = [s for s in all_spaces if exts[s] != rep_ext and is_subset(exts[s], rep_ext)]
        covered = _frontier(below, exts, reverse=False)
        covering = _frontier(above, exts, reverse=True)

        node.closest_refinements = tuple(
            sorted({class_of_space[s] for s in covered})
        )
        node.closest_coarsenings = tuple(
            sorted({class_of_space[s] for s in covering})
        )
        node.is_tight, node.identifications = tightness(sp)
        node.induced_by_order, node.closest_order_coarsenings = (
            classify_order_relation(sp)
        )
        node.causal_function_count = cf_counts[canon]
        node.novel_causal_function_count = novel_causal_functions(
            sp, [Space(s) for s in covered]
        )
        system = systems[canon]
        node.num_equations = system.num_rows
        node.num_independent_equations = ranks[canon]
        node.causaltope_dim = dims[canon]

        if covered:
            acc = exts[covered[0]]
            for s in covered[1:]:
                acc &= exts[s]
            node.is_join_of_refinements = prime(acc).histories == rep
        if covering:
            m = Space(covering[0])
            for s in covering[1:]:
                m = space_meet(m, Space(s))
            node.is_meet_of_coarsenings = m.histories == rep
            stacked = ct.combined_rank(
                [ct.build_equations(Space(s)) for s in covering]
            )
            node.causaltope_dim_of_coarsening_meet = (
                system.num_columns - stacked - 1
            )
    return Hierarchy(num_events, nodes, class_of_space)


def _frontier(
    candidates: list[HistorySet], exts: Mapping[HistorySet, int], *, reverse: bool
) -> list[HistorySet]:
    """Maximal (or minimal, when ``reverse``) elements of a refinement set.

    Candidates closest to the reference space come first when sorted by
    closure size, so a linear sweep against the kept frontier suffices.
    """
    ordered = sorted(
        candidates, key=lambda s: exts[s].bit_count(), reverse=reverse
    )
    kept: list[HistorySet] = []
    for s in ordered:
        if reverse:
            if not any(is_subset(exts[s], exts[m]) for m in kept):
                kept.append(s)
        else:
            if not any(is_subset(exts[m], exts[s]) for m in kept):
                kept.append(s)
    return kept


# -- report records ---------------------------------------------------------


def node_record(node: HierarchyNode, hierarchy: Hierarchy) -> dict:
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
        canon = canonical_rep(
            space_or_class.histories, perm_table(hierarchy.num_events)
        )
        if canon not in {n.canonical for n in hierarchy.nodes.values()}:
            raise ValueError("Space is not part of the hierarchy.")
        node = next(
            n for n in hierarchy.nodes.values() if n.canonical == canon
        )
    else:
        if space_or_class not in hierarchy.nodes:
            raise ValueError(f"Unknown class id {space_or_class}.")
        node = hierarchy.nodes[space_or_class]
    return node_record(node, hierarchy)


def hierarchy_json(hierarchy: Hierarchy) -> str:
    """Deterministic JSON dump of all class records."""
    records = [
        node_record(hierarchy.nodes[i], hierarchy)
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
