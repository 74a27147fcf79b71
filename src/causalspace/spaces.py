"""Spaces of input histories and their causal structure.

A space of input histories is a finite, join-prime set of non-empty
histories: no member is the compatible join of other members. The key
derived notions are the join-closure (the extended input histories), the
free-choice condition, tip events, causal completeness, tightness, the
refinement lattice, and the composition operators.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .encoding import (
    _EVENT_BITS,
    Event,
    History,
    HistorySet,
    bitvec,
    event_mask,
    format_hset,
    history,
    history_items,
    history_sort_key,
    hset_members,
    idx_to_event,
    is_subset,
    is_valid_history,
    iter_bitvec,
    parse_hset,
    total_assignments,
)
from .symmetry import perm_table, space_orbit

MAX_COMPLETE_SEARCH_EVENTS = 3
# class tables ship for 1-3 events; a complete search at 4 has 315981136
# top-level subsets and runs only as a checkpointed search


@dataclass(frozen=True)
class Space:
    """A join-prime set of non-empty input histories."""

    histories: HistorySet

    def __post_init__(self) -> None:
        for h in iter_bitvec(self.histories):
            if h == 0 or not is_valid_history(h):
                raise ValueError(f"Invalid space member {h}.")
        if prime_hset(self.histories) != self.histories:
            raise ValueError("Space members must be join-prime.")

    @classmethod
    def from_histories(cls, histories: Iterable[History]) -> "Space":
        return cls(bitvec(histories))

    @classmethod
    def parse(cls, text: str) -> "Space":
        return cls(parse_hset(text))

    @property
    def members(self) -> tuple[History, ...]:
        """Member histories, sorted first by length and then by content."""
        return hset_members(self.histories)

    @property
    def events(self) -> frozenset[Event]:
        """The events supporting the space (union of member domains)."""
        return frozenset(
            idx_to_event(i) for i in iter_bitvec(_events_mask(self.histories))
        )

    @property
    def event_count(self) -> int:
        return _events_mask(self.histories).bit_count()

    def __str__(self) -> str:
        return format_hset(self.histories)


def _events_mask(w: HistorySet) -> int:
    mask = 0
    for h in iter_bitvec(w):
        mask |= event_mask(h)
    return mask


@lru_cache(maxsize=None)
def ext_hset(w: HistorySet) -> HistorySet:
    """The join-closure of a history set: all compatible joins of members."""
    # joining one member at a time reaches every compatible join
    gens = tuple(iter_bitvec(w))
    members, frontier = set(gens), gens
    while frontier:
        fresh = []
        for h in frontier:
            for k in gens:
                u = h | k
                if u not in members and not (u & (u >> 1) & _EVENT_BITS):
                    members.add(u)
                    fresh.append(u)
        frontier = fresh
    return bitvec(members)


def ext(space: Space) -> HistorySet:
    """The extended input histories of a space."""
    return ext_hset(space.histories)


def prime_hset(w: HistorySet) -> HistorySet:
    """The join-prime members of a history set.

    A member is dropped when it is the compatible join of other members;
    equivalently, when its strictly smaller members cover all its items.
    The empty history, being the empty join, is never prime.
    """
    members = tuple(iter_bitvec(w))
    out = []
    for h in members:
        cover = 0
        for k in members:
            if k != h and is_subset(k, h):
                cover |= k
        if cover != h:
            out.append(h)
    return bitvec(out)


def prime(w: HistorySet) -> Space:
    """The space formed by the join-prime members of a history set."""
    return Space(prime_hset(w))


def maxima_hset(w: HistorySet) -> tuple[History, ...]:
    """Members of a history set with no strict extension in the set."""
    members = tuple(iter_bitvec(w))
    return tuple(
        sorted(
            (
                h
                for h in members
                if not any(k != h and is_subset(h, k) for k in members)
            ),
            key=history_sort_key,
        )
    )


def is_free_choice(space: Space) -> bool:
    """Whether the maxima of the join-closure are all total assignments.

    Every history on the space's events extends to a total assignment, so
    the maxima are exactly the total assignments iff all of them lie in
    the join-closure.
    """
    return is_subset(bitvec(total_assignments(space.events)), ext(space))


def tips(space: Space, h: History) -> frozenset[Event]:
    """Events of ``h`` not in the domain of any member strictly below it.

    ``h`` must be an extended input history of the space.
    """
    if not is_subset(1 << h, ext(space)) or h == 0:
        raise ValueError(f"History {h} is not an extended history of the space.")
    covered = 0
    for k in iter_bitvec(space.histories):
        if k != h and is_subset(k, h):
            covered |= event_mask(k)
    mask = event_mask(h) & ~covered
    return frozenset(idx_to_event(i) for i in iter_bitvec(mask))


@lru_cache(maxsize=None)
def is_causally_complete(space: Space) -> bool:
    """Whether every member has exactly one tip event.

    Requires the free-choice condition; raises :class:`ValueError` when it
    fails.
    """
    if not is_free_choice(space):
        raise ValueError("Space does not satisfy the free-choice condition.")
    return all(len(tips(space, h)) == 1 for h in iter_bitvec(space.histories))


def tip(space: Space, h: History) -> Event:
    """The unique tip event of a member of a causally complete space."""
    ts = tips(space, h)
    if len(ts) != 1:
        raise ValueError(f"History {h} has tip events {sorted(ts)}, expected one.")
    return next(iter(ts))


@lru_cache(maxsize=None)
def _determination(space: Space) -> tuple[tuple[tuple[History, ...], int], ...]:
    """The determination classes, each with the output cells it controls.

    Cell ``i * n + (n - 1 - p)`` is the output at the ``p``-th of the ``n``
    sorted events for joint input ``i``, the ``i``-th total assignment: the
    bit layout of a causal function's packed table. A member controls its
    tip's cell at every total assignment above it, so two members share a
    cell exactly when they co-occur in some ``D(k, e)``, and a class is a
    set of members linked by shared cells. Requires a causally complete space.
    """
    if not is_causally_complete(space):
        raise ValueError("Space must be causally complete.")
    evs = tuple(sorted(space.events))
    n = len(evs)
    inputs = total_assignments(evs)
    classes: list[tuple[list[History], int]] = []
    for h in iter_bitvec(space.histories):
        shift = n - 1 - evs.index(tip(space, h))
        mask = bitvec(i * n + shift for i, k in enumerate(inputs) if is_subset(h, k))
        group, disjoint = [h], []
        for g, m in classes:
            if m & mask:
                group += g
                mask |= m
            else:
                disjoint.append((g, m))
        classes = disjoint + [(group, mask)]
    return tuple(sorted(
        ((tuple(sorted(g, key=history_sort_key)), m) for g, m in classes),
        key=lambda c: history_sort_key(c[0][0]),
    ))


def determination_classes(space: Space) -> tuple[tuple[History, ...], ...]:
    """Partition of the members by shared determining role.

    For each total assignment ``k`` and event ``e``, the determining set
    ``D(k, e)`` collects the members below ``k`` whose tip is ``e``; members
    co-occurring in some determining set are merged. Requires a causally
    complete space.
    """
    return tuple(group for group, _ in _determination(space))


def tightness(space: Space) -> tuple[bool, tuple[tuple[History, ...], ...]]:
    """Whether each (assignment, event) pair has a unique determining member.

    Returns the tightness flag together with the identification groups:
    the non-singleton classes of members forced to share output values.
    """
    classes = determination_classes(space)
    groups = tuple(g for g in classes if len(g) > 1)
    return (not groups, groups)


def space_leq(a: Space, b: Space) -> bool:
    """Whether ``a`` refines ``b``: the closure of ``a`` contains ``b``'s."""
    return is_subset(ext(b), ext(a))


def space_join(a: Space, b: Space) -> Space:
    """Closest common coarsening: prime part of the closure intersection."""
    return prime(ext(a) & ext(b))


def space_meet(a: Space, b: Space) -> Space:
    """Closest common refinement: prime part of the closure union."""
    return prime(ext(a) | ext(b))


def _require_disjoint(a: Space, b: Space) -> None:
    if a.events & b.events:
        raise ValueError("Spaces must live on disjoint event sets.")


def parallel_compose(a: Space, b: Space) -> Space:
    """Union of two spaces on disjoint events, with no relation between."""
    _require_disjoint(a, b)
    return Space(a.histories | b.histories)


def cond_seq_compose(head: Space, family: Mapping[History, Space]) -> Space:
    """Sequential composition where the continuation depends on the head.

    ``family`` assigns one space (on events disjoint from the head) to each
    maximal extended history of the head.
    """
    max_hs = maxima_hset(ext(head))
    if set(family) != set(max_hs):
        raise ValueError(
            "Family must assign a space to each maximal extended history."
        )
    members = set(iter_bitvec(head.histories))
    for k in max_hs:
        tail = family[k]
        _require_disjoint(head, tail)
        for h in iter_bitvec(tail.histories):
            members.add(k | h)
    return Space(bitvec(members))


def seq_compose(a: Space, b: Space) -> Space:
    """Sequential composition: ``b`` after every maximal history of ``a``."""
    return cond_seq_compose(a, {k: b for k in maxima_hset(ext(a))})


def _single_event_space(e: Event) -> Space:
    return Space.from_histories(total_assignments([e]))


def causal_switch_spaces(events: Iterable[Event] | int) -> tuple[Space, ...]:
    """All spaces built by letting each input select the continuation.

    These are exactly the causally complete spaces equal to their own
    join-closure, and the maxima of the hierarchy of causally complete
    spaces.
    """
    if isinstance(events, int):
        events = [idx_to_event(i) for i in range(events)]
    evs = tuple(sorted(set(events)))
    return _switch_spaces(evs)


@lru_cache(maxsize=None)
def _switch_spaces(evs: tuple[Event, ...]) -> tuple[Space, ...]:
    if not evs:
        return ()
    if len(evs) == 1:
        return (_single_event_space(evs[0]),)
    seen: dict[HistorySet, Space] = {}
    for first in evs:
        head = _single_event_space(first)
        k0, k1 = total_assignments([first])
        tails = _switch_spaces(tuple(e for e in evs if e != first))
        for t0 in tails:
            for t1 in tails:
                s = cond_seq_compose(head, {k0: t0, k1: t1})
                seen.setdefault(s.histories, s)
    return tuple(seen.values())


def causal_completions(space: Space) -> tuple[Space, ...]:
    """The closest causally complete refinements of a space.

    Computed by filtering the orbits of the shipped class table on the
    space's events and keeping the maxima; a causally complete space is
    its own unique completion. Raises :class:`ValueError` for any other
    space on more events than a complete search can cover.
    """
    if is_causally_complete(space):
        return (space,)
    evs = tuple(sorted(space.events))
    if len(evs) > MAX_COMPLETE_SEARCH_EVENTS:
        raise ValueError(
            "Causal completions need a complete search, available up to"
            f" {MAX_COMPLETE_SEARCH_EVENTS} events; the space has {len(evs)}."
        )
    to_local = {e: idx_to_event(i) for i, e in enumerate(evs)}
    to_global = {v: k for k, v in to_local.items()}
    local = relabel_space(space, to_local)
    target_ext = ext(local)
    exts = {s: ext_hset(s) for s in _all_complete_hsets(len(evs))}
    candidates = [s for s, e in exts.items() if is_subset(target_ext, e)]
    closest = _frontier(candidates, exts, reverse=False)
    return tuple(relabel_space(Space(s), to_global) for s in sorted(closest))


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


def relabel_history(h: History, mapping: Mapping[Event, Event]) -> History:
    """Renames the events of a history."""
    return history({mapping.get(e, e): v for e, v in history_items(h)})


def relabel_space(space: Space, mapping: Mapping[Event, Event]) -> Space:
    """Renames the events of every member of a space."""
    return Space.from_histories(
        relabel_history(h, mapping) for h in iter_bitvec(space.histories)
    )


@lru_cache(maxsize=None)
def _all_complete_hsets(num_events: int) -> tuple[HistorySet, ...]:
    """Every causally complete space on the first ``n`` events."""
    table = perm_table(num_events)
    reps = _load_class_table(num_events).values()
    return tuple(dict.fromkeys(s for r in reps for s in space_orbit(r, table)))


@lru_cache(maxsize=None)
def _load_class_table(num_events: int) -> dict[int, HistorySet]:
    """The shipped class numbering, read once and shared: id -> representative."""
    path = resources.files("causalspace") / "data" / f"classes{num_events}.json"
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(f"No class table ships for {num_events} events.") from None
    return {e["id"]: e["representative"] for e in data["classes"]}
