"""The event-input permutation group and its action on histories and spaces.

A group element permutes the events and, independently per source event,
optionally flips the binary input value. On ``n`` events the group has
``n! * 2**n`` elements. Elements are represented by a pair of sequences:
the images of the sorted events, and the per-source-event XOR masks.

Orbits of history sets come from a packed table. The histories on ``n``
events are numbered densely in increasing order of their ``History``
value (80 histories on 4 events), so a history set has a dense bitvector
of ``F = ceil(histories / 8)`` bytes (10 on 4 events). Each history holds
one int with a field of ``F`` bytes per group element: the field of group
index ``gi`` has the dense bit of the image of the history under the
``gi``-th element, and ``int.to_bytes(G * F, "big")`` lists the fields in
group order, each big-endian. ORing the ints of a set's members gives the
images of the set under all ``G`` elements at once. The numbering keeps
order, so comparing two fields as bytes is the same as comparing the
history sets they stand for as numbers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import permutations, product
from struct import Struct

from .encoding import (
    Event,
    History,
    HistorySet,
    bitvec,
    event_to_idx,
    history,
    history_dict,
    history_sort_key,
    idx_to_event,
    iter_bitvec,
    max_histories,
    sub_histories,
)

PermGroupEl = tuple[tuple[Event, ...], tuple[int, ...]]
"""A group element: (images of the sorted events, per-event input flips)."""


def identity_perm(events: Sequence[Event]) -> PermGroupEl:
    """The identity element on the given events."""
    evs = tuple(sorted(events))
    return (evs, (0,) * len(evs))


def iter_perm_group(events: Sequence[Event]) -> Iterator[PermGroupEl]:
    """Iterates through all event-input permutations of the given events.

    Elements are produced in (event permutation, flip vector) lexicographic
    order, so the identity comes first.
    """
    events = tuple(events)
    if len(set(events)) != len(events):
        raise ValueError("Events must not be repeated.")
    for events_perm in permutations(events):
        for value_perm in product((0, 1), repeat=len(events)):
            yield (events_perm, value_perm)


def permute_history(h: History, g: PermGroupEl) -> History:
    """The image of a history under a group element.

    The item ``(e, v)`` maps to ``(g(e), v ^ flip_e)``, where ``flip_e`` is
    the flip bit for the source event ``e``.
    """
    events_perm, value_perm = g
    h_dict = history_dict(h)
    return history(
        {
            e_img: h_dict[e] ^ value_perm[e_idx]
            for e_idx, (e, e_img) in enumerate(zip(sorted(events_perm), events_perm))
            if e in h_dict
        }
    )


def history_stabiliser(
    h: History, perm_group: Iterable[PermGroupEl]
) -> tuple[PermGroupEl, ...]:
    """The group elements fixing a history, in encounter order."""
    return tuple(g for g in perm_group if permute_history(h, g) == h)


class PermTable:
    """Cached group elements and history-permutation tables for ``n`` events.

    The table covers every non-empty restriction of the total assignments
    on the first ``n`` events, which is all the enumerator and the space
    analyses ever permute. ``action`` maps each group element to its
    history permutation; the packed images (module docstring) back
    ``dense_images``.
    """

    def __init__(self, num_events: int) -> None:
        self.num_events = num_events
        self.events = tuple(idx_to_event(i) for i in range(num_events))
        self.group: tuple[PermGroupEl, ...] = tuple(iter_perm_group(self.events))
        hs = sorted(sub_histories(max_histories(num_events)), key=history_sort_key)
        self.histories = tuple(hs)
        self._sparse = tuple(sorted(hs))
        dense = {h: i for i, h in enumerate(self._sparse)}
        width = (len(hs) + 7) // 8
        self._num_bytes = width * len(self.group)
        self._unpack = Struct(f"{width}s" * len(self.group)).unpack
        self._images = dict.fromkeys(hs, 0)
        self.action: dict[PermGroupEl, dict[History, History]] = {}
        for gi, (events_perm, value_perm) in enumerate(self.group):
            # item 2e+v maps to 2*g(e) + (v ^ flip_e)
            item_img = [
                2 * event_to_idx(e_img) + (v ^ flip)
                for e_img, flip in zip(events_perm, value_perm)
                for v in (0, 1)
            ]
            shift = 8 * (self._num_bytes - width * (gi + 1))
            act = self.action[events_perm, value_perm] = {}
            for h in hs:
                img = act[h] = bitvec(item_img[i] for i in iter_bitvec(h))
                self._images[h] |= 1 << (shift + dense[img])

    def permute_space(self, s: HistorySet, g: PermGroupEl) -> HistorySet:
        """The image of a history set under a group element."""
        act = self.action[g]
        return bitvec(act[h] for h in iter_bitvec(s))

    def dense_images(self, histories: Iterable[History]) -> tuple[bytes, ...]:
        """The dense keys of the images of a set of histories, in group order."""
        v = 0
        images = self._images
        for h in histories:
            v |= images[h]
        return self._unpack(v.to_bytes(self._num_bytes, "big"))

    def sparse(self, key: bytes | int) -> HistorySet:
        """The history set of a dense key from ``dense_images``, or of its int."""
        dense = key if isinstance(key, int) else int.from_bytes(key, "big")
        return bitvec(self._sparse[i] for i in iter_bitvec(dense))


@lru_cache(maxsize=None)
def perm_table(num_events: int) -> PermTable:
    """The shared, lazily built permutation table for ``n`` events."""
    return PermTable(num_events)


def space_orbit(s: HistorySet, table: PermTable) -> tuple[HistorySet, ...]:
    """Distinct images of a history set under the group, in encounter order."""
    keys = dict.fromkeys(table.dense_images(iter_bitvec(s)))
    return tuple(table.sparse(k) for k in keys)


def space_stabiliser(s: HistorySet, table: PermTable) -> tuple[PermGroupEl, ...]:
    """The group elements fixing a history set, in encounter order."""
    # the identity comes first in group order
    imgs = table.dense_images(iter_bitvec(s))
    return tuple(g for g, k in zip(table.group, imgs) if k == imgs[0])


def canonical_rep(s: HistorySet, table: PermTable) -> HistorySet:
    """The numerically smallest history set in the orbit of ``s``."""
    return table.sparse(min(table.dense_images(iter_bitvec(s))))
