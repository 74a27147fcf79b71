"""Bitvector primitives and the event/input/history encodings.

Everything in this package is built on three integer encodings:

1. ``Bitvec``: a set of non-negative integers, packed into the bits of an
   arbitrary-precision ``int`` (bit ``x`` set iff ``x`` is a member).
2. ``History``: a partial function assigning a binary input to some events,
   encoded as the bitvector of its item indices, where the item
   ``(event, value)`` has index ``2*event_index + value``.
3. ``HistorySet``: a set of histories, encoded as the bitvector of the
   ``History`` values of its members.

Events are single uppercase letters ``"A"`` to ``"Z"``, so histories fit in
52 bits and history sets require arbitrary-precision integers (a set of
histories on ``n`` events needs up to ``2**(2*n)`` bits).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import product
from typing import Union

Bitvec = int
"""Type alias for a bitvector, as a non-negative integer."""

History = int
"""Type alias for a history, a bitvector of the indices of its items."""

HistorySet = int
"""Type alias for a set of histories, as a bitvector indexed by history."""

Event = str
"""Type alias for an event, a single uppercase letter ``"A"``-``"Z"``."""

HistoryItem = tuple[Event, int]
"""Type alias for a history item, an event paired with a binary input."""

MAX_EVENTS = 26

_EVENT_BITS = sum(1 << (2 * e) for e in range(MAX_EVENTS))
# mask of all value-0 item bits; used to detect double assignments


def bitvec(elements: Iterable[int]) -> Bitvec:
    """Creates the bitvector representing a set of non-negative integers."""
    v = 0
    for el in elements:
        if el < 0:
            raise ValueError(f"Bitvector elements must be >= 0, found {el}.")
        v |= 1 << el
    return v


def sub(u: Bitvec, v: Bitvec) -> Bitvec:
    """Returns the bitvector of elements in ``u`` but not in ``v``."""
    return u ^ (u & v)


def is_subset(u: Bitvec, v: Bitvec) -> bool:
    """Returns whether the bitvector ``u`` is a subset of ``v``."""
    return u == u & v


def iter_bitvec(u: Bitvec) -> Iterator[int]:
    """Iterates over the elements of a bitvector, in increasing order."""
    if u < 0:
        raise ValueError("Invalid bitvector.")
    while u:
        low = u & -u
        yield low.bit_length() - 1
        u ^= low


def event_to_idx(e: Event) -> int:
    """Index of an event letter: ``"A"`` is 0, ..., ``"Z"`` is 25."""
    idx = ord(e) - ord("A")
    if not 0 <= idx < MAX_EVENTS:
        raise ValueError(f"Invalid event {e!r}: must be 'A'-'Z'.")
    return idx


def idx_to_event(idx: int) -> Event:
    """Event letter for an index in ``0``-``25``."""
    if not 0 <= idx < MAX_EVENTS:
        raise ValueError(f"Event index must be 0-25, found {idx}.")
    return chr(ord("A") + idx)


def item_to_idx(item: HistoryItem) -> int:
    """Index of a history item: ``2 * event_index + value``."""
    e, v = item
    if v not in (0, 1):
        raise ValueError(f"Input values must be binary, found {v}.")
    return 2 * event_to_idx(e) + v


def idx_to_item(idx: int) -> HistoryItem:
    """History item for an index in ``0``-``51``."""
    if not 0 <= idx < 2 * MAX_EVENTS:
        raise ValueError(f"Item index must be 0-51, found {idx}.")
    return (idx_to_event(idx // 2), idx % 2)


def history(
    h_items: Union[Mapping[Event, int], Iterable[HistoryItem]],
) -> History:
    """Creates a history from an event-value mapping or items iterable.

    Raises :class:`ValueError` if an event is assigned more than one value.
    """
    if isinstance(h_items, Mapping):
        h_items = h_items.items()
    h = 0
    for item in h_items:
        idx = item_to_idx(item)
        if h & (0b11 << (idx - idx % 2)):
            raise ValueError(f"History has multiple values for event {item[0]!r}.")
        h |= 1 << idx
    return h


def is_valid_history(h: History) -> bool:
    """Whether ``h`` encodes a partial function (one value per event)."""
    return h >= 0 and h < (1 << (2 * MAX_EVENTS)) and not (h & (h >> 1) & _EVENT_BITS)


def history_items(h: History) -> tuple[HistoryItem, ...]:
    """The items of a history, in increasing index order."""
    return tuple(idx_to_item(idx) for idx in iter_bitvec(h))


def history_dict(h: History) -> dict[Event, int]:
    """The event-value mapping of a history, with events in order."""
    d: dict[Event, int] = {}
    for idx in iter_bitvec(h):
        e, v = idx_to_item(idx)
        if e in d:
            raise ValueError(f"History has multiple values for event {e!r}.")
        d[e] = v
    return d


def event_mask(h: History) -> Bitvec:
    """Bitvector of event indices in the domain of a history."""
    m = (h | (h >> 1)) & _EVENT_BITS
    out = 0
    idx = 0
    while m > 0:
        if m & 1:
            out |= 1 << idx
        m >>= 2
        idx += 1
    return out


def dom(h: History) -> frozenset[Event]:
    """The domain of a history, as a frozenset of events."""
    return frozenset(idx_to_event(e) for e in iter_bitvec(event_mask(h)))


def domsize(h: History) -> int:
    """The number of events in the domain of a history."""
    return ((h | (h >> 1)) & _EVENT_BITS).bit_count()


def history_sort_key(h: History) -> tuple[int, tuple[int, ...]]:
    """Sorting key for histories: first by length, then by content."""
    items = tuple(iter_bitvec(h))
    return (len(items), items)


def total_assignments(events: Iterable[Event]) -> tuple[History, ...]:
    """All total assignments on the given events.

    Assignments are produced in lexicographic input order, with the input
    at the first event varying slowest.
    """
    evs = tuple(sorted(set(events)))
    return tuple(
        history(zip(evs, values)) for values in product((0, 1), repeat=len(evs))
    )


def max_histories(num_events: int) -> tuple[History, ...]:
    """All total assignments on the first ``num_events`` events."""
    if not 1 <= num_events <= MAX_EVENTS:
        raise ValueError(f"Number of events must be 1-{MAX_EVENTS}.")
    return total_assignments(map(idx_to_event, range(num_events)))


def child_histories(h: History) -> tuple[History, ...]:
    """The histories obtained by removing a single event from ``h``.

    Returns the empty tuple if the domain of ``h`` has fewer than 2 events.
    """
    items = list(iter_bitvec(h))
    if len(items) <= 1:
        return ()
    return tuple(h ^ (1 << idx) for idx in reversed(items))


def sub_histories(hs: Sequence[History]) -> tuple[History, ...]:
    """All non-empty restrictions of the given histories.

    Computed by repeated child removal, returned in order of breadth-first
    discovery and including the initial histories.
    """
    visited: set[History] = set()
    q = deque(hs)
    out: list[History] = []
    while q:
        h = q.popleft()
        if h not in visited:
            out.append(h)
            visited.add(h)
        for k in child_histories(h):
            if k not in visited:
                q.append(k)
    return tuple(out)


def format_history(h: History) -> str:
    """Renders a history as ``"A/0,B/1"`` (empty history as ``"-"``)."""
    if h == 0:
        return "-"
    return ",".join(f"{e}/{v}" for e, v in history_items(h))


def parse_history(text: str) -> History:
    """Parses a history literal such as ``"A/0,B/1"`` or ``"-"``."""
    text = text.strip()
    if text in ("", "-"):
        return 0
    items = []
    for part in text.split(","):
        part = part.strip()
        try:
            e, v = part.split("/")
            items.append((e.strip().upper(), int(v)))
        except ValueError:
            raise ValueError(f"Invalid history item {part!r}.") from None
    return history(items)


def hset_members(s: HistorySet) -> tuple[History, ...]:
    """Unpacks a history set, sorted first by length and then by content."""
    return tuple(sorted(iter_bitvec(s), key=history_sort_key))


def format_hset(s: HistorySet) -> str:
    """Renders a history set as ``"[A/0; B/1; A/1,B/0]"``."""
    return "[" + "; ".join(format_history(h) for h in hset_members(s)) + "]"


def parse_hset(text: str) -> HistorySet:
    """Parses a history-set literal.

    Accepts a plain decimal bitvector, or a bracketed list of histories
    separated by ``";"`` (items within a history separated by ``","``); a
    comma-only list is accepted when every history is a single item.
    """
    text = text.strip()
    if not text.startswith("["):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"Invalid history-set literal {text!r}.") from None
        if value < 0:
            raise ValueError("History-set bitvector must be >= 0.")
        return value
    if not text.endswith("]"):
        raise ValueError(f"Unclosed history-set literal {text!r}.")
    body = text[1:-1]
    if not body.strip():
        return 0
    sep = ";" if ";" in body else ","
    return bitvec(parse_history(part) for part in body.split(sep))
