"""Definitions for output checks, written independently of the program.

A history on ``n`` events is a bitmask over items ``2 * event + value``; a
history set is a bitmask over histories. A group element permutes the
events and flips the input value per event. These helpers rebuild that
action and causal completeness from the definitions and the encoding
alone, so the checks share no code with the program.
"""

from __future__ import annotations

from itertools import permutations, product


def group_tables(num_events: int) -> list[list[int]]:
    """For every group element, the image of each history, indexed by history."""
    size = 1 << (2 * num_events)
    tables = []
    for perm in permutations(range(num_events)):
        for flips in product((0, 1), repeat=num_events):
            item_img = [
                2 * perm[i >> 1] + ((i & 1) ^ flips[i >> 1])
                for i in range(2 * num_events)
            ]
            table = [0] * size
            for h in range(size):
                img, rest = 0, h
                while rest:
                    low = rest & -rest
                    img |= 1 << item_img[low.bit_length() - 1]
                    rest ^= low
                table[h] = img
            tables.append(table)
    return tables


def members(s: int) -> list[int]:
    """The histories of a history set."""
    out = []
    while s:
        low = s & -s
        out.append(low.bit_length() - 1)
        s ^= low
    return out


def maps_into(hs: list[int], target: int, table: list[int]) -> bool:
    """Whether the group element maps every history of ``hs`` into ``target``."""
    for h in hs:
        if not (target >> table[h]) & 1:
            return False
    return True


def orbit_size(s: int, tables: list[list[int]]) -> int:
    """Size of the orbit of a history set: group order over stabiliser order."""
    hs = members(s)
    stabiliser = sum(1 for t in tables if maps_into(hs, s, t))
    return len(tables) // stabiliser


def canonical(s: int, tables: list[list[int]]) -> int:
    """The numerically smallest image of a history set."""
    hs = members(s)
    best = None
    for t in tables:
        img = 0
        for h in hs:
            img |= 1 << t[h]
        if best is None or img < best:
            best = img
    return best


def orbit(s: int, tables: list[list[int]]) -> list[int]:
    """Distinct images of a history set, in group order."""
    hs = members(s)
    seen: dict[int, None] = {}
    for t in tables:
        img = 0
        for h in hs:
            img |= 1 << t[h]
        seen[img] = None
    return list(seen)


def _invariant(hs: list[int]) -> tuple:
    # per member: its length and how many members restrict it; both are
    # preserved by every group element
    return tuple(
        sorted(
            (h.bit_count(), sum(1 for k in hs if k != h and k & h == k))
            for h in hs
        )
    )


def duplicate_orbits(spaces: list[int], tables: list[list[int]]) -> set[int]:
    """Indices of history sets that share an orbit with another in the list.

    Sets are first grouped by a cheap invariant; only sets in the same group
    are compared, by looking for a group element that maps one onto the other.
    """
    groups: dict[tuple, list[int]] = {}
    decoded = [members(s) for s in spaces]
    for i, hs in enumerate(decoded):
        groups.setdefault(_invariant(hs), []).append(i)
    dup: set[int] = set()
    for idx in groups.values():
        for a_pos, a in enumerate(idx):
            for b in idx[a_pos + 1:]:
                if any(maps_into(decoded[a], spaces[b], t) for t in tables):
                    dup.update((a, b))
    return dup


_VALUE0 = 0x5555  # the value-0 item bit of each of up to 8 events


def _events(h: int) -> int:
    """The domain of a history, as one bit per event at the value-0 position."""
    return (h | (h >> 1)) & _VALUE0


def is_causally_complete(s: int) -> bool:
    """Join-prime, free choice, and exactly one tip event per member.

    Free choice: the maximal elements of the join-closure are exactly the
    total assignments on the events of the space. The tip events of a member
    are those of its domain outside the domains of the members it extends.
    """
    hs = members(s)
    if not hs or 0 in hs:
        return False
    for h in hs:
        below = [k for k in hs if k != h and k & h == k]
        joined = 0
        covered = 0
        for k in below:
            joined |= k
            covered |= _events(k)
        if joined == h or (_events(h) & ~covered).bit_count() != 1:
            return False
    closure = set(hs)
    frontier = list(hs)
    while frontier:
        new = []
        for a in frontier:
            for b in list(closure):
                u = a | b
                if u not in closure and not (u & (u >> 1) & _VALUE0):
                    closure.add(u)
                    new.append(u)
        frontier = new
    maxima = {h for h in closure if not any(h != k and h & k == h for k in closure)}
    events = 0
    for h in hs:
        events |= _events(h)
    num_events = events.bit_count()
    return all(_events(m) == events for m in maxima) and len(maxima) == 1 << num_events
