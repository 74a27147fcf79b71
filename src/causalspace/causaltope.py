"""Linear equation systems for the standard empirical models of a space.

A standard empirical model assigns a probability to every (joint input,
joint output) pair, giving ``2**(2n)`` entries on ``n`` events; the column
for inputs ``i`` and outputs ``o`` is indexed as the ``2n``-bit word ``i o``
with the first event's bit most significant, so joint input ``i`` is the
``i``-th total assignment of ``total_assignments``.

The models compatible with a space are cut out by marginal agreement: for
each non-maximal extended history ``h`` and each output assignment on its
domain, the marginal probability of that output must agree across all total
inputs extending ``h`` (one difference row per consecutive pair of extending
inputs). The rows of ``h`` depend on ``h`` alone, so a system is a function
of the join-closure. The empty history's rows are the quasi-normalisation
rows: the total mass must agree across all joint inputs.

The rank is counted, not eliminated. In the output character basis
``chi_S(o) = (-1)**(sum of o_e over e in S)``, the indicators of the output
assignments on a domain ``D`` span exactly the ``chi_S`` with ``S`` inside
``D``, so the row space splits into one block per event subset ``S``.
Block ``S`` is spanned by ``e_a - e_b`` for the joint inputs ``a`` and ``b``
extending a common history of the system whose domain holds ``S``; its rank
is ``2**n - c_S``, where ``c_S`` counts the classes of inputs linked so.

The affine polytope of models additionally fixes the total mass to one, so
its dimension is ``2**(2n) - rank - 1 = sum over nonempty S of c_S``, since
the empty history links all inputs (``c_S = 1`` for the empty ``S``). The
discrete space gives ``3**n - 1``, the no-signalling dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from .encoding import (
    Event,
    HistorySet,
    bitvec,
    domsize,
    event_to_idx,
    history_items,
    hset_members,
    is_subset,
    iter_bitvec,
    total_assignments,
)
from .spaces import Space, ext, is_causally_complete


@dataclass(frozen=True)
class LinearSystem:
    """An integer coefficient matrix with entries in {-1, 0, +1}."""

    rows: tuple[tuple[int, ...], ...]
    num_events: int

    @property
    def num_columns(self) -> int:
        return 1 << (2 * self.num_events)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def build_equations(space: Space) -> LinearSystem:
    """The causality and quasi-normalisation system for a space.

    The rows of the non-maximal members of the join-closure, then of the
    empty history. Requires a causally complete space (so free choice).
    """
    if not is_causally_complete(space):
        raise ValueError("Space must be causally complete.")
    evs = tuple(sorted(space.events))
    n = len(evs)
    inputs = total_assignments(evs)
    rows: list[tuple[int, ...]] = []
    for h in [h for h in hset_members(ext(space)) if domsize(h) < n] + [0]:
        dmask = sum(1 << (n - 1 - evs.index(e)) for e, _ in history_items(h))
        agreeing: dict[int, list[int]] = {}  # outputs by their domain part
        for o in range(1 << n):
            agreeing.setdefault(o & dmask, []).append(o)
        ext_inputs = [i for i, k in enumerate(inputs) if is_subset(h, k)]
        for outputs in agreeing.values():
            for a, b in zip(ext_inputs, ext_inputs[1:]):
                row = [0] * (1 << (2 * n))
                for o in outputs:
                    row[(a << n) | o] = 1
                    row[(b << n) | o] = -1
                rows.append(tuple(row))
    return LinearSystem(tuple(rows), n)


def num_equations(hset: HistorySet, events: Collection[Event]) -> int:
    """Row count of the system of a join-closure, or of a union of closures.

    A history on ``d`` of the ``n`` events has ``2**d`` output assignments
    on its domain and ``2**(n - d)`` extending inputs: ``2**n - 2**d`` rows,
    none for a maximal one. The empty history adds ``2**n - 1``.
    """
    n = len(events)
    return sum((1 << n) - (1 << domsize(h)) for h in [*iter_bitvec(hset), 0])


def rank(hset: HistorySet, events: Collection[Event]) -> int:
    """Exact rank of the system of a join-closure, or of a union of closures.

    Per event subset ``S``, the joint inputs that extend a common history
    whose domain holds ``S`` are linked, and each class of ``k`` linked
    inputs adds ``k - 1`` (see the module docstring).
    """
    evs = tuple(sorted(events))
    n = len(evs)
    bit_of = {event_to_idx(e): 1 << (n - 1 - p) for p, e in enumerate(evs)}
    links = []  # (domain mask, mask of the joint inputs extending h)
    for h in [h for h in [*iter_bitvec(hset), 0] if domsize(h) < n]:
        dmask = value = 0
        for item in iter_bitvec(h):
            dmask |= bit_of[item >> 1]
            value |= bit_of[item >> 1] * (item & 1)
        links.append((dmask, bitvec(i for i in range(1 << n) if i & dmask == value)))
    total = 0
    for s in range(1 << n):
        classes: list[int] = []
        for dmask, linked in links:
            if dmask & s == s:
                disjoint = []
                for c in classes:
                    if c & linked:
                        linked |= c
                    else:
                        disjoint.append(c)
                classes = disjoint + [linked]
        total += sum(c.bit_count() - 1 for c in classes)
    return total


def causaltope_dim(space: Space) -> int:
    """Dimension of the polytope of models compatible with a space.

    ``2**(2n) - rank - 1``: the homogeneous system plus the affine
    normalisation slice. Requires a causally complete space.
    """
    if not is_causally_complete(space):
        raise ValueError("Space must be causally complete.")
    return (1 << (2 * space.event_count)) - rank(ext(space), space.events) - 1


def _header(num_events: int) -> list[str]:
    n = num_events
    return [
        format(i, f"0{n}b") + "|" + format(o, f"0{n}b")
        for i in range(1 << n)
        for o in range(1 << n)
    ]


def dump_csv(system: LinearSystem) -> bytes:
    """CSV rendering: one header line of ``input|output`` column labels."""
    lines = [",".join(_header(system.num_events))]
    for row in system.rows:
        lines.append(",".join(str(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_csv(data: bytes, num_events: int) -> LinearSystem:
    """Inverse of :func:`dump_csv`."""
    lines = data.decode("ascii").strip().split("\n")
    if lines and lines[0] != ",".join(_header(num_events)):
        raise ValueError("CSV header does not match the expected columns.")
    rows = tuple(
        tuple(int(v) for v in line.split(",")) for line in lines[1:] if line
    )
    for row in rows:
        if len(row) != 1 << (2 * num_events):
            raise ValueError("CSV row width does not match the column count.")
    return LinearSystem(rows, num_events)


_PGM_LEVELS = {0: 255, 1: 128, -1: 0}


def dump_pgm(system: LinearSystem) -> bytes:
    """Plain PGM rendering with three grey levels (0 / +1 / -1)."""
    w, h = system.num_columns, max(system.num_rows, 1)
    lines = [f"P2 {w} {h} 255"]
    if system.num_rows == 0:
        lines.append(" ".join(["255"] * w))
    for row in system.rows:
        lines.append(" ".join(str(_PGM_LEVELS[v]) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def dump_system(system: LinearSystem, fmt: str) -> bytes:
    """Serialises a system as ``"csv"`` or ``"pgm"`` bytes."""
    if fmt == "csv":
        return dump_csv(system)
    if fmt == "pgm":
        return dump_pgm(system)
    raise ValueError(f"Unsupported dump format {fmt!r}.")
