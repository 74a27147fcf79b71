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

The affine polytope of models additionally fixes the total mass to one,
which is why its dimension is ``2**(2n) - rank - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .encoding import (
    Event,
    HistorySet,
    domsize,
    history_items,
    hset_members,
    is_subset,
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

    Requires a causally complete space (which implies free choice).
    """
    if not is_causally_complete(space):
        raise ValueError("Space must be causally complete.")
    return _system(ext(space), tuple(sorted(space.events)))


def _system(hset: HistorySet, evs: tuple[Event, ...]) -> LinearSystem:
    """The rows of the non-maximal members of ``hset``, then of the empty history.

    ``hset`` is a join-closure on the sorted events ``evs``, or a union of
    such closures. A history's rows depend on nothing else: one per output
    assignment on its domain and per consecutive pair of total inputs
    extending it.
    """
    n = len(evs)
    inputs = total_assignments(evs)
    rows: list[tuple[int, ...]] = []
    for h in [h for h in hset_members(hset) if domsize(h) < n] + [0]:
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


def rank_of_rows(rows: Iterable[Sequence[int]], num_columns: int) -> int:
    """Exact rank over the rationals, by integer Gaussian elimination.

    Pivots on the first nonzero entry per column; updated rows are rescaled
    by their gcd so entries stay small. No floating point is involved.
    """
    matrix = [list(r) for r in dict.fromkeys(tuple(r) for r in rows) if any(r)]
    rank = 0
    for col in range(num_columns):
        piv = None
        for i in range(rank, len(matrix)):
            if matrix[i][col]:
                piv = i
                break
        if piv is None:
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        prow = matrix[rank]
        pval = prow[col]
        for i in range(rank + 1, len(matrix)):
            row = matrix[i]
            v = row[col]
            if not v:
                continue
            g = 0
            for j in range(col, num_columns):
                row[j] = row[j] * pval - prow[j] * v
                g = gcd(g, row[j])
            if g > 1:
                for j in range(col, num_columns):
                    row[j] //= g
        rank += 1
        if rank == len(matrix):
            break
    return rank


def rank(system: LinearSystem) -> int:
    """Exact rank of a system over the rationals."""
    return rank_of_rows(system.rows, system.num_columns)


def causaltope_dim(space: Space) -> int:
    """Dimension of the polytope of models compatible with a space.

    ``2**(2n) - rank - 1``: the homogeneous system plus the affine
    normalisation slice.
    """
    system = build_equations(space)
    return system.num_columns - rank(system) - 1


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
