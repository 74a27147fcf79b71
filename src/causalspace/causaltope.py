"""Linear equation systems for the standard empirical models of a space.

A standard empirical model assigns a probability to every (joint input,
joint output) pair, giving ``2**(2n)`` entries on ``n`` events; the column
for inputs ``i`` and outputs ``o`` is indexed as the ``2n``-bit word ``i o``
with the first event's bit most significant, so joint input ``i`` is the
``i``-th total assignment of ``total_assignments``.

Two homogeneous row families cut out the models compatible with a space:

* causality rows: for each non-maximal extended history ``h`` and each
  output assignment on its domain, the marginal probability of that output
  must agree across all total inputs extending ``h`` (one difference row
  per consecutive pair of extending inputs);
* quasi-normalisation rows: the total mass must agree across all joint
  inputs (one difference row per consecutive pair).

The affine polytope of models additionally fixes the total mass to one,
which is why its dimension is ``2**(2n) - rank - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Literal, Sequence

from .encoding import domsize, history_items, hset_members, is_subset, total_assignments
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


def build_equations(
    space: Space, *, pairs: Literal["consecutive", "all"] = "consecutive"
) -> LinearSystem:
    """The causality and quasi-normalisation system for a space.

    Requires a causally complete space (which implies free choice). The
    ``pairs`` keyword selects how marginal-agreement constraints are spread
    over the extending inputs; any spanning choice has the same rank, and
    ``"consecutive"`` is the standard row layout.
    """
    if not is_causally_complete(space):
        raise ValueError("Space must be causally complete.")
    evs = tuple(sorted(space.events))
    n = len(evs)
    pos = {e: i for i, e in enumerate(evs)}
    num_cols = 1 << (2 * n)
    inputs = total_assignments(evs)
    rows: list[tuple[int, ...]] = []

    def pair_indices(count: int) -> Iterable[tuple[int, int]]:
        if pairs == "consecutive":
            return ((j, j + 1) for j in range(count - 1))
        return ((a, b) for a in range(count) for b in range(a + 1, count))

    for h in hset_members(ext(space)):
        d = domsize(h)
        if d == n:
            continue
        dom_positions = [pos[e] for e, _ in history_items(h)]
        comp_positions = [p for p in range(n) if p not in dom_positions]
        ext_inputs = [i for i, k in enumerate(inputs) if is_subset(h, k)]
        for o_bits in range(1 << d):
            base = 0
            for i, p in enumerate(dom_positions):
                if o_bits & (1 << (d - 1 - i)):
                    base |= 1 << (n - 1 - p)
            outputs = []
            for o_comp in range(1 << len(comp_positions)):
                o_full = base
                for i, p in enumerate(comp_positions):
                    if o_comp & (1 << (len(comp_positions) - 1 - i)):
                        o_full |= 1 << (n - 1 - p)
                outputs.append(o_full)
            for a, b in pair_indices(len(ext_inputs)):
                row = [0] * num_cols
                for o_full in outputs:
                    row[(ext_inputs[a] << n) | o_full] += 1
                    row[(ext_inputs[b] << n) | o_full] -= 1
                rows.append(tuple(row))

    for j in range(len(inputs) - 1):
        row = [0] * num_cols
        for o_full in range(1 << n):
            row[(j << n) | o_full] += 1
            row[((j + 1) << n) | o_full] -= 1
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


def combined_rank(systems: Iterable[LinearSystem]) -> int:
    """Exact rank of several systems stacked into one."""
    systems = list(systems)
    if not systems:
        return 0
    num_cols = systems[0].num_columns
    if any(s.num_columns != num_cols for s in systems):
        raise ValueError("Systems must share the same column space.")
    return rank_of_rows((r for s in systems for r in s.rows), num_cols)


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
