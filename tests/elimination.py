"""Exact rank by integer Gaussian elimination: the oracle for the counted rank.

It reads nothing but the rows, and shares no code with ``causaltope.rank``.
"""

from math import gcd
from typing import Iterable, Sequence


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
