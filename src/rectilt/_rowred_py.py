"""Integer Gauss-Jordan elimination: the one kernel under ``linalg``.

Rows hold arbitrary-precision integers; after each update a row is
divided by the gcd of its entries to keep coefficient growth in check.
"""

from math import gcd


def reduce_rows(rows, ncols):
    """Row reduce integer ``rows`` in place to Gauss-Jordan form.

    Pivoting is deterministic: leftmost pivot column, topmost nonzero
    row.  Returns ``(pivot_rows, pivots)`` where ``pivot_rows`` are the
    nonzero rows (one per pivot, in pivot-column order) and ``pivots``
    is the strictly increasing list of pivot columns.  Each pivot column
    is zero in every other returned row.
    """
    m = len(rows)
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot_row = -1
        for i in range(rank, m):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for i in range(m):
            if i == rank:
                continue
            row = rows[i]
            f = row[col]
            if f == 0:
                continue
            g = 0
            for j in range(ncols):
                v = p * row[j] - f * prow[j]
                row[j] = v
                if g != 1:
                    g = gcd(g, v)
            if g > 1:
                for j in range(ncols):
                    row[j] //= g
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots
