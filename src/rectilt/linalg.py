"""Exact dense linear algebra over the rationals.

Everything downstream (hom spaces, resolutions, tensor products) bottoms
out in the four operations here: :func:`rref`, :func:`kernel_basis`,
:func:`solve` and :func:`quotient`.  Entries are ``fractions.Fraction``
values, so every result is exact; there are no tolerances anywhere.

One integer kernel, :func:`reduce_rows`, does every elimination:
each rational row is scaled to integers by the lcm of its denominators,
which changes neither row space nor solution set.  ``Fraction`` objects
are built only at the edge.  The public ``Mat`` constructor coerces and
checks what callers pass in; elimination results are rebuilt once, one
``Fraction(n, pivot)`` per nonzero entry; and every matrix this module
assembles from matrices it already holds goes through the trusted
``Mat._trusted``, which neither coerces nor checks.

Integer rows also enter from outside, through :func:`int_kernel`:
``rep`` builds its intertwining systems and the polynomials of its
splitting endomorphisms in integers, and hands them straight to the
elimination, so the only ``Fraction`` objects made there are those of
the kernel basis it returns.  The same elimination also gives that
kernel as integer vectors (``_kernel_ints``), each basis vector scaled
by the lcm of the pivots it meets; a question that needs only a rank
or a dimension reads those, and no ``Fraction`` is made at all.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import RectiltError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def format_fraction(x: Fraction) -> str:
    """Canonical string form: ``"0"``, ``"-3"``, ``"5/7"``."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    return Fraction(s)


def _exact(x) -> Fraction:
    """``Fraction(x)`` for an entry that is not one yet; a float is refused.

    ``Fraction(0.1)`` is the binary value 3602879701896397/36028797018963968,
    not 1/10, so a float entry would silently change the matrix.
    """
    if isinstance(x, float):
        raise TypeError(f"matrix entries must be exact, not the float {x!r}")
    return Fraction(x)


class Mat:
    """An immutable rows x cols matrix of Fractions.

    Zero-row and zero-column matrices are first class; they show up
    constantly as maps to or from zero spaces.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        entries = tuple(tuple(x if type(x) is Fraction else _exact(x) for x in row)
                        for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entry grid does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple) -> "Mat":
        """A matrix over ``entries`` as given: no coercion, no shape check.

        Only for grids that are already a ``rows``-tuple of ``cols``-tuples
        of ``Fraction``: those built inside this module, and slices of
        their entries.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def from_rows(cls, entries) -> "Mat":
        entries = [list(r) for r in entries]
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return cls._trusted(rows, cols, ((_ZERO,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        if n < 0:
            raise ValueError("negative matrix dimensions")
        return cls._trusted(n, n, tuple(_unit_row(n, i) for i in range(n)))

    @classmethod
    def column(cls, values) -> "Mat":
        values = list(values)
        return cls(len(values), 1, [[v] for v in values])

    # -- basics ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(format_fraction(x) for x in row) for row in self.entries)
        return f"Mat({self.rows}x{self.cols}: [{body}])"

    def __getitem__(self, rc):
        i, j = rc
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return not any(x for row in self.entries for x in row)

    def row(self, i) -> list:
        return list(self.entries[i])

    def col(self, j) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._trusted(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._trusted(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "Mat":
        return Mat._trusted(self.rows, self.cols,
                            tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat._trusted(self.rows, self.cols,
                            tuple(tuple(c * a for a in row) for row in self.entries))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ocols = other.cols
        out = []
        for srow in self.entries:
            orow = [_ZERO] * ocols
            for a, trow in zip(srow, other.entries):
                if a == 0:
                    continue
                for j in range(ocols):
                    b = trow[j]
                    if b != 0:
                        orow[j] += a * b
            out.append(tuple(orow))
        return Mat._trusted(self.rows, ocols, tuple(out))

    def transpose(self) -> "Mat":
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Mat._trusted(self.cols, self.rows, entries)

    def _same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- stacking ----------------------------------------------------

    @staticmethod
    def hstack(mats, rows: int | None = None) -> "Mat":
        mats = list(mats)
        if not mats:
            if rows is None:
                raise ValueError("hstack of nothing needs an explicit row count")
            return Mat.zeros(rows, 0)
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack row mismatch")
        entries = tuple(tuple(chain.from_iterable(m.entries[i] for m in mats))
                        for i in range(rows))
        return Mat._trusted(rows, sum(m.cols for m in mats), entries)

    @staticmethod
    def vstack(mats, cols: int | None = None) -> "Mat":
        mats = list(mats)
        if not mats:
            if cols is None:
                raise ValueError("vstack of nothing needs an explicit column count")
            return Mat.zeros(0, cols)
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack column mismatch")
        entries = tuple(row for m in mats for row in m.entries)
        return Mat._trusted(len(entries), cols, entries)

    @staticmethod
    def block_diag(mats) -> "Mat":
        mats = list(mats)
        cols = sum(m.cols for m in mats)
        out = []
        c0 = 0
        for m in mats:
            left = (_ZERO,) * c0
            right = (_ZERO,) * (cols - c0 - m.cols)
            out.extend(left + row + right for row in m.entries)
            c0 += m.cols
        return Mat._trusted(len(out), cols, tuple(out))

    def submatrix(self, row_range, col_range) -> "Mat":
        rr = list(row_range)
        cc = list(col_range)
        return Mat._trusted(len(rr), len(cc),
                            tuple(tuple(self.entries[i][j] for j in cc) for i in rr))

    # -- serialization -----------------------------------------------

    def to_json(self):
        return [[format_fraction(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, data, rows: int | None = None, cols: int | None = None) -> "Mat":
        entries = [[parse_fraction(x) for x in row] for row in data]
        r = len(entries) if rows is None else rows
        if entries:
            c = len(entries[0])
        elif cols is not None:
            c = cols
        else:
            c = 0
        if rows is not None and len(entries) != rows and entries:
            raise ValueError("matrix JSON row count mismatch")
        if not entries and r > 0:
            # n x 0 matrices serialize as [] only when rows are implied
            entries = [[] for _ in range(r)]
        return cls(r, c, entries)


def _unit_row(n: int, i: int) -> tuple:
    return (_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - i - 1)


# -- elimination-backed operations ------------------------------------


def _to_int_rows(mat: Mat, extra: Mat | None = None) -> list[list[int]]:
    """Scale each (possibly augmented) row to integers by its denominators' lcm."""
    rows = mat.entries if extra is None else map(tuple.__add__, mat.entries, extra.entries)
    out = []
    for row in rows:
        mult = lcm(*[x.denominator for x in row])
        if mult == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (mult // x.denominator) for x in row])
    return out


def reduce_rows(rows, ncols):
    """Row reduce integer ``rows`` in place to Gauss-Jordan form.

    Pivoting is deterministic: leftmost pivot column, topmost nonzero
    row.  Returns ``(pivot_rows, pivots)`` where ``pivot_rows`` are the
    nonzero rows (one per pivot, in pivot-column order) and ``pivots``
    is the strictly increasing list of pivot columns.  Each pivot column
    is zero in every other returned row.  Entries are arbitrary-precision
    integers; each updated row is divided by the gcd of its entries to
    keep coefficient growth in check.
    """
    m = len(rows)
    done = 0
    pivots = []
    for col in range(ncols):
        pivot_row = -1
        for i in range(done, m):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != done:
            rows[done], rows[pivot_row] = rows[pivot_row], rows[done]
        prow = rows[done]
        p = prow[col]
        for i in range(m):
            if i == done:
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
        done += 1
    return rows[:done], pivots


def _over(ints, p: int) -> tuple:
    """The rational row ``ints / p``, sharing ``_ZERO`` for zero entries."""
    if p == 1:
        return tuple(Fraction(n) if n else _ZERO for n in ints)
    return tuple(Fraction(n, p) if n else _ZERO for n in ints)


def rref(mat: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and its pivot columns.

    The RREF of a matrix is unique, so the output does not depend on how
    the kernel scales its integer rows; pivots are strictly increasing.
    """
    if mat.rows == 0 or mat.cols == 0:
        return Mat.zeros(mat.rows, mat.cols), []
    reduced, pivots = reduce_rows(_to_int_rows(mat), mat.cols)
    out = [_over(row, row[c]) for row, c in zip(reduced, pivots)]
    out.extend([(_ZERO,) * mat.cols] * (mat.rows - len(out)))
    return Mat._trusted(mat.rows, mat.cols, tuple(out)), pivots


def rank(mat: Mat) -> int:
    return len(rref(mat)[1])


def int_kernel(rows: list[list[int]], ncols: int) -> Mat:
    """:func:`kernel_basis` of the integer ``rows``, which it reduces in place.

    Pivot column c of free column j holds ``-row[j] / row[c]``.  Scaling
    a row by a nonzero integer changes nothing, so callers may clear
    denominators row by row.
    """
    reduced, pivots = reduce_rows(rows, ncols)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    out = [None] * ncols
    for k, j in enumerate(free):
        out[j] = _unit_row(len(free), k)
    for row, c in zip(reduced, pivots):
        p = row[c]
        out[c] = tuple(Fraction(-row[j], p) if row[j] else _ZERO for j in free)
    return Mat._trusted(ncols, len(free), tuple(out))


def _kernel_ints(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """:func:`int_kernel`'s basis vectors, each scaled to integers, as lists.

    The same elimination: free column j gets the lcm L of the pivots of
    the rows it meets, and pivot column c of such a row gets ``-row[j] *
    L / row[c]``, so vector j is ``int_kernel``'s column j times L.  No
    ``Fraction`` is made.
    """
    reduced, pivots = reduce_rows(rows, ncols)
    pivot_set = set(pivots)
    out = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        met = [(row, c) for row, c in zip(reduced, pivots) if row[j]]
        scale = lcm(*(row[c] for row, c in met))
        vec = [0] * ncols
        vec[j] = scale
        for row, c in met:
            vec[c] = -row[j] * (scale // row[c])
        out.append(vec)
    return out


def kernel_basis(mat: Mat) -> Mat:
    """Columns spanning the null space, one per free column of the RREF.

    The basis is canonical: free variable ``j`` contributes the vector
    with 1 at position ``j`` and the negated RREF column above the
    pivots, in increasing ``j`` order.
    """
    return int_kernel(_to_int_rows(mat), mat.cols)


def solve(mat: Mat, rhs: Mat) -> Mat | None:
    """An exact solution ``X`` of ``mat @ X = rhs``, or None if none exists.

    The particular solution is canonical: all free variables are zero.
    """
    if mat.rows != rhs.rows:
        raise ValueError("solve: row counts differ")
    if mat.cols == 0:
        return Mat.zeros(0, rhs.cols) if rhs.is_zero() else None
    if mat.rows == 0:
        return Mat.zeros(mat.cols, rhs.cols)
    n = mat.cols
    reduced, pivots = reduce_rows(_to_int_rows(mat, rhs), n + rhs.cols)
    if pivots and pivots[-1] >= n:
        return None
    out = [(_ZERO,) * rhs.cols] * n
    for row, c in zip(reduced, pivots):
        out[c] = _over(row[n:], row[c])
    return Mat._trusted(n, rhs.cols, tuple(out))


def col_basis(mat: Mat) -> Mat:
    """Canonical basis of the column space (RREF rows transposed)."""
    r, pivots = rref(mat.transpose())
    return Mat._trusted(len(pivots), mat.rows, r.entries[:len(pivots)]).transpose()


def quotient(ambient_dim: int, subspace: Mat) -> tuple[int, Mat]:
    """The quotient of ``Q^ambient_dim`` by the column span of ``subspace``.

    Returns ``(dim, projection)`` with the projection surjective and its
    kernel exactly the span.  Canonical choice: the quotient coordinates
    are the non-pivot coordinates of the span's RREF basis.
    """
    if subspace.rows != ambient_dim:
        raise ValueError("subspace columns live in the wrong ambient dimension")
    r, pivots = rref(subspace.transpose())
    rk = len(pivots)
    pivot_set = set(pivots)
    # columns: the span's RREF basis, then the unit vectors it leaves out
    change = Mat._trusted(ambient_dim, ambient_dim, r.entries[:rk] + tuple(
        _unit_row(ambient_dim, j) for j in range(ambient_dim) if j not in pivot_set)
    ).transpose()
    inv = solve(change, Mat.identity(ambient_dim))
    if inv is None:
        raise RectiltError("quotient: change of basis is not invertible")
    proj = inv.submatrix(range(rk, ambient_dim), range(ambient_dim))
    return ambient_dim - rk, proj

