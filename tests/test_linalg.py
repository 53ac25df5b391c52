"""Exact linear algebra: frozen examples, invariants, a naive reference."""

import random
from fractions import Fraction

import pytest

from rectilt import linalg
from rectilt.errors import RectiltError
from rectilt.linalg import (Mat, _kernel_ints, _to_int_rows, col_basis, int_kernel,
                            kernel_basis, parse_fraction, quotient, rank, rref, solve)


def M(rows):
    return Mat.from_rows([[Fraction(x) for x in row] for row in rows])


def _random_mat(rng, rows, cols, scale=5):
    return Mat(rows, cols,
               [[Fraction(rng.randint(-scale, scale), rng.choice([1, 1, 2, 3]))
                 for _ in range(cols)] for _ in range(rows)])


# -- rref --------------------------------------------------------------

def test_rref_identity():
    r, pivots = rref(Mat.identity(2))
    assert r == Mat.identity(2)
    assert pivots == [0, 1]


def test_rref_rank_one():
    r, pivots = rref(M([[2, 4], [1, 2]]))
    assert r == M([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_invertible_two_by_two():
    # hand elimination: R2 -= 3 R1 -> [[1,2],[0,-2]]; scale; clear above.
    r, pivots = rref(M([[1, 2], [3, 4]]))
    assert r == Mat.identity(2)
    assert pivots == [0, 1]


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(0)
    for _ in range(25):
        m = _random_mat(rng, rng.randint(0, 6), rng.randint(0, 6))
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert r1 == r2
        assert p1 == p2


# -- kernel ------------------------------------------------------------

def test_kernel_of_identity_is_empty():
    k = kernel_basis(Mat.identity(3))
    assert (k.rows, k.cols) == (3, 0)


def test_kernel_of_zero_matrix_is_full():
    k = kernel_basis(Mat.zeros(2, 3))
    assert k.cols == 3


def test_kernel_single_row():
    # x + 2y = 0 has solution line through (-2, 1)
    k = kernel_basis(M([[1, 2]]))
    assert k.cols == 1
    x, y = k[0, 0], k[1, 0]
    assert y != 0 and x / y == Fraction(-2)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(1)
    for _ in range(30):
        m = _random_mat(rng, rng.randint(0, 5), rng.randint(0, 5))
        k = kernel_basis(m)
        assert rank(m) + k.cols == m.cols
        if k.cols:
            assert (m @ k).is_zero()
        assert rank(k) == k.cols


# -- solve -------------------------------------------------------------

def test_solve_identity():
    b = M([[3], [-7]])
    assert solve(Mat.identity(2), b) == b


def test_solve_inconsistent():
    assert solve(M([[1], [0]]), M([[0], [1]])) is None


def test_solve_underdetermined_verified_by_substitution():
    m = M([[1, 1]])
    rhs = M([[3]])
    x = solve(m, rhs)
    assert x is not None
    assert m @ x == rhs


def test_solve_plus_kernel_still_solves():
    rng = random.Random(2)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_mat(rng, rows, cols)
        x0 = Mat(cols, 1, [[Fraction(rng.randint(-3, 3))] for _ in range(cols)])
        rhs = m @ x0
        x = solve(m, rhs)
        assert x is not None and m @ x == rhs
        k = kernel_basis(m)
        if k.cols:
            shift = k @ Mat(k.cols, 1, [[Fraction(rng.randint(-3, 3))] for _ in range(k.cols)])
            assert m @ (x + shift) == rhs


# -- quotient ----------------------------------------------------------

def test_quotient_by_full_space():
    dim, proj = quotient(2, Mat.identity(2))
    assert dim == 0
    assert proj.rows == 0 and proj.cols == 2


def test_quotient_by_zero_space():
    dim, proj = quotient(3, Mat.zeros(3, 0))
    assert dim == 3
    assert proj == Mat.identity(3)


def test_quotient_kills_exactly_the_span():
    sub = M([[1], [1], [0]])
    dim, proj = quotient(3, sub)
    assert dim == 2
    assert (proj @ sub).is_zero()
    assert rank(proj) == 2


def test_quotient_kernel_is_span_on_random_subspaces():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 6)
        sub = _random_mat(rng, n, rng.randint(0, n))
        dim, proj = quotient(n, sub)
        assert dim == n - rank(sub)
        assert (proj @ sub).is_zero()
        assert kernel_basis(proj).cols == rank(sub)


# -- misc --------------------------------------------------------------

def test_exact_arithmetic_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        num = rng.randint(1, 50)
        den = rng.randint(1, 50)
        q = Fraction(num, den)
        assert q * (1 / q) == 1


def test_col_basis_spans_columns():
    m = M([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    b = col_basis(m)
    assert b.cols == rank(m)
    for j in range(m.cols):
        c = Mat.column(m.col(j))
        assert solve(b, c) is not None


def test_empty_shapes_are_legal():
    z = Mat.zeros(0, 3)
    r, pivots = rref(z)
    assert (r.rows, r.cols) == (0, 3) and pivots == []
    assert kernel_basis(z).cols == 3
    # with no unknowns, only a zero right-hand side is consistent
    assert solve(Mat.zeros(3, 0), M([[1, 0], [0, 0], [0, 0]])) is None
    assert solve(Mat.zeros(3, 0), Mat.zeros(3, 2)) == Mat.zeros(0, 2)


def test_quotient_raises_when_change_of_basis_is_singular(monkeypatch):
    # the check must be an error, not an assert that ``python -O`` strips
    monkeypatch.setattr(linalg, "solve", lambda mat, rhs: None)
    with pytest.raises(RectiltError):
        quotient(2, M([[1], [0]]))


# -- constructors --------------------------------------------------------

def _assert_fraction_grid(m):
    assert type(m.entries) is tuple and len(m.entries) == m.rows
    assert all(type(row) is tuple and len(row) == m.cols for row in m.entries)
    assert all(type(x) is Fraction for row in m.entries for x in row)


def test_trusted_results_match_the_public_constructor():
    a = M([[1, 2], [3, 4]])
    b = Mat(2, 2, [["1/2", 0], [0, -1]])
    prod = a @ b
    want = Mat.from_rows([[Fraction(1, 2), -2], [Fraction(3, 2), -4]])
    assert prod == want and hash(prod) == hash(want)
    results = [
        prod, a + b, a - b, -a, a.scale("2/3"), a.transpose(), Mat.zeros(0, 2).transpose(),
        Mat.hstack([a, b]), Mat.vstack([a, b]), Mat.block_diag([a, Mat.zeros(1, 0), b]),
        a.submatrix([1], [1, 0]), Mat.identity(3), Mat.zeros(2, 3),
        rref(a)[0], solve(a, b), kernel_basis(M([[1, 2, 3]])), col_basis(a),
        quotient(2, M([[1], [1]]))[1],
    ]
    for m in results:
        _assert_fraction_grid(m)
        public = Mat(m.rows, m.cols, [list(row) for row in m.entries])
        assert m == public and hash(m) == hash(public)


def test_public_constructor_coerces_and_checks_shape():
    m = Mat(2, 2, [[1, "2/3"], [Fraction(-5), "7"]])
    _assert_fraction_grid(m)
    assert m.entries == ((1, Fraction(2, 3)), (-5, 7))
    with pytest.raises(ValueError):
        Mat(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        Mat(-1, 0, [])
    with pytest.raises(ValueError):
        Mat.zeros(2, -1)
    with pytest.raises(ValueError):
        Mat.identity(-1)


def test_public_constructor_rejects_float_entries():
    # Fraction(0.1) would store 3602879701896397/36028797018963968, not 1/10
    for grid in ([[0.1]], [[1, 0.5]], [[Fraction(1, 2)], [2.0]]):
        with pytest.raises(TypeError, match="float"):
            Mat(len(grid), len(grid[0]), grid)
    with pytest.raises(TypeError, match="float"):
        Mat.from_rows([[0, 0.25]])
    assert Mat(1, 2, [["0.1", Fraction(1, 10)]]).entries == ((Fraction(1, 10),) * 2,)


def test_scale_rejects_a_float():
    with pytest.raises(TypeError, match="float"):
        Mat.identity(2).scale(0.1)
    assert Mat.identity(1).scale("1/10") == Mat(1, 1, [[Fraction(1, 10)]])


def test_parse_fraction_and_matrix_json_reject_floats():
    with pytest.raises(TypeError, match="float"):
        parse_fraction(0.1)
    with pytest.raises(TypeError, match="float"):
        Mat.from_json([["1", 0.5]])
    assert Mat.from_json([["1", "1/2"]]) == Mat(1, 2, [[1, Fraction(1, 2)]])


# -- differential test against textbook Fraction elimination ---------------

def _naive_rref(rows, ncols):
    """Gauss-Jordan on lists of Fractions: divide by the pivot, clear the column."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _naive_solve(m, rhs):
    n = m.cols
    red, pivots = _naive_rref([m.row(i) + rhs.row(i) for i in range(m.rows)], n + rhs.cols)
    if pivots and pivots[-1] >= n:
        return None
    x = [[Fraction(0)] * rhs.cols for _ in range(n)]
    for i, c in enumerate(pivots):
        x[c] = red[i][n:]
    return Mat(n, rhs.cols, x)


def _naive_kernel(m):
    red, pivots = _naive_rref([m.row(i) for i in range(m.rows)], m.cols)
    free = [j for j in range(m.cols) if j not in pivots]
    cols = []
    for j in free:
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][j]
        cols.append(v)
    return Mat(m.cols, len(free), [[v[i] for v in cols] for i in range(m.cols)])


def _sparse_random_mat(rng, rows, cols):
    """``_random_mat`` with some rows and columns forced to zero."""
    m = _random_mat(rng, rows, cols)
    dead_rows = {i for i in range(rows) if rng.random() < 0.2}
    dead_cols = {j for j in range(cols) if rng.random() < 0.2}
    return Mat(rows, cols, [[0 if i in dead_rows or j in dead_cols else m[i, j]
                             for j in range(cols)] for i in range(rows)])


def test_matches_naive_fraction_gauss_jordan():
    rng = random.Random(5)
    inconsistent = 0
    for trial in range(150):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _sparse_random_mat(rng, rows, cols)
        if trial % 2:
            # rank at most one, so most right-hand sides are out of reach
            m = _sparse_random_mat(rng, rows, 1) @ _sparse_random_mat(rng, 1, cols)
        rhs = _sparse_random_mat(rng, rows, rng.randint(0, 3))
        red, pivots = _naive_rref([m.row(i) for i in range(rows)], cols)
        assert rref(m) == (Mat(rows, cols, red), pivots)
        assert kernel_basis(m) == _naive_kernel(m)
        want = _naive_solve(m, rhs)
        assert solve(m, rhs) == want
        inconsistent += want is None
    assert inconsistent >= 20


def test_int_kernel_is_kernel_basis_on_integer_rows():
    # integer and rational matrices, 0-row and 0-column shapes included
    rng = random.Random(9)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [(rng.randint(0, 6), rng.randint(0, 6))
                                                  for _ in range(60)]
    for k, (rows, cols) in enumerate(shapes):
        if k % 2:
            m = Mat(rows, cols, [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        else:
            m = _sparse_random_mat(rng, rows, cols)
        assert int_kernel(_to_int_rows(m), m.cols) == kernel_basis(m) == _naive_kernel(m)


def test_integer_kernel_vectors_are_int_kernel_scaled_to_integers():
    # vector j is int_kernel's column j times the integer at its free column j
    rng = random.Random(10)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [(rng.randint(0, 6), rng.randint(0, 6))
                                                  for _ in range(60)]
    for rows, cols in shapes:
        m = _sparse_random_mat(rng, rows, cols)
        basis = int_kernel(_to_int_rows(m), cols)
        vecs = _kernel_ints(_to_int_rows(m), cols)
        assert len(vecs) == basis.cols
        for k, vec in enumerate(vecs):
            assert all(type(x) is int for x in vec)
            free = next(j for j in range(cols) if basis[j, k] == 1 and vec[j])
            assert vec[free] > 0
            assert [Fraction(x, vec[free]) for x in vec] == basis.col(k)
