"""Reference answers that never call ``rectilt``.

Type A verdicts come from interval-module combinatorics; the paper's
worked example comes from the values its regression tests assert.

Conventions.  Vertices of a type A quiver are ``1..n`` on a line, and
arrow ``k`` joins vertices ``k`` and ``k + 1`` in either direction.  An
interval ``(a, b)`` with ``a <= b`` is the module with a one-dimensional
space at every vertex ``a..b`` and identity maps along the arrows between
them.
"""

from __future__ import annotations

from itertools import combinations


def intervals(n: int) -> list[tuple[int, int]]:
    """Every interval of ``1..n``, ordered by left end, then right end."""
    return [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def dim_vector(n: int, iv: tuple[int, int]) -> tuple[int, ...]:
    a, b = iv
    return tuple(1 if a <= v <= b else 0 for v in range(1, n + 1))


# -- linear A_n: 1 -> 2 -> ... -> n, no relations --------------------------


def linear_hom(x: tuple[int, int], y: tuple[int, int]) -> int:
    """dim Hom(M[x], M[y]) over linear A_n.

    Submodules of an interval are its right ends and quotients its left
    ends, so a nonzero map M[c, d] -> M[e, f] has image M[c, f] and
    exists iff ``e <= c <= f <= d``.
    """
    (c, d), (e, f) = x, y
    return 1 if e <= c <= f <= d else 0


def linear_ext1(n: int, x: tuple[int, int], y: tuple[int, int]) -> int:
    """dim Ext^1(M[x], M[y]) = dim Hom(M[y], tau M[x]) (hereditary AR formula).

    ``tau M[a, b] = M[a + 1, b + 1]`` unless ``b == n`` (then M[x] is
    projective and Ext vanishes).
    """
    a, b = x
    if b == n:
        return 0
    return linear_hom(y, (a + 1, b + 1))


def linear_verdict(n: int, summands) -> dict:
    """What a tilting certificate must report for a direct sum of intervals.

    Over a hereditary algebra ``T`` is tilting iff it is Ext-orthogonal
    and has ``n`` isomorphism classes of summands (Bongartz).
    """
    summands = list(summands)
    classes = set(summands)
    ext_self = sum(linear_ext1(n, x, y) for x in summands for y in summands)
    projective = all(b == n for _, b in summands)
    return {
        "pd": 0 if projective else 1,
        "ext1_self": ext_self,
        "indecomposable_count": len(classes),
        "tilting": ext_self == 0 and len(classes) == n,
    }


def linear_tilting_modules(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All basic tilting modules of linear A_n as sorted interval tuples."""
    return [s for s in combinations(intervals(n), n)
            if linear_verdict(n, s)["tilting"]]


def linear_non_tilting(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Basic n-subsets of intervals with a nonzero self-extension."""
    return [s for s in combinations(intervals(n), n)
            if not linear_verdict(n, s)["tilting"]]


# -- type A, any orientation, zero relations of length 2 ----------------------


def roster_dim_vectors(n: int, relations) -> list[tuple[int, ...]]:
    """Dimension vectors of all indecomposables, sorted.

    ``relations`` lists the zero relations as pairs ``(k, k + 1)`` of
    consecutive arrow indices.  The algebra is a string algebra without
    bands, so its indecomposables are the interval modules whose support
    contains no relation: both arrows of a relation lie in ``[a, b]``
    exactly when ``a <= k`` and ``k + 2 <= b``.
    """
    out = []
    for a, b in intervals(n):
        if any(a <= k and k + 2 <= b for k, _ in relations):
            continue
        out.append(dim_vector(n, (a, b)))
    return sorted(out)


# -- the paper's worked example --------------------------------------------------

GLUE_CASE1 = {
    "ext_dimension": 1,
    "summands": {(0, 0, 0, 0, 1), (0, 1, 0, 1, 1), (1, 1, 1, 1, 0),
                 (1, 1, 0, 1, 1), (1, 1, 0, 0, 0)},
    "partition_counts": (14, 1, 0),
}

GLUE_CASE2 = {
    "ext_dimension": 2,
    "summands": {(1, 1, 1, 1, 0), (0, 1, 0, 1, 1), (0, 1, 0, 1, 0),
                 (1, 1, 0, 1, 1), (1, 1, 0, 0, 0)},
    "partition_counts": (13, 2, 0),
}

RESTRICT_CASE3 = {
    "summands": {(0, 1, 0), (0, 1, 1), (1, 1, 0)},
    "holds": False,
    "free_witness": {"1": 0, "2": 0, "3": 0, "4": 1, "5": 1},
    "partition_equal": False,
    "torsion_class": [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)],
    "free_class": [(0, 0, 1), (0, 1, 1)],
}

RESTRICT_CASE4 = {
    "summands": {(0, 1, 0), (0, 1, 1), (1, 1, 0)},
    "holds": True,
    "free_witness": None,
    "partition_equal": True,
    "free_class": [(0, 0, 1)],
}

# dimension vectors of the glued summands that pick the case 3/4 modules
CASE3_PICK = [(0, 1, 0, 1, 0), (1, 1, 0, 1, 1), (0, 0, 0, 1, 1),
              (1, 1, 0, 1, 0), (1, 1, 1, 1, 0)]
CASE4_PICK = [(0, 1, 0, 1, 0), (0, 1, 0, 1, 1), (1, 1, 0, 1, 1),
              (0, 0, 0, 1, 1), (1, 1, 1, 1, 0)]

# the product split glues P(1) + S(1) with the regular outer module
PRODUCT_GLUE = {"ext_dimension": 0, "inner_summands": {(1, 1), (1, 0)}}

MUTATED_CULPRIT = "j_!"
