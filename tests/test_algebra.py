"""Path-class bases, multiplication and opposites on the fixture algebras."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectilt import fixtures
from rectilt.algebra import (
    Arrow,
    BoundQuiverAlgebra,
    Path,
    Quiver,
    Relation,
    algebra_from_json,
    build_algebra,
)
from rectilt.errors import CapExceeded, RectiltError, RelationIllFormed


a2 = fixtures.inner_algebra
a3_bound = fixtures.outer_algebra
glued = fixtures.glued_algebra


def test_a2_dimension_and_basis():
    A = a2()
    assert A.dimension == 3
    lengths = sorted(len(p) for p in A.basis)
    assert lengths == [0, 0, 1]


def test_a3_with_zero_relation_has_dimension_five():
    # paths: e3,e4,e5,alpha,beta,beta*alpha; the relation kills one
    A = a3_bound()
    assert A.dimension == 5
    assert all(len(p) <= 1 for p in A.basis)


def test_glued_algebra_dimension_eleven():
    # triangular-matrix dimension 3 + 5 + 3
    A = glued()
    assert A.dimension == 11
    assert len(A.paths_between("3", "2")) == 1  # gamma*alpha = delta*epsilon


def test_idempotents_and_vertex_dims_sum():
    A = glued()
    total = 0
    for i in A.vertices:
        for j in A.vertices:
            total += len(A.paths_between(i, j))
    assert total == A.dimension
    one = A.unit()
    for i in range(A.dimension):
        x = {i: Fraction(1)}
        assert A.multiply(one, x) == x
        assert A.multiply(x, one) == x


def test_multiply_respects_composition_convention():
    A = a2()
    e1 = {A.trivial_index("1"): Fraction(1)}
    (ai,) = [i for i, p in enumerate(A.basis) if p.arrows == ("a",)]
    a = {ai: Fraction(1)}
    # a = e2 a e1: a * e1 = a, e1 * a = 0
    assert A.multiply(a, e1) == a
    assert A.multiply(e1, a) == {}


def test_corrupted_product_table_is_not_associative():
    A = a2()
    e1 = A.trivial_index("1")
    (ai,) = [i for i, p in enumerate(A.basis) if p.arrows == ("a",)]
    # a * e1 = 2a breaks (a * e1) * e1 = a * (e1 * e1)
    A._mult[(ai, e1)] = {ai: Fraction(2)}
    with pytest.raises(RectiltError, match="not associative"):
        A._check_associative()


def test_beta_alpha_is_zero_in_bound_a3():
    A = a3_bound()
    (ai,) = [i for i, p in enumerate(A.basis) if p.arrows == ("alpha",)]
    (bi,) = [i for i, p in enumerate(A.basis) if p.arrows == ("beta",)]
    assert A.multiply({bi: Fraction(1)}, {ai: Fraction(1)}) == {}


def test_commutativity_relation_identifies_paths():
    A = glued()
    (ga,) = [i for i, p in enumerate(A.basis) if p.arrows == ("alpha", "gamma")]
    (d,) = [i for i, p in enumerate(A.basis) if p.arrows == ("delta",)]
    (e,) = [i for i, p in enumerate(A.basis) if p.arrows == ("epsilon",)]
    # delta * epsilon reduces to the class of gamma*alpha
    assert A.multiply({d: Fraction(1)}, {e: Fraction(1)}) == {ga: Fraction(1)}


def test_opposite_preserves_dimension_and_reverses_products():
    for A in (a2(), a3_bound(), glued()):
        op = A.opposite()
        assert op.dimension == A.dimension
        assert op.opposite() is A
    A = a3_bound()
    op = A.opposite()
    (ai,) = [i for i, p in enumerate(op.basis) if p.arrows == ("alpha",)]
    (bi,) = [i for i, p in enumerate(op.basis) if p.arrows == ("beta",)]
    # reversed relation alpha^op * beta^op = 0
    assert op.multiply({ai: Fraction(1)}, {bi: Fraction(1)}) == {}


def test_cap_exceeded_on_unbounded_loop():
    q = Quiver(["1"], [("x", "1", "1")])
    with pytest.raises(CapExceeded):
        build_algebra(q, [], 4)


def test_loop_with_nilpotency_relation_is_finite():
    q = Quiver(["1"], [("x", "1", "1")])
    A = build_algebra(q, [Relation([(1, ("x", "x", "x"))])], 10)
    assert A.dimension == 3  # e, x, x^2


def test_ill_formed_relations_rejected():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(RelationIllFormed):
        build_algebra(q, [Relation([(1, ("a",))])], 5)
    q2 = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    with pytest.raises(RelationIllFormed):
        # terms not parallel: a*b goes 1->3 but b alone needs length >= 2 anyway
        build_algebra(q2, [Relation([(1, ("a", "b")), (1, ("b", "a"))])], 5)


def test_relation_rejects_a_float_coefficient():
    with pytest.raises(TypeError, match="float"):
        Relation([(0.1, ("a", "b"))])
    assert Relation([("1/10", ("a", "b"))]).terms == ((Fraction(1, 10), ("a", "b")),)


def test_json_round_trip():
    A = glued()
    data = A.to_json()
    B = algebra_from_json(data, 10)
    assert B.dimension == A.dimension
    assert [p.arrows for p in B.basis] == [p.arrows for p in A.basis]


def test_rename_arrows_matches_target_names():
    A = glued()
    # the inner part uses delta; the standalone fixture calls it a
    renamed = A.rename_arrows({"delta": "a"})
    assert renamed.dimension == A.dimension
    assert any(p.arrows == ("a",) for p in renamed.basis)


# -- the associativity check against the exhaustive loop ----------------------------

def exhaustive_associativity_failure(A):
    """The first basis triple, over all d^3 of them, where the table is not associative."""
    d = A.dimension
    for i in range(d):
        for j in range(d):
            ij = A._mult.get((i, j), {})
            for k in range(d):
                jk = A._mult.get((j, k), {})
                left, right = {}, {}
                for t, c in ij.items():
                    for u, cu in A._mult.get((t, k), {}).items():
                        left[u] = left.get(u, 0) + c * cu
                for t, c in jk.items():
                    for u, cu in A._mult.get((i, t), {}).items():
                        right[u] = right.get(u, 0) + c * cu
                if any(left.get(u, 0) != right.get(u, 0) for u in set(left) | set(right)):
                    return i, j, k
    return None


def composable_check_failure(A):
    """The triple ``_check_associative`` names, or None when it passes."""
    try:
        A._check_associative()
    except RectiltError as exc:
        return tuple(int(x) for x in str(exc).split("(")[1].rstrip(")").split(","))
    return None


@st.composite
def type_a_zero_relation_algebras(draw):
    """A type A quiver on <= 6 vertices, random orientation, random length-2 zero relations."""
    n = draw(st.integers(2, 6))
    forward = [draw(st.booleans()) for _ in range(n - 1)]
    arrows = [(f"x{k}", str(k), str(k + 1)) if forward[k - 1] else
              (f"x{k}", str(k + 1), str(k)) for k in range(1, n)]
    relations = []
    for k in range(1, n - 1):
        if forward[k - 1] == forward[k] and draw(st.booleans()):
            path = (f"x{k}", f"x{k + 1}") if forward[k - 1] else (f"x{k + 1}", f"x{k}")
            relations.append(Relation([(1, path)]))
    return build_algebra(Quiver([str(v) for v in range(1, n + 1)], arrows), relations, 10)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(type_a_zero_relation_algebras(), st.data())
def test_associativity_check_agrees_with_exhaustive_loop(A, data):
    assert composable_check_failure(A) is None
    assert exhaustive_associativity_failure(A) is None
    # rewrite one product with a random combination of the basis paths parallel to it
    (i, j) = data.draw(st.sampled_from(sorted(A._mult)))
    src, tgt = A.basis[j].source, A.basis_target(i)
    parallel = A.paths_between(src, tgt)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(parallel),
                                max_size=len(parallel)))
    A._mult[(i, j)] = {b: Fraction(c) for b, c in zip(parallel, coeffs) if c}
    assert composable_check_failure(A) == exhaustive_associativity_failure(A)


def test_associativity_check_agrees_on_fixture_algebras(
        inner, outer, glued, product_algebra, mutated_algebra):
    for A in (inner, outer, glued, product_algebra, mutated_algebra):
        assert composable_check_failure(A) is None
        assert exhaustive_associativity_failure(A) is None


def test_corruption_inside_a_path_is_not_associative():
    A = build_algebra(Quiver(["1", "2", "3"], [("x1", "1", "2"), ("x2", "2", "3")]), [], 10)
    e2 = A.trivial_index("2")
    x1, x2 = A.arrow_index("x1"), A.arrow_index("x2")
    # e2 * x1 = 0 breaks (x2 * e2) * x1 = x2 * (e2 * x1); no identity at either end
    A._mult[(e2, x1)] = {}
    assert exhaustive_associativity_failure(A) == (x2, e2, x1)
    with pytest.raises(RectiltError, match=rf"not associative at \({x2},{e2},{x1}\)"):
        A._check_associative()


def test_paths_between_is_memoized_and_matches_a_scan():
    A = glued()
    for s in A.vertices:
        for t in A.vertices:
            found = A.paths_between(s, t)
            assert isinstance(found, tuple)
            assert found is A.paths_between(s, t)
            assert found == tuple(i for i, p in enumerate(A.basis)
                                  if p.source == s and A.basis_target(i) == t)


def test_quiver_objects_hold_no_instance_dict():
    # an algebra keeps its quiver, arrows, basis paths and relations for its whole life
    A = glued()
    arrow, path, rel = A.arrows[0], A.basis[-1], A.relations[0]
    for obj in (A.quiver, arrow, path, rel):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    for obj, field in ((arrow, "name"), (path, "source")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, "z")
    for cls, fields in ((Arrow, ("a", "1", "2")), (Path, ("1", ("a", "b")))):
        x, y = cls(*fields), cls(*fields)
        assert x == y and x is not y and hash(x) == hash(y) == hash(fields)
        assert x != cls(*fields[:-1], "3") and len({x, y}) == 1
