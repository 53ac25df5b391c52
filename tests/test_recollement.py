"""The six functors, exactness certificates and recollement identities."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rectilt import recollement as recollement_module
from rectilt.algebra import Quiver, Relation, build_algebra
from rectilt.errors import NotTriangular, RectiltError
from rectilt.homology import enumerate_roster
from rectilt.recollement import (
    apply_functor,
    bimodule_right,
    canonical_sequence,
    check_exactness,
    from_triple,
    i_shriek,
    i_star,
    i_upper_star,
    j_shriek,
    j_star_lower,
    j_star_upper,
    split_context,
    to_triple,
    verify_recollement_identities,
)
from rectilt.rep import hom_dim, injective, is_isomorphic, projective, simple


@pytest.fixture(scope="module")
def ctx(glued):
    return split_context(glued, ["3", "4", "5"])


@pytest.fixture(scope="module")
def product_ctx(product_algebra):
    return split_context(product_algebra, ["3", "4", "5"])


@pytest.fixture(scope="module")
def glued_roster(glued):
    return enumerate_roster(glued)


# -- splitting ------------------------------------------------------------

def test_split_recovers_parts(ctx, inner, outer):
    assert ctx.inner_algebra.dimension == 3
    assert ctx.outer_algebra.dimension == 5
    assert len(ctx.crossing_paths) == 3
    renamed = ctx.inner_algebra.rename_arrows({"delta": "a"})
    assert [p.arrows for p in renamed.basis] == [p.arrows for p in inner.basis]
    assert [p.arrows for p in ctx.outer_algebra.basis] == \
        [p.arrows for p in outer.basis]


def test_split_wrong_side_is_not_triangular(glued):
    with pytest.raises(NotTriangular):
        split_context(glued, ["1", "2"])


def test_subalgebra_check_is_an_error_not_an_assert(glued, monkeypatch):
    # a part built without its relations is too big; the check must survive ``python -O``
    def without_relations(quiver, relations, length_cap):
        return build_algebra(quiver, [], length_cap)

    monkeypatch.setattr(recollement_module, "build_algebra", without_relations)
    with pytest.raises(RectiltError, match="subalgebra basis"):
        split_context(glued, ["3", "4", "5"])


def test_product_split_has_zero_bimodule(product_ctx):
    assert product_ctx.crossing_paths == []
    n = bimodule_right(product_ctx)
    assert n.total_dim == 0


# -- functors on the worked example -----------------------------------------

def test_j_shriek_of_outer_projectives(ctx):
    out = ctx.outer_algebra
    assert j_shriek(ctx, projective(out, "5")).dim_vector() == (0, 0, 0, 0, 1)
    assert j_shriek(ctx, projective(out, "4")).dim_vector() == (0, 1, 0, 1, 1)
    assert j_shriek(ctx, projective(out, "3")).dim_vector() == (1, 1, 1, 1, 0)
    assert j_shriek(ctx, simple(out, "4")).dim_vector() == (0, 1, 0, 1, 0)
    assert j_shriek(ctx, simple(out, "3")).dim_vector() == (1, 0, 1, 0, 0)


def test_i_star_restricts_back(ctx):
    inn = ctx.inner_algebra
    s1 = simple(inn, "1")
    lifted = i_star(ctx, s1)
    assert lifted.dim_vector() == (1, 0, 0, 0, 0)
    assert j_star_upper(ctx, lifted).is_zero()
    assert i_shriek(ctx, lifted) == s1


def test_i_upper_star_is_cokernel_of_structure_map(ctx):
    out = ctx.outer_algebra
    # j_!(P(4)) has invertible structure map, so i* kills it
    assert i_upper_star(ctx, j_shriek(ctx, projective(out, "4"))).is_zero()
    # on an extension by zero, i* returns the inner part
    inn = ctx.inner_algebra
    p1 = projective(inn, "1")
    assert is_isomorphic(i_upper_star(ctx, i_star(ctx, p1)), p1)[0]


def test_apply_functor_names(ctx):
    out = ctx.outer_algebra
    y = projective(out, "4")
    assert apply_functor(ctx, "j_!", y).dim_vector() == (0, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        apply_functor(ctx, "q*", y)


# -- triples ------------------------------------------------------------------

def test_triple_round_trip(ctx, glued_roster):
    for m in glued_roster.modules:
        x, y, f = to_triple(ctx, m)
        rebuilt = from_triple(ctx, x, y, f)
        assert rebuilt == m


def test_tensor_lift_with_parallel_crossing_paths():
    # two crossing paths 2 -> 3 meet a 2-dimensional P''(1) at 2, so the order
    # of the raw tensor coordinates matters
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "1", "2"),
                                 ("b1", "2", "3"), ("b2", "2", "3")])
    alg = build_algebra(q, [Relation([(1, ("a1", "b1")), (1, ("a2", "b2"))])], 10)
    split = split_context(alg, ["1", "2"])
    for w in split.outer_vertices:
        lifted = j_shriek(split, projective(split.outer_algebra, w))
        assert is_isomorphic(lifted, projective(alg, w))[0]
    for v in alg.vertices:
        for m in (projective(alg, v), injective(alg, v)):
            assert from_triple(split, *to_triple(split, m)) == m


def test_to_triple_check_is_an_error_not_an_assert(ctx, monkeypatch):
    # the factorisation check must still fire under ``python -O``
    m = j_shriek(ctx, projective(ctx.outer_algebra, "4"))
    monkeypatch.setattr(recollement_module, "solve", lambda mat, rhs: None)
    with pytest.raises(RectiltError, match="does not factor"):
        to_triple(ctx, m)


# -- canonical sequence ----------------------------------------------------------

def test_canonical_sequence_shapes(ctx, glued_roster):
    for m in glued_roster.modules:
        ses = canonical_sequence(ctx, m)
        assert ses.left.dim_vector()[2:] == (0, 0, 0)
        assert ses.right.dim_vector()[:2] == (0, 0)
    out = ctx.outer_algebra
    m = j_shriek(ctx, projective(out, "4"))
    ses = canonical_sequence(ctx, m)
    assert ses.left.dim_vector() == (0, 1, 0, 0, 0)
    assert ses.right.dim_vector() == (0, 0, 0, 1, 1)


def test_canonical_sequence_degenerate_cases(ctx):
    inn, out = ctx.inner_algebra, ctx.outer_algebra
    ses = canonical_sequence(ctx, i_star(ctx, projective(inn, "1")))
    assert ses.right.is_zero()
    ses = canonical_sequence(ctx, j_star_lower(ctx, projective(out, "3")))
    assert ses.left.is_zero()


# -- exactness certificates --------------------------------------------------------

def test_exactness_on_worked_example(ctx):
    report = check_exactness(ctx)
    assert report.j_shriek_exact          # the bimodule is right projective
    assert not report.i_upper_star_exact  # witnessed on a simple
    assert report.i_upper_star_tor["3"] == 1
    assert report.functor_exact("i!") and report.functor_exact("j_*")


def test_functor_exact_computes_only_the_named_family(glued, counting):
    ctx = split_context(glued, ["3", "4", "5"])     # fresh: no family read yet
    simples = counting(recollement_module, "tor1_right", 1)
    report = check_exactness(ctx)
    assert report.functor_exact("j_!")
    # j_! reads Tor_1 on the three outer simples only, never i*'s five
    assert [s.algebra for s in simples] == [ctx.outer_algebra] * 3
    assert report.functor_exact("i!") and len(simples) == 3
    assert not report.functor_exact("i*") and len(simples) == 8
    with pytest.raises(ValueError, match=r"unknown functor 'k!'; expected one of \('i\*'"):
        report.functor_exact("k!")


def test_exactness_on_product(product_ctx):
    report = check_exactness(product_ctx)
    assert report.j_shriek_exact
    assert report.i_upper_star_exact
    data = report.to_json()
    assert all(data["exact"].values())


def test_i_upper_star_fails_left_exactness_witness(ctx):
    # applying i* to 0 -> (S2,0) -> (S2,P4) -> (0,P4) -> 0 loses the kernel
    out = ctx.outer_algebra
    m = j_shriek(ctx, projective(out, "4"))
    ses = canonical_sequence(ctx, m)
    left = i_upper_star(ctx, ses.left)
    mid = i_upper_star(ctx, m)
    assert left.total_dim == 1 and mid.total_dim == 0


# -- identities ------------------------------------------------------------------

def test_recollement_identities_on_rosters(ctx, glued_roster, inner, outer):
    inner_roster = enumerate_roster(ctx.inner_algebra)
    outer_roster = enumerate_roster(ctx.outer_algebra)
    report = verify_recollement_identities(
        ctx, glued_roster.modules, inner_roster.modules, outer_roster.modules)
    assert report["all_pass"], [c for c in report["checks"] if not c["pass"]]


def test_identities_on_product(product_ctx):
    inner_roster = enumerate_roster(product_ctx.inner_algebra)
    outer_roster = enumerate_roster(product_ctx.outer_algebra)
    roster = enumerate_roster(product_ctx.algebra)
    report = verify_recollement_identities(
        product_ctx, roster.modules, inner_roster.modules, outer_roster.modules)
    assert report["all_pass"]


def test_adjunction_unit_instance(ctx):
    out = ctx.outer_algebra
    p4 = projective(out, "4")
    m = j_shriek(ctx, p4)
    assert hom_dim(m, m) == hom_dim(p4, j_star_upper(ctx, m)) == 1


def test_kernel_of_jstar_is_image_of_istar(ctx, glued_roster):
    for m in glued_roster.modules:
        vanishes = j_star_upper(ctx, m).is_zero()
        embedded = is_isomorphic(m, i_star(ctx, i_shriek(ctx, m)))[0]
        assert vanishes == embedded


def test_embeddings_are_fully_faithful(ctx):
    inn, out = ctx.inner_algebra, ctx.outer_algebra
    inner_mods = enumerate_roster(inn).modules
    outer_mods = enumerate_roster(out).modules
    for x in inner_mods:
        for x2 in inner_mods:
            assert hom_dim(i_star(ctx, x), i_star(ctx, x2)) == hom_dim(x, x2)
    for y in outer_mods:
        for y2 in outer_mods:
            assert hom_dim(j_star_lower(ctx, y), j_star_lower(ctx, y2)) == hom_dim(y, y2)
            assert hom_dim(j_shriek(ctx, y), j_shriek(ctx, y2)) == hom_dim(y, y2)


# -- random triangular splits -------------------------------------------------------

@st.composite
def triangular_splits(draw):
    """A type A orientation on <= 5 vertices or a commutative square, split.

    The outer set is closed under predecessors, so no arrow, and hence no
    path class, runs from the inner part to the outer part.
    """
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        vertices = [str(k) for k in range(1, n + 1)]
        arrows = [(f"a{k}",) + ((str(k), str(k + 1)) if draw(st.booleans())
                                else (str(k + 1), str(k)))
                  for k in range(1, n)]
        relations = []
    else:
        vertices = ["1", "2", "3", "4"]
        arrows = [("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4")]
        relations = [Relation([(1, ("a", "c")), (-1, ("b", "d"))])]
        if draw(st.booleans()):
            relations.append(Relation([(1, ("a", "c"))]))
    algebra = build_algebra(Quiver(vertices, arrows), relations, 10)
    outer = set(draw(st.sets(st.sampled_from(vertices), min_size=1)))
    while True:
        grown = outer | {a.source for a in algebra.arrows if a.target in outer}
        if grown == outer:
            break
        outer = grown
    assume(len(outer) < len(vertices))
    return split_context(algebra, sorted(outer))


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(triangular_splits())
def test_recollement_on_random_triangular_splits(split):
    roster = enumerate_roster(split.algebra).modules
    inner_roster = enumerate_roster(split.inner_algebra).modules
    outer_roster = enumerate_roster(split.outer_algebra).modules
    report = verify_recollement_identities(split, roster, inner_roster, outer_roster)
    assert report["all_pass"], [c for c in report["checks"] if not c["pass"]]
    for m in roster:
        assert from_triple(split, *to_triple(split, m)) == m
    for w in split.outer_vertices:
        lifted = j_shriek(split, projective(split.outer_algebra, w))
        assert is_isomorphic(lifted, projective(split.algebra, w))[0]
