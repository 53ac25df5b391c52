"""Covers, Ext/Tor, the AR translate and roster enumeration."""

import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectilt import homology as homology_module
from rectilt.algebra import Path, Quiver, Relation, build_algebra
from rectilt.errors import CapExceeded, RectiltError
from rectilt.homology import (
    Roster,
    enumerate_roster,
    ext1,
    ext1_dim,
    ext_k,
    is_split,
    min_presentation,
    proj_dim,
    projective_cover,
    radical,
    realize_extension,
    tau,
    tau_inverse,
    tensor_dim,
    tensor_dim_data,
    tensor_map,
    top,
    tor1_right,
    transpose,
    universal_extension,
)
from rectilt.linalg import Mat, rank, solve
from rectilt.recollement import bimodule_right, quotient_right_module, split_context
from rectilt.rep import (
    Morphism,
    Representation,
    cokernel,
    decompose,
    direct_sum,
    dual,
    hom_basis,
    hom_dim,
    hom_from_projective,
    identity_morphism,
    injective,
    is_isomorphic,
    kernel,
    projective,
    same_class,
    simple,
    zero_morphism,
    zero_rep,
)


def euler_ext1(m, n):
    """Independent oracle: dim Ext^1 from the syzygy sequence ranks."""
    pres = min_presentation(m)
    return hom_dim(pres.syzygy, n) - hom_dim(pres.cover, n) + hom_dim(m, n)


# -- radical / top -------------------------------------------------------

def test_top_of_projective_is_simple(inner):
    t, _ = top(projective(inner, "1"))
    assert t == simple(inner, "1")


def test_radical_of_semisimple_is_zero(inner):
    m = direct_sum(inner, [simple(inner, "1"), simple(inner, "2")])
    r, _ = radical(m)
    assert r.is_zero()


def test_radical_of_p4_over_outer(outer):
    r, _ = radical(projective(outer, "4"))
    assert is_isomorphic(r, simple(outer, "5"))[0]


# -- covers and presentations ---------------------------------------------

def test_cover_of_projective_is_itself(outer):
    for v in outer.vertices:
        p = projective(outer, v)
        p0, surj, verts = projective_cover(p)
        assert verts == [v]
        assert is_isomorphic(p0, p)[0]
        pres = min_presentation(p)
        assert pres.syzygy.is_zero()


def test_min_presentation_of_s4_over_outer(outer):
    pres = min_presentation(simple(outer, "4"))
    assert is_isomorphic(pres.cover, projective(outer, "4"))[0]
    assert is_isomorphic(pres.syzygy, projective(outer, "5"))[0]


def test_min_presentation_of_s1_over_inner(inner):
    pres = min_presentation(simple(inner, "1"))
    assert is_isomorphic(pres.cover, projective(inner, "1"))[0]
    assert is_isomorphic(pres.syzygy, simple(inner, "2"))[0]


# -- projective dimension ---------------------------------------------------

def test_pd_of_projectives_is_zero(outer):
    for v in outer.vertices:
        assert proj_dim(projective(outer, v)) == 0


def test_pd_values_over_outer(outer):
    assert proj_dim(simple(outer, "4")) == 1
    assert proj_dim(simple(outer, "3")) == 2


def test_pd_of_sum_is_max(outer):
    a = simple(outer, "4")
    b = projective(outer, "3")
    assert proj_dim(direct_sum(outer, [a, b])) == max(proj_dim(a), proj_dim(b))


def test_pd_cap_exceeded(outer):
    with pytest.raises(CapExceeded):
        proj_dim(simple(outer, "3"), cap=1)


# -- Ext^1 and realization ---------------------------------------------------

def test_ext1_s1_s2_over_inner(inner):
    e = ext1(simple(inner, "1"), simple(inner, "2"))
    assert e.dimension == 1
    assert euler_ext1(simple(inner, "1"), simple(inner, "2")) == 1
    ses = realize_extension(e, [Fraction(1)])
    assert is_isomorphic(ses.middle, projective(inner, "1"))[0]
    assert not is_split(ses)


def test_realize_extension_rejects_a_float_class(inner):
    e = ext1(simple(inner, "1"), simple(inner, "2"))
    with pytest.raises(TypeError, match="float"):
        realize_extension(e, [0.1])


def test_realizing_zero_class_splits(inner):
    e = ext1(simple(inner, "1"), simple(inner, "2"))
    ses = realize_extension(e, [Fraction(0)])
    assert is_split(ses)
    both = direct_sum(inner, [simple(inner, "2"), simple(inner, "1")])
    assert is_isomorphic(ses.middle, both)[0]


def test_ext1_from_projective_vanishes(inner, outer):
    for alg in (inner, outer):
        for v in alg.vertices:
            for w in alg.vertices:
                assert ext1_dim(projective(alg, v), simple(alg, w)) == 0


def test_ext1_matches_euler_oracle_on_outer(outer):
    mods = [simple(outer, v) for v in outer.vertices] + \
           [projective(outer, v) for v in outer.vertices]
    for m in mods:
        for n in mods:
            assert ext1_dim(m, n) == euler_ext1(m, n)


def test_ext1_count_matches_realized_nonsplit_count(outer):
    # every nonzero class of a 1-dimensional ext space realizes nonsplit
    for v, w in (("3", "4"), ("4", "5")):
        e = ext1(simple(outer, v), simple(outer, w))
        if e.dimension == 1:
            assert not is_split(realize_extension(e, [Fraction(1)]))


def test_universal_extension_matches_the_sum_of_injected_cocycles(inner):
    # Ext^1(S(1), S(2)^2) is 2-dimensional, so the universal extension stacks two cocycles
    power = direct_sum(inner, [simple(inner, "2")] * 2)
    e = ext1(simple(inner, "1"), power)
    assert e.dimension == 2
    big, injs, _ = canonical_maps(inner, [power] * 2)
    combined = zero_morphism(e.presentation.syzygy, big)
    for inj, f in zip(injs, e.cocycles):
        combined = combined.add(inj.compose(f))
    ref = homology_module._pushout_extension(e.presentation, combined)
    got = universal_extension(e)
    assert got.left.to_json() == big.to_json()
    assert got.inject.to_json() == ref.inject.to_json()
    assert got.project.to_json() == ref.project.to_json()
    assert got.middle.to_json() == ref.middle.to_json()


# -- ext_k --------------------------------------------------------------------

def test_ext_k_zero_equals_hom(outer):
    mods = [simple(outer, v) for v in outer.vertices]
    for m in mods:
        for n in mods:
            assert ext_k(m, n, 0) == hom_dim(m, n)


def test_ext_k_above_pd_vanishes(outer):
    for v in outer.vertices:
        assert ext_k(projective(outer, v), simple(outer, "3"), 1) == 0
        assert ext_k(projective(outer, v), simple(outer, "3"), 2) == 0


def test_ext_2_s3_s5_over_outer(outer):
    # resolution P(5) -> P(4) -> P(3) -> S(3)
    assert ext_k(simple(outer, "3"), simple(outer, "5"), 2) == 1
    assert ext_k(simple(outer, "3"), simple(outer, "5"), 1) == 0


# -- tensor and Tor ------------------------------------------------------------

def test_tensor_with_right_projective_gives_vertex_dims(outer):
    opp = outer.opposite()
    for v in outer.vertices:
        nright = projective(opp, v)   # e_v A as a right module
        for w in outer.vertices:
            # e_v A (x) S(w) has dimension dim e_v A e_w ... quotient collapses
            assert tensor_dim(nright, simple(outer, w)) == (1 if v == w else 0)


def test_tensor_map_check_is_an_error_not_an_assert(outer, monkeypatch):
    # the descent check must still fire under ``python -O``
    nright = projective(outer.opposite(), "4")
    pres = min_presentation(simple(outer, "3"))
    monkeypatch.setattr(homology_module, "solve", lambda mat, rhs: None)
    with pytest.raises(RectiltError, match="does not descend"):
        tensor_map(nright, pres.inclusion)


def tensor_map_reference(nright, f):
    """N (x) f written entry by entry into the raw spaces, then pushed to the quotients."""
    dsrc, psrc, off_src, tot_src = tensor_dim_data(nright, f.source)
    dtgt, ptgt, off_tgt, tot_tgt = tensor_dim_data(nright, f.target)
    big = [[0] * tot_src for _ in range(tot_tgt)]
    for v in f.source.algebra.vertices:
        fv = f.components[v]
        for p in range(nright.dims[v]):
            for r in range(fv.rows):
                for c in range(fv.cols):
                    big[off_tgt[v] + p * fv.rows + r][off_src[v] + p * fv.cols + c] = fv[r, c]
    sol = solve(psrc.transpose(), (ptgt @ Mat(tot_tgt, tot_src, big)).transpose())
    return dsrc, dtgt, sol.transpose()


def test_tensor_map_matches_the_entrywise_assembly(glued, product_algebra, mutated_algebra):
    for alg in [glued, product_algebra, mutated_algebra]:
        ctx = split_context(alg, ["3", "4", "5"])
        nright, out = bimodule_right(ctx), ctx.outer_algebra
        for m in ([projective(out, v) for v in out.vertices]
                  + [simple(out, v) for v in out.vertices]):
            pres = min_presentation(m)
            for f in (pres.surjection, pres.inclusion, identity_morphism(m)):
                assert tensor_map(nright, f) == tensor_map_reference(nright, f)


def test_tor1_of_right_projective_vanishes(outer):
    opp = outer.opposite()
    for v in outer.vertices:
        nright = projective(opp, v)
        for w in outer.vertices:
            assert tor1_right(nright, simple(outer, w)) == 0


def test_tor1_positive_for_nonflat_right_module(outer):
    opp = outer.opposite()
    nright = simple(opp, "4")   # S(4) as a right module: not flat
    assert tor1_right(nright, simple(outer, "3")) == 1


# -- transpose and translates ----------------------------------------------------

def test_tau_of_projective_is_zero(glued):
    for v in glued.vertices:
        assert tau(projective(glued, v)).is_zero()


def test_tau_inverse_of_injective_is_zero(outer):
    for v in outer.vertices:
        assert tau_inverse(injective(outer, v)).is_zero()


def test_tau_on_a2(inner):
    assert is_isomorphic(tau(simple(inner, "1")), simple(inner, "2"))[0]
    assert is_isomorphic(tau_inverse(simple(inner, "2")), simple(inner, "1"))[0]


def test_tau_roundtrip_over_outer(outer):
    s4 = simple(outer, "4")
    assert is_isomorphic(tau(s4), simple(outer, "5"))[0]
    assert is_isomorphic(tau_inverse(simple(outer, "5")), s4)[0]


def test_transpose_of_projective_is_zero(inner):
    assert transpose(projective(inner, "1")).is_zero()


def test_tau_and_tau_inverse_invert_each_other_on_rosters(glued, product_algebra,
                                                          mutated_algebra):
    # tau and tau^-1 are mutually inverse between the non-projective and the
    # non-injective indecomposables (Auslander-Reiten-Smalo, ch. IV)
    for alg in [glued, product_algebra, mutated_algebra] + [seeded_type_a(s) for s in range(8)]:
        for x in enumerate_roster(alg).modules:
            if not (t := tau(x)).is_zero():
                assert same_class(tau_inverse(t), x), x.dim_vector()
            if not (t := tau_inverse(x)).is_zero():
                assert same_class(tau(t), x), x.dim_vector()


def test_transpose_builds_one_cover(glued, monkeypatch):
    # P1's generators are read off the top of Omega, so the only cover is P0's
    callers = []
    cover = homology_module.projective_cover

    def counted(m):
        callers.append(sys._getframe(1).f_code.co_name)
        return cover(m)

    monkeypatch.setattr(homology_module, "projective_cover", counted)
    nonzero = 0
    for x in enumerate_roster(glued).modules:
        fresh = Representation(glued, x.dims, x.maps)
        callers.clear()
        nonzero += not transpose(fresh).is_zero()
        assert callers == ["min_presentation"], x.dim_vector()
    assert nonzero


# -- roster ------------------------------------------------------------------------

def test_roster_a2(inner):
    roster = enumerate_roster(inner)
    assert len(roster.entries) == 3
    dims = sorted(m.dim_vector() for m in roster.modules)
    assert dims == [(0, 1), (1, 0), (1, 1)]


def test_roster_outer(outer):
    roster = enumerate_roster(outer)
    assert len(roster.entries) == 5
    dims = sorted(m.dim_vector() for m in roster.modules)
    assert dims == [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]


def test_roster_glued_matches_ar_quiver(glued):
    roster = enumerate_roster(glued)
    assert len(roster.entries) == 15
    expected = sorted([
        (0, 0, 0, 0, 1), (0, 1, 0, 1, 0), (1, 0, 0, 0, 0), (0, 0, 1, 1, 0),
        (0, 1, 0, 1, 1), (1, 1, 0, 1, 0), (1, 1, 1, 1, 0), (1, 0, 1, 1, 0),
        (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 1, 1), (0, 0, 0, 1, 0),
        (1, 0, 1, 0, 0), (1, 1, 0, 0, 0), (0, 0, 0, 1, 1),
    ])
    assert sorted(m.dim_vector() for m in roster.modules) == expected
    # pairwise non-isomorphic
    mods = roster.modules
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            assert not is_isomorphic(mods[i], mods[j])[0]


def test_roster_contains_projectives_and_injectives(glued):
    roster = enumerate_roster(glued)
    for v in glued.vertices:
        for m in (projective(glued, v), injective(glued, v)):
            assert any(same_class(x, m) for x in roster.modules)


def test_roster_cap(glued):
    with pytest.raises(CapExceeded):
        enumerate_roster(glued, cap=7)


# -- the roster tables against their duals over the opposite algebra -------------------

CORPUS_FIXTURES = {"lambda": "glued", "product": "product_algebra",
                   "mutated": "mutated_algebra", "inner": "inner", "outer": "outer"}


@pytest.mark.parametrize("name", list(CORPUS_FIXTURES))
def test_roster_tables_are_dual_over_the_opposite_algebra(name, request):
    # D = Hom_Q(-, Q) is an exact duality mod A -> mod A^op, so D X_i is the entry X'_i'
    # of A^op's roster, dim Ext^1(X_i, X_j) = dim Ext^1(X'_j', X'_i') and Hom(X_i, X_j) = 0
    # iff Hom(X'_j', X'_i') = 0; the opposite side runs its own presentations and Hom systems
    alg = request.getfixturevalue(CORPUS_FIXTURES[name])
    roster, opposite = enumerate_roster(alg), enumerate_roster(alg.opposite())
    mods = roster.modules
    at = [opposite.index(dual(m)) for m in mods]
    unmatched = [m.dim_vector() for m, i in zip(mods, at) if i is None]
    assert not unmatched, f"no entry of the opposite roster is D of {unmatched[0]}"
    assert sorted(at) == list(range(len(opposite.entries)))
    tables = (("ext1_dim", roster.ext1_dim, opposite.ext1_dim),
              ("hom_vanishes", roster.hom_vanishes, opposite.hom_vanishes))
    first = next(((table, mods[i].dim_vector(), mods[j].dim_vector())
                  for i in range(len(mods)) for j in range(len(mods))
                  for table, here, there in tables if here(i, j) != there(at[j], at[i])),
                 None)
    assert first is None, f"{first[0]} of the pair {first[1:]} differs from its dual"


# -- transpose and hom_from_projective against their full-size constructions ------------

def hom_from_projective_reference(algebra, v, m, vec):
    """P(v) -> m with each basis path's whole matrix m.eval_path(p) applied to vec."""
    col = Mat.column(vec)
    comps = {}
    for w in algebra.vertices:
        cols = [(m.eval_path(algebra.basis[b]) @ col).col(0)
                for b in algebra.paths_between(v, w)]
        comps[w] = Mat(m.dims[w], len(cols), [[c[i] for c in cols] for i in range(m.dims[w])])
    return Morphism(projective(algebra, v), m, comps)


def canonical_maps(algebra, mods):
    """The direct sum of mods with its canonical injections and projections."""
    total = direct_sum(algebra, mods)
    injections, projections = [], []
    before = {v: 0 for v in algebra.vertices}
    for m in mods:
        inj = {}
        for v in algebra.vertices:
            inj[v] = Mat(total.dims[v], m.dims[v],
                         [[1 if r == before[v] + c else 0 for c in range(m.dims[v])]
                          for r in range(total.dims[v])])
            before[v] += m.dims[v]
        injections.append(Morphism(m, total, inj))
        projections.append(Morphism(total, m, {v: c.transpose() for v, c in inj.items()}))
    return total, injections, projections


def transpose_reference(m):
    """Tr M with the presentation map summed from inj_l o leg o proj_k at full size."""
    alg = m.algebra
    opp = alg.opposite()
    pres = min_presentation(m)
    _, surj1, p1_verts = projective_cover(pres.syzygy)
    p0_verts, second_map = pres.cover_vertices, pres.inclusion.compose(surj1)
    if not p1_verts:
        return zero_rep(opp)

    def offsets(verts):
        offs, running = [], {w: 0 for w in alg.vertices}
        for u in verts:
            offs.append(dict(running))
            for w in alg.vertices:
                running[w] += len(alg.paths_between(u, w))
        return offs

    off0, off1 = offsets(p0_verts), offsets(p1_verts)
    r0, _, projs0 = canonical_maps(opp, [projective(opp, v) for v in p0_verts])
    r1, injs1, _ = canonical_maps(opp, [projective(opp, u) for u in p1_verts])
    total = zero_morphism(r0, r1)
    for l, u in enumerate(p1_verts):
        col = second_map.components[u].col(off1[l][u])
        for k, v in enumerate(p0_verts):
            paths_vu = alg.paths_between(v, u)
            coeffs = col[off0[k][u]: off0[k][u] + len(paths_vu)]
            if not paths_vu or all(c == 0 for c in coeffs):
                continue
            op_list = opp.paths_between(u, v)
            vec = [Fraction(0)] * len(op_list)
            for c, b in zip(coeffs, paths_vu):
                path = alg.basis[b]
                rev = Path(alg.quiver.path_target(path), tuple(reversed(path.arrows)))
                for ob, cb in opp.path_class(rev).items():
                    vec[op_list.index(ob)] += c * cb
            leg = hom_from_projective_reference(opp, v, projective(opp, u), vec)
            total = total.add(injs1[l].compose(leg).compose(projs0[k]))
    return cokernel(total)[0]


def tau_inverse_reference(m):
    tr = transpose_reference(dual(m))
    return zero_rep(m.algebra) if tr.is_zero() else tr


def seeded_type_a(seed, n=None):
    """A type A quiver on n (else 3..6) vertices with seeded orientation and zero relations."""
    rng = random.Random(seed)
    n = rng.randint(3, 6) if n is None else n
    forward = [rng.random() < 0.5 for _ in range(n - 1)]
    arrows = [(f"x{k}", str(k), str(k + 1)) if forward[k - 1] else
              (f"x{k}", str(k + 1), str(k)) for k in range(1, n)]
    relations = [Relation([((1, (f"x{k}", f"x{k + 1}") if forward[k - 1]
                             else (f"x{k + 1}", f"x{k}")))])
                 for k in range(1, n - 1) if forward[k - 1] == forward[k] and rng.random() < 0.5]
    return build_algebra(Quiver([str(v) for v in range(1, n + 1)], arrows), relations, 10)


def test_transpose_matches_full_size_assembly(glued, product_algebra, mutated_algebra):
    rng = random.Random(0)
    # the 8-vertex algebra has the size of the benchmark's random type A quivers
    for alg in ([glued, product_algebra, mutated_algebra] + [seeded_type_a(s) for s in range(8)]
                + [seeded_type_a(8, n=8)]):
        roster = enumerate_roster(alg).modules
        # sums put several summands into P0 and P1, so blocks sit off the diagonal
        sums = [direct_sum(alg, rng.sample(roster, 2)) for _ in range(3)]
        for m in roster + sums:
            assert transpose(m).to_json() == transpose_reference(m).to_json()
            assert tau_inverse(m).to_json() == tau_inverse_reference(m).to_json()
            for v in alg.vertices:
                vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m.dims[v])]
                assert (hom_from_projective(alg, v, m, vec).to_json()
                        == hom_from_projective_reference(alg, v, m, vec).to_json())


def test_hom_from_projective_rejects_a_vector_of_the_wrong_length(outer):
    with pytest.raises(ValueError):
        hom_from_projective(outer, "3", projective(outer, "3"), [1, 0])


def test_hom_from_projective_rejects_a_float_vector(outer):
    with pytest.raises(TypeError, match="float"):
        hom_from_projective(outer, "3", projective(outer, "3"), [0.1])


# -- the shared primitives: one resolution step, one intertwining system, one cover ---

def ext_k_reference(m, n, k):
    """dim Ext^k from the ranks of Hom(-, n) applied to the minimal projective resolution."""
    # minimal resolution P_0 <- P_1 <- ... <- P_{k+1}; P_i = 0 past its end
    steps = list(islice(homology_module._resolution(m), k + 2))
    homs = {i: hom_basis(steps[i].cover, n) if i < len(steps) else []
            for i in range(max(k - 1, 0), k + 2)}

    def rank_d(i):
        """Rank of Hom(P_i, n) -> Hom(P_{i+1}, n), precomposition with P_{i+1} -> P_i."""
        if i + 1 >= len(steps):
            return 0
        d = steps[i].inclusion.compose(steps[i + 1].surjection)
        return rank(homology_module._precomposition(d, homs[i], homs[i + 1]))

    dim = len(homs[k]) - rank_d(k)
    return dim if k == 0 else dim - rank_d(k - 1)


def test_ext_k_one_equals_ext1_dim(inner, outer, product_algebra):
    # ext_k shifts dimension through the syzygies; the reference reads the resolution's ranks
    for alg in [inner, outer, product_algebra, seeded_type_a(1), seeded_type_a(2)]:
        roster = enumerate_roster(alg).modules
        for m in roster:
            for n in roster:
                assert ext_k(m, n, 1) == ext1_dim(m, n) == ext_k_reference(m, n, 1)
                assert ext_k(m, n, 2) == ext_k_reference(m, n, 2)


def test_tensor_is_dual_of_hom_into_the_dual(glued, product_algebra):
    # N (x)_A X = D Hom_A(X, DN): the identity tensor_dim_data's shared system rests on
    for alg in [glued, product_algebra]:
        ctx = split_context(alg, ["3", "4", "5"])
        for nright in [bimodule_right(ctx), quotient_right_module(ctx)]:
            for x in enumerate_roster(nright.algebra.opposite()).modules:
                assert tensor_dim(nright, x) == hom_dim(x, dual(nright))


def projective_cover_reference(m):
    """The cover built from top(M): one solve per unit vector of each vertex's top."""
    alg = m.algebra
    t, proj = top(m)
    pieces, vertices = [], []
    for v in alg.vertices:
        for k in range(t.dims[v]):
            unit = Mat.column([1 if i == k else 0 for i in range(t.dims[v])])
            pieces.append(hom_from_projective(alg, v, m, solve(proj.components[v], unit).col(0)))
            vertices.append(v)
    if not pieces:
        z = zero_rep(alg)
        return z, zero_morphism(z, m), []
    p0 = direct_sum(alg, [f.source for f in pieces])
    comps = {v: Mat.hstack([f.components[v] for f in pieces], rows=m.dims[v])
             for v in alg.vertices}
    return p0, Morphism(p0, m, comps), vertices


def test_projective_cover_matches_the_top_based_construction(glued, product_algebra,
                                                            mutated_algebra):
    for alg in [glued, product_algebra, mutated_algebra]:
        roster = enumerate_roster(alg).modules
        sums = [direct_sum(alg, [a, b]) for a, b in combinations_with_replacement(roster, 2)]
        for m in roster + sums:
            p0, surj, verts = projective_cover(m)
            ref_p0, ref_surj, ref_verts = projective_cover_reference(m)
            assert verts == ref_verts
            assert surj.to_json() == ref_surj.to_json()
            assert p0.to_json() == ref_p0.to_json()


def _presentation_json(pres):
    return [pres.cover.to_json(), pres.surjection.to_json(), pres.syzygy.to_json(),
            pres.inclusion.to_json(), pres.cover_vertices]


def test_min_presentation_is_cached_and_matches_a_fresh_one(glued, product_algebra,
                                                            mutated_algebra):
    for alg in [glued, product_algebra, mutated_algebra]:
        roster = enumerate_roster(alg).modules
        for m in roster + [direct_sum(alg, roster[:3])]:
            pres = min_presentation(m)
            assert min_presentation(m) is pres
            # an equal module built separately, presented without the cache
            fresh = Representation.from_json(alg, m.to_json())
            assert fresh == m and fresh is not m and fresh._pres is None
            p0, surj, verts = projective_cover(fresh)
            omega, incl = kernel(surj)
            assert _presentation_json(pres) == [p0.to_json(), surj.to_json(), omega.to_json(),
                                                incl.to_json(), verts]
            assert _presentation_json(min_presentation(fresh)) == _presentation_json(pres)


def test_presentation_cache_is_bounded_and_drops_the_oldest(monkeypatch):
    monkeypatch.setattr(homology_module, "_PRESENTED", homology_module.deque())
    monkeypatch.setattr(homology_module, "_PRESENTED_MAX", 3)
    alg = build_algebra(Quiver(["1", "2", "3", "4"],
                               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]), [])
    mods = [simple(alg, v) for v in alg.vertices]
    pres = [min_presentation(m) for m in mods]
    # the first module gave its presentation up; the last three keep theirs
    assert mods[0]._pres is None
    assert [m._pres for m in mods[1:]] == pres[1:]
    assert all(min_presentation(m) is p for m, p in zip(mods[1:], pres[1:]))
    # presented afresh, with the same result, it drops the next oldest
    again = min_presentation(mods[0])
    assert again is not pres[0] and _presentation_json(again) == _presentation_json(pres[0])
    assert mods[1]._pres is None and len(homology_module._PRESENTED) == 3


# -- summand classes read off the roster against decompose ---------------------------


@pytest.fixture(scope="module")
def classifier_rosters(glued, product_algebra, mutated_algebra):
    """Rosters of the glued, product and mutated algebras and of linear A_4 and A_5."""
    linear = [build_algebra(Quiver([str(v) for v in range(1, n + 1)],
                                   [(f"x{v}", str(v), str(v + 1)) for v in range(1, n)]), [])
              for n in (4, 5)]
    return [enumerate_roster(alg) for alg in [glued, product_algebra, mutated_algebra] + linear]


def test_enumerate_roster_computes_no_unit_rank(glued):
    roster = enumerate_roster(glued)
    # no table is filled before it is read: unit ranks, Ext^1, pd, Hom vanishing, the index
    assert roster._unit == roster._ext1 == roster._pd == roster._hom0 == roster._at_dims == {}


def test_roster_index_finds_each_entry_and_its_copies(classifier_rosters):
    for at, roster in enumerate(classifier_rosters):
        alg, mods = roster.algebra, roster.modules
        for i, m in enumerate(mods):
            assert roster.index(m) == i
            copy = direct_sum(alg, [m])
            assert copy is not m and roster.index(copy) == i    # found by same_class
        assert roster.index(direct_sum(alg, mods[:2])) is None
        assert classifier_rosters[(at + 1) % len(classifier_rosters)].index(mods[0]) is None


def test_class_index_past_the_entries(classifier_rosters):
    for at, roster in enumerate(classifier_rosters):
        alg, mods = roster.algebra, roster.modules
        gone = mods[1]
        trimmed = Roster(alg, [e for e in roster.entries if e.module is not gone])
        n = len(trimmed.entries)
        # entries keep their indices; the class they lack gets the next one, its copies too
        assert [trimmed._class_index(m) for m in trimmed.modules] == list(range(n))
        assert trimmed._class_index(gone) == n
        assert trimmed._class_index(direct_sum(alg, [gone])) == n
        assert trimmed._class(n) is gone and trimmed.index(gone) is None
        # the tables answer the index past the entries as they answer an entry
        for j, y in enumerate(trimmed.modules[:3]):
            assert trimmed.ext1_dim(n, j) == ext1_dim(gone, y)
            assert trimmed.ext1_dim(j, n) == ext1_dim(y, gone)
            assert trimmed.hom_vanishes(n, j) == (hom_dim(gone, y) == 0)
        assert trimmed.pd(n) == proj_dim(gone) and trimmed.unit_rank(n) == 1
        other = classifier_rosters[(at + 1) % len(classifier_rosters)]
        with pytest.raises(ValueError, match="not over the roster's algebra"):
            other._class_index(gone)
        assert other._extra == []


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_roster_decompose_agrees_with_decompose(classifier_rosters, data):
    at = data.draw(st.integers(0, len(classifier_rosters) - 1), label="algebra")
    roster = classifier_rosters[at]
    mods = roster.modules
    picks = data.draw(st.lists(st.integers(0, len(mods) - 1), min_size=1, max_size=4),
                      label="picks")
    m = direct_sum(roster.algebra, [mods[i] for i in picks])
    targets = [x for x in mods if ext1_dim(m, x)]
    if targets and data.draw(st.booleans(), label="middle"):
        # the middle of the universal extension of the sum by one roster module
        by = targets[data.draw(st.integers(0, len(targets) - 1), label="by")]
        m = universal_extension(ext1(m, by)).middle
    got, want = roster.decompose(m), decompose(m)
    assert got is not None and len(got) == len(want)
    for x, k in want:
        assert [j for y, j in got if same_class(x, y)] == [k]
    # a roster that lacks one summand class of m, and another algebra's roster
    gone = got[data.draw(st.integers(0, len(got) - 1), label="gone")][0]
    trimmed = Roster(roster.algebra, [e for e in roster.entries if e.module is not gone])
    assert trimmed.decompose(m) is None
    assert classifier_rosters[(at + 1) % len(classifier_rosters)].decompose(m) is None
