"""Gluing and restriction on the four worked cases of the source example."""

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectilt import gluing, homology, recollement, rep, tilting
from rectilt.algebra import Quiver, Relation, build_algebra
from rectilt.errors import HypothesisFailed
from rectilt.gluing import (
    GluedPairSpec,
    glue_tilting,
    glued_membership,
    glued_pair_is_tilting,
    restrict_left,
    restrict_right,
)
from rectilt.homology import enumerate_roster, ext1, ext1_dim, proj_dim
from rectilt.linalg import Mat, solve
from rectilt.recollement import (
    ExactnessReport,
    check_exactness,
    i_upper_star,
    j_shriek,
    split_context,
)
from rectilt.rep import (
    _add_pieces,
    _linear_combination,
    _same_classes,
    _unit_rank,
    add_equal,
    decompose,
    direct_sum,
    flatten_morphism,
    hom_basis,
    injective,
    multiplicity,
    projective,
    pushout,
    regular_module,
    simple,
    summand_classes,
    zero_morphism,
    zero_rep,
)
from rectilt.tilting import (
    ext_projectives,
    is_tilting,
    partition_roster,
)


@pytest.fixture(scope="module")
def ctx(glued):
    return split_context(glued, ["3", "4", "5"])


@pytest.fixture(scope="module")
def roster(glued):
    return enumerate_roster(glued)


@pytest.fixture(scope="module")
def outer_roster(ctx):
    return enumerate_roster(ctx.outer_algebra)


def by_dims(roster, dims):
    for m in roster.modules:
        if m.dim_vector() == dims:
            return m
    raise LookupError(dims)


def t_inner(ctx):
    inn = ctx.inner_algebra
    return direct_sum(inn, [projective(inn, "1"), simple(inn, "1")])


def t_outer_case1(ctx):
    out = ctx.outer_algebra
    return direct_sum(out, [projective(out, v) for v in ("5", "4", "3")])


def t_outer_case2(ctx):
    out = ctx.outer_algebra
    return direct_sum(out, [projective(out, "3"), projective(out, "4"),
                            simple(out, "4")])


def t_case3(roster, glued):
    dims = [(0, 1, 0, 1, 0), (1, 1, 0, 1, 1), (0, 0, 0, 1, 1),
            (1, 1, 0, 1, 0), (1, 1, 1, 1, 0)]
    return direct_sum(glued, [by_dims(roster, d) for d in dims])


def t_case4(roster, glued):
    dims = [(0, 1, 0, 1, 0), (0, 1, 0, 1, 1), (1, 1, 0, 1, 1),
            (0, 0, 0, 1, 1), (1, 1, 1, 1, 0)]
    return direct_sum(glued, [by_dims(roster, d) for d in dims])


CASE1_SUMMANDS = {(0, 0, 0, 0, 1), (0, 1, 0, 1, 1), (1, 1, 1, 1, 0),
                  (1, 1, 0, 1, 1), (1, 1, 0, 0, 0)}
CASE2_SUMMANDS = {(1, 1, 1, 1, 0), (0, 1, 0, 1, 1), (0, 1, 0, 1, 0),
                  (1, 1, 0, 1, 1), (1, 1, 0, 0, 0)}


# -- case (1) -----------------------------------------------------------------

def test_glue_case1(ctx, roster):
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    cert = glue_tilting(spec, roster)
    assert cert.ext_dimension == 1
    assert {s.dim_vector() for s in cert.summands} == CASE1_SUMMANDS
    assert cert.tilting.tilting
    assert cert.universal_ext_vanishes
    assert cert.partition_counts == (14, 1, 0)
    assert cert.partition_matches_glued
    assert cert.ext_projectives_match
    assert cert.passed
    part = partition_roster(cert.module, roster)
    free = [roster.modules[i].dim_vector() for i in part.free]
    assert free == [(0, 1, 0, 0, 0)]


def test_case1_membership_witnesses(ctx, roster):
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    assert glued_membership(spec, by_dims(roster, (0, 1, 0, 0, 0))) == "free"
    assert glued_membership(spec, by_dims(roster, (0, 0, 0, 0, 1))) == "torsion"
    from rectilt.rep import zero_rep
    assert glued_membership(spec, zero_rep(ctx.algebra)) == "torsion"


def test_case1_round_trip(ctx, roster):
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    cert = glue_tilting(spec, roster)
    right = restrict_right(ctx, cert.module, roster)
    assert add_equal([right.module], [t_outer_case1(ctx)])
    back = i_upper_star(ctx, cert.module)
    assert add_equal([back], [t_inner(ctx)])


# -- case (2) ----------------------------------------------------------------

def test_glue_case2(ctx, roster):
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case2(ctx))
    cert = glue_tilting(spec, roster)
    assert cert.ext_dimension == 2
    assert {s.dim_vector() for s in cert.summands} == CASE2_SUMMANDS
    assert cert.passed
    assert cert.partition_counts == (13, 2, 0)
    part = partition_roster(cert.module, roster)
    free = sorted(roster.modules[i].dim_vector() for i in part.free)
    assert free == [(0, 0, 0, 0, 1), (0, 1, 0, 0, 0)]


def test_glued_pairs_are_tilting(ctx, roster):
    for t2 in (t_outer_case1(ctx), t_outer_case2(ctx)):
        spec = GluedPairSpec(ctx, t_inner(ctx), t2)
        assert glued_pair_is_tilting(spec)


# -- case (3): hypothesis failure reproduced ------------------------------------

def test_case3_restriction(ctx, roster, outer_roster, glued):
    t = t_case3(roster, glued)
    res = restrict_right(ctx, t, roster)
    assert {s.dim_vector() for s in res.summands} == {(0, 1, 0), (0, 1, 1), (1, 1, 0)}
    assert res.tilting is not None and res.tilting.tilting
    assert not res.hypotheses["free_closed"]
    assert res.hypotheses["free_witness"] == \
        {"1": 0, "2": 0, "3": 0, "4": 1, "5": 1}
    assert res.partition_equal is False
    tclass, fclass = res.restricted_classes
    assert sorted(m.dim_vector() for m in tclass) == \
        [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    assert sorted(m.dim_vector() for m in fclass) == [(0, 0, 1), (0, 1, 1)]


def test_case3_pair_is_not_a_torsion_pair(ctx, roster, outer_roster, glued):
    from rectilt.tilting import is_torsion_pair
    t = t_case3(roster, glued)
    tclass, fclass = restrict_right(ctx, t, roster).restricted_classes
    verdict = is_torsion_pair(tclass, fclass, outer_roster)
    assert not verdict.holds
    assert verdict.witness["from_dims"] == verdict.witness["to_dims"] \
        == {"3": 0, "4": 1, "5": 1}


# -- case (4): hypotheses hold ---------------------------------------------------

def test_case4_restriction(ctx, roster, outer_roster, glued):
    t = t_case4(roster, glued)
    res = restrict_right(ctx, t, roster)
    assert {s.dim_vector() for s in res.summands} == {(0, 1, 0), (0, 1, 1), (1, 1, 0)}
    assert res.tilting.tilting
    assert res.hypotheses["holds"]
    assert res.partition_equal is True
    tclass, fclass = res.restricted_classes
    assert sorted(m.dim_vector() for m in fclass) == [(0, 0, 1)]


def test_case4_pair_is_a_torsion_pair(ctx, roster, outer_roster, glued):
    from rectilt.tilting import is_torsion_pair
    t = t_case4(roster, glued)
    tclass, fclass = restrict_right(ctx, t, roster).restricted_classes
    assert is_torsion_pair(tclass, fclass, outer_roster).holds


# -- left restriction ---------------------------------------------------------------

def test_restrict_left_unverified_when_inexact(ctx, roster, glued):
    t = t_case4(roster, glued)
    res = restrict_left(ctx, t, roster)
    assert not res.tilting_verified
    assert res.tilting is None
    assert not res.module.is_zero()


def test_restrict_left_verified_on_product(product_algebra):
    pctx = split_context(product_algebra, ["3", "4", "5"])
    inn, out = pctx.inner_algebra, pctx.outer_algebra
    t_in = direct_sum(inn, [projective(inn, "1"), simple(inn, "1")])
    t_out = direct_sum(out, [projective(out, v) for v in out.vertices])
    spec = GluedPairSpec(pctx, t_in, t_out)
    cert = glue_tilting(spec)
    assert cert.ext_dimension == 0
    assert cert.passed
    res = restrict_left(pctx, cert.module)
    assert res.tilting_verified and res.tilting.tilting
    assert add_equal([res.module], [t_in])
    assert res.partition_equal
    rres = restrict_right(pctx, cert.module)
    assert add_equal([rres.module], [t_out])


# -- hypothesis gates -----------------------------------------------------------------

def test_glue_rejects_nonflat_bimodule(mutated_algebra, counting):
    ctx = split_context(mutated_algebra, ["3", "4", "5"])
    inn, out = ctx.inner_algebra, ctx.outer_algebra
    t_in = direct_sum(inn, [projective(inn, "1"), simple(inn, "1")])
    t_out = direct_sum(out, [projective(out, v) for v in out.vertices])
    simples = counting(recollement, "tor1_right", 1)
    with pytest.raises(HypothesisFailed) as err:
        glue_tilting(GluedPairSpec(ctx, t_in, t_out))
    assert err.value.culprit == "j_!"
    # the first outer simple with nonzero Tor_1, read off the exactness report
    assert err.value.detail == ("Tor_1 of the crossing bimodule has dimension 2 "
                                "on the outer simple S(3)")
    # the i^* family is never built for a glue
    assert len(simples) == 3 and all(s.algebra is out for s in simples)


def test_glue_rejects_non_tilting_inputs(ctx, roster):
    inn, out = ctx.inner_algebra, ctx.outer_algebra
    bad_inner = simple(inn, "2")
    with pytest.raises(HypothesisFailed) as err:
        glue_tilting(GluedPairSpec(ctx, bad_inner, t_outer_case1(ctx)), roster)
    assert "inner" in err.value.culprit
    bad_outer = projective(out, "5")
    with pytest.raises(HypothesisFailed) as err:
        glue_tilting(GluedPairSpec(ctx, t_inner(ctx), bad_outer), roster)
    assert "outer" in err.value.culprit


def test_check_restriction_hypotheses_trivial_for_regular(ctx, roster, glued):
    from rectilt.rep import regular_module
    report = restrict_right(ctx, regular_module(glued), roster).hypotheses
    assert report["holds"]


# -- known summand classes: what gluing and restriction no longer recompute ----------


def test_glue_and_restriction_decompose_only_what_no_roster_holds(ctx, roster, glued,
                                                                 monkeypatch, counting):
    seen = counting(rep, "decompose")
    for module in (tilting, gluing):
        monkeypatch.setattr(module, "decompose", rep.decompose)
    # the middle term is read off the roster: only T' and T'' are decomposed
    for outer in (t_outer_case1(ctx), t_outer_case2(ctx)):
        seen.clear()
        spec = GluedPairSpec(ctx, t_inner(ctx), outer)
        glue_tilting(spec, roster)
        assert len(seen) == 2
        assert seen[0] is spec.inner_tilting and seen[1] is spec.outer_tilting
    # j^*T and the images of the roster's entries are read off the outer roster
    fresh = split_context(glued, ["3", "4", "5"])
    t = t_case4(roster, glued)
    seen.clear()
    restrict_right(fresh, t, roster)
    assert seen == []


@pytest.mark.parametrize("stand_in", ["trimmed", "other_algebra"])
def test_glue_and_restriction_fall_back_to_decompose(stand_in, ctx, roster, glued,
                                                     product_algebra, monkeypatch):
    t = t_case4(roster, glued)
    specs = [GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx)),
             GluedPairSpec(ctx, t_inner(ctx), t_outer_case2(ctx))]
    want = ([glue_tilting(spec, roster).to_json() for spec in specs]
            + [restrict_right(ctx, t, roster).to_json()])
    other = enumerate_roster(product_algebra)
    real = homology.Roster.decompose
    answers = []

    def stand_in_decompose(self, m):
        """The answer of a roster that lacks a summand of m, or of another algebra's."""
        if stand_in == "other_algebra":
            answers.append(real(other, m))
        else:
            gone = real(self, m)[0][0]
            answers.append(real(homology.Roster(
                self.algebra, [e for e in self.entries if e.module is not gone]), m))
        return answers[-1]

    monkeypatch.setattr(homology.Roster, "decompose", stand_in_decompose)
    got = ([glue_tilting(spec, roster).to_json() for spec in specs]
           + [restrict_right(ctx, t, roster).to_json()])
    assert answers == [None] * 3
    assert got == want


def test_ext_projectives_mismatch_names_its_witness(ctx, roster, monkeypatch):
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    cert = glue_tilting(spec, roster)
    assert "ext_projectives_witness" not in cert.to_json()
    # the glue reads its Ext-projectives off the roster's Ext^1 table
    real = roster.ext1_vanishes
    torsion = partition_roster(cert.module, roster).torsion
    dropped = next(i for i in torsion if all(real(i, j) for j in torsion))
    extra = next(i for i in torsion if not all(real(i, j) for j in torsion))
    for patched, named, missing_from in (
            (lambda i, j: i != dropped and real(i, j), dropped, "ext_projectives"),
            (lambda i, j: i == extra or real(i, j), extra, "glued")):
        monkeypatch.setattr(roster, "ext1_vanishes", patched)
        cert = glue_tilting(spec, roster)
        assert not cert.ext_projectives_match and not cert.passed
        assert cert.to_json()["ext_projectives_witness"] == {
            "class_dims": roster.modules[named].to_json()["dims"], "missing_from": missing_from}


def test_restrict_right_enumerates_each_roster_once(glued, roster, counting):
    fresh = split_context(glued, ["3", "4", "5"])
    t = t_case4(roster, glued)
    seen = counting(gluing, "enumerate_roster")
    first = restrict_right(fresh, t, roster)
    assert len(seen) == 1 and seen[0] is fresh.outer_algebra
    second = restrict_right(fresh, t, roster)
    assert len(seen) == 1
    assert second.to_json() == first.to_json()


def glue_case(case, ctx, roster, product_algebra):
    """(spec, roster) of glue case (1), case (2) or the product split."""
    if case == "product":
        ctx = split_context(product_algebra, ["3", "4", "5"])
        out = ctx.outer_algebra
        return (GluedPairSpec(ctx, t_inner(ctx),
                              direct_sum(out, [projective(out, v) for v in out.vertices])),
                enumerate_roster(product_algebra))
    outer = t_outer_case1(ctx) if case == "case1" else t_outer_case2(ctx)
    return GluedPairSpec(ctx, t_inner(ctx), outer), roster


@pytest.mark.parametrize("case", ["case1", "case2", "product"])
def test_glue_classes_agree_with_decomposing_the_lift(case, ctx, roster, product_algebra):
    spec, roster = glue_case(case, ctx, roster, product_algebra)
    ctx = spec.ctx
    cert = glue_tilting(spec, roster)
    lifted = [j_shriek(ctx, x) for x in is_tilting(spec.outer_tilting).classes]
    # j_! is fully faithful: each lifted class stays indecomposable
    assert all([k for _, k in decompose(x)] == [1] for x in lifted)
    assert _same_classes(lifted, summand_classes([j_shriek(ctx, spec.outer_tilting)]))
    # the reference: decompose j_!T'' and the middle term from scratch
    assert _same_classes(cert.summands, summand_classes(
        [j_shriek(ctx, spec.outer_tilting), cert.universal.middle]))
    assert cert.tilting.to_json() == is_tilting(cert.module).to_json()
    torsion = [roster.modules[i] for i in partition_roster(cert.module, roster).torsion]
    assert cert.ext_projectives_match == add_equal([ext_projectives(torsion)], [cert.module])
    assert cert.passed


# -- the extension's map onto M, against a solve over Hom(E, M) -------------------------


def extension_projection_reference(pres, cocycle):
    """E -> M solved over hom_basis(E, M): h o leg_P0 = surjection and h o leg_N = 0."""
    mid, leg_n, leg_p0 = pushout(cocycle, pres.inclusion)
    candidates = hom_basis(mid, pres.module)
    rows = [flatten_morphism(f.compose(leg_p0)) + flatten_morphism(f.compose(leg_n))
            for f in candidates]
    want = flatten_morphism(pres.surjection) + flatten_morphism(
        zero_morphism(cocycle.target, pres.module))
    sol = solve(Mat.from_rows(rows).transpose(), Mat.column(want))
    assert sol is not None
    return _linear_combination(mid, pres.module, sol.col(0), candidates)


@pytest.fixture
def extensions(monkeypatch):
    """Every (presentation, cocycle, sequence) that homology's pushout extension builds."""
    seen = []
    real = homology._pushout_extension

    def record(pres, cocycle):
        ses = real(pres, cocycle)
        seen.append((pres, cocycle, ses))
        return ses

    monkeypatch.setattr(homology, "_pushout_extension", record)
    return seen


@pytest.mark.parametrize("case", ["case1", "case2", "product"])
def test_glue_extension_maps_onto_m_as_the_hom_solve_does(case, ctx, roster, product_algebra,
                                                          extensions):
    spec, roster = glue_case(case, ctx, roster, product_algebra)
    cert = glue_tilting(spec, roster)
    # the product's Ext^1 is zero: its universal extension is split and built without a pushout
    assert (cert.ext_dimension == 0) == (case == "product")
    assert len(extensions) == (0 if case == "product" else 1)
    for pres, cocycle, ses in extensions:
        assert ses.project.to_json() == extension_projection_reference(pres, cocycle).to_json()


def test_realized_extension_maps_onto_m_as_the_hom_solve_does(inner, outer, extensions):
    # the realize_extension cases of test_homology.py
    cases = [(inner, "1", "2", [1]), (inner, "1", "2", [0]),
             (outer, "3", "4", [1]), (outer, "4", "5", [1])]
    for alg, v, w, coeffs in cases:
        e = ext1(simple(alg, v), simple(alg, w))
        assert e.dimension == 1
        homology.realize_extension(e, coeffs)
    assert len(extensions) == len(cases)
    for pres, cocycle, ses in extensions:
        assert ses.project.to_json() == extension_projection_reference(pres, cocycle).to_json()


# -- rank-only Hom questions build no maps -------------------------------------------

def test_rank_only_answers_build_no_maps(ctx, roster, glued, monkeypatch):
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    middle = glue_tilting(spec, roster).universal.middle
    mods = roster.modules
    units = [roster.unit_rank(i) for i in range(len(mods))]    # _unit_rank builds End(X)

    def answers(m):
        return ([rep._multiplicity(x, m, unit) for x, unit in zip(mods, units)],
                [rep.same_class(x, y) for x in mods + [m] for y in mods + [m]],
                [(rep.hom_dim(x, m), rep.hom_dim(m, x)) for x in mods],
                [(tilting.gen_member(m, x), tilting.perp_member(m, x)) for x in mods],
                [(mods.index(x), k) for x, k in roster.decompose(m)])

    cases = [middle, t_case3(roster, glued)]
    want = [answers(m) for m in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a rank-only answer built a map")

    for target, name in ((rep, "hom_basis"), (tilting, "hom_basis"), (homology, "hom_basis"),
                         (rep.Morphism, "__init__"), (Mat, "__init__")):
        monkeypatch.setattr(target, name, refuse)
    monkeypatch.setattr(Mat, "_trusted", classmethod(refuse))
    assert [answers(m) for m in cases] == want
    # the roster's pieces are the nonzero multiplicities, in roster order
    assert all(len(pieces) > 1 and [k for k in mults if k] == [k for _, k in pieces]
               for mults, *_, pieces in want)


# -- roster data computed once: the Ext^1 table and the functor images ----------------


def test_partition_mismatch_names_its_witness(glued, roster, monkeypatch):
    ctx = split_context(glued, ["3", "4", "5"])
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    assert "partition_witness" not in glue_tilting(spec, roster).to_json()
    # Gen T' and Gen T'' look empty, so no roster module is glued torsion: the glue
    # reads that off the part rosters' Ext^1 tables, glued_membership off gen_member
    for part in (gluing._roster(ctx.inner_algebra), gluing._roster(ctx.outer_algebra)):
        monkeypatch.setattr(part, "ext1_dim", lambda i, j: 1)
    traced = []
    monkeypatch.setattr(gluing, "gen_member", lambda t, m: traced.append(m) or False)
    cert = glue_tilting(spec, roster)
    assert traced == []
    assert not cert.partition_matches_glued and not cert.passed
    trace = {i: "torsion" for i in partition_roster(cert.module, roster).torsion}
    first = next(m for i, m in enumerate(roster.modules)
                 if glued_membership(spec, m) != trace.get(i, "free"))
    witness = cert.to_json()["partition_witness"]
    assert witness == {"module_dims": first.to_json()["dims"],
                       "glued": glued_membership(spec, first), "trace": "torsion"}


@pytest.mark.parametrize("case", ["case1", "case2", "product"])
def test_table_ext_projectives_equal_fresh_ones(case, ctx, roster, product_algebra):
    spec, roster = glue_case(case, ctx, roster, product_algebra)
    cert = glue_tilting(spec, roster)
    picked = partition_roster(cert.module, roster).torsion
    table = [roster.modules[i] for i in picked
             if all(roster.ext1_vanishes(i, j) for j in picked)]
    fresh = ext_projectives([roster.modules[i] for i in picked])
    assert direct_sum(roster.algebra, table).to_json() == fresh.to_json()
    assert cert.ext_projectives_match and _same_classes(table, cert.summands)
    with pytest.raises(ValueError, match="no Ext-projective members"):
        ext_projectives([zero_rep(roster.algebra)] * 2)


def _outcomes(glued, outer, roster, ts):
    """Glue and restriction JSON of one split, roster passed in; a failed glue gives its culprit."""
    ctx = split_context(glued, outer)
    spec = GluedPairSpec(ctx, regular_module(ctx.inner_algebra),
                         regular_module(ctx.outer_algebra))
    try:
        out = [glue_tilting(spec, roster).to_json()]
    except HypothesisFailed as err:
        out = [err.culprit]
    for t in ts:
        for res in (restrict_right(ctx, t, roster), restrict_left(ctx, t, roster)):
            classes = res.restricted_classes or ()
            out.append((res.to_json(), [[x.to_json() for x in c] for c in classes]))
    return out


def test_one_roster_shared_by_two_splits(glued, roster):
    # both splits are triangular; {5} is not, since beta runs 4 -> 5
    splits = (["3", "4", "5"], ["3", "4"])
    ts = [regular_module(glued), t_case3(roster, glued), t_case4(roster, glued)]
    fresh = {tuple(o): _outcomes(glued, o, enumerate_roster(glued), ts) for o in splits}
    for order in (splits, splits[::-1]):
        shared = enumerate_roster(glued)
        for outer in order:
            assert _outcomes(glued, outer, shared, ts) == fresh[tuple(outer)]


def test_cached_images_die_with_context_and_roster(glued):
    ctx = split_context(glued, ["3", "4", "5"])
    shared = enumerate_roster(glued)
    glue_tilting(GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx)), shared)
    refs = [weakref.ref(image) for image in gluing._images(ctx, shared, "i*")[0]]
    assert len(refs) == len(shared.modules)
    del ctx, shared
    gc.collect()
    assert all(r() is None for r in refs)


def test_images_do_not_keep_fresh_rosters_alive(glued):
    ctx = split_context(glued, ["3", "4", "5"])
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    refs = []
    for _ in range(10):
        fresh = enumerate_roster(glued)
        glue_tilting(spec, fresh)
        refs.append(weakref.ref(fresh))
    del fresh
    gc.collect()
    assert all(r() is None for r in refs)


def test_returned_certificates_do_not_keep_a_roster_alive(glued, roster):
    ctx = split_context(glued, ["3", "4", "5"])
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    t = t_case4(roster, glued)
    kept, refs = [], []
    for _ in range(3):
        fresh = enumerate_roster(glued)
        kept += [glue_tilting(spec, fresh), restrict_right(ctx, t, fresh)]
        refs.append(weakref.ref(fresh))
    del fresh
    gc.collect()
    assert all(cert.tilting.tilting for cert in kept)
    assert [r() is None for r in refs] == [True] * 3


def test_second_glue_recomputes_no_roster_data(glued, counting):
    ctx = split_context(glued, ["3", "4", "5"])
    shared = enumerate_roster(glued)
    entries = {id(m) for m in shared.modules}
    # ext1_dim(X, Y), proj_dim(X), hom_dim(X, Y) and i_upper_star(ctx, X), X and Y entries
    calls = [(name, counting(module, name, picked))
             for module, name, picked in ((homology, "ext1_dim", slice(0, 2)),
                                          (homology, "proj_dim", slice(0, 1)),
                                          (homology, "hom_dim", slice(0, 2)),
                                          (tilting, "ext1_dim", slice(0, 2)),
                                          (gluing, "ext1_dim", slice(0, 2)),
                                          (recollement, "i_upper_star", slice(1, 2)),
                                          (gluing, "i_upper_star", slice(1, 2)))]

    def on_roster():
        return {name for name, seen in calls
                if any(all(id(a) in entries for a in args) for args in seen)}

    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    first = glue_tilting(spec, shared)
    assert on_roster() == {"ext1_dim", "proj_dim", "hom_dim", "i_upper_star"}
    for _, seen in calls:
        seen.clear()
    assert glue_tilting(spec, shared).to_json() == first.to_json()
    assert on_roster() == set()


def test_roster_tables_hold_only_ints_and_bools(glued):
    ctx = split_context(glued, ["3", "4", "5"])
    shared = enumerate_roster(glued)
    assert glue_tilting(GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx)), shared).passed
    tables = (shared._ext1, shared._pd, shared._hom0, shared._unit)
    assert all(tables)
    for table in tables:
        for key, value in table.items():
            assert type(value) in (int, bool), (key, value)
            assert all(type(i) is int for i in (key if type(key) is tuple else (key,)))


def test_paper_case_tables_agree_with_the_sums(ctx, roster, glued, product_algebra, counting):
    sums = counting(gluing, "_certify_roster_sum", slice(0, 2))
    # the tilting certificates of the paper_cases verdicts: glues, restrictions, product
    certs = [glue_tilting(glue_case(case, ctx, roster, product_algebra)[0], roster).tilting
             for case in ("case1", "case2")]
    certs += [restrict_right(ctx, t, roster).tilting
              for t in (t_case3(roster, glued), t_case4(roster, glued))]
    spec, _ = glue_case("product", ctx, roster, product_algebra)
    glued_product = glue_tilting(spec)
    certs += [glued_product.tilting, restrict_left(spec.ctx, glued_product.module).tilting]
    assert len(certs) == 6
    # each was read off the tables of the roster whose entries at the indices are t's classes
    assert len(sums) == 6
    for cert, (on, indices) in zip(certs, sums):
        t = cert.module
        assert indices == sorted(set(indices)) and len(indices) == len(cert.classes)
        assert all(on.modules[i] is x for i, x in zip(indices, cert.classes))
        assert cert.tilting and cert.pd == proj_dim(t) and cert.ext1_self == ext1_dim(t, t)
        again, table = tilting._certify_roster_sum(on, indices)
        assert again.to_json() == cert.to_json()
        traced = partition_roster(t, on)
        assert (table.torsion, table.free, table.neither) == (
            traced.torsion, traced.free, traced.neither)


# -- the inputs' certificates on the spec, one Tor_1 family per reader ------------------


def test_second_glue_certifies_nothing(ctx, roster, counting):
    seen = counting(gluing, "is_tilting")
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    first = glue_tilting(spec, roster)
    assert len(seen) == 2
    assert seen[0] is spec.inner_tilting and seen[1] is spec.outer_tilting
    seen.clear()
    assert glue_tilting(spec, roster).to_json() == first.to_json()
    assert glued_pair_is_tilting(spec)
    assert seen == []


def test_replaced_spec_certifies_its_new_module(ctx, roster, counting):
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    glue_tilting(spec, roster)
    seen = counting(gluing, "is_tilting")
    other = dataclasses.replace(spec, outer_tilting=t_outer_case2(ctx))
    cert = glue_tilting(other, roster)
    # a replaced spec is a new object and holds no certificate of the old one
    assert len(seen) == 2 and seen[1] is other.outer_tilting
    assert other.outer_certificate is not spec.outer_certificate
    assert other.outer_certificate.module is other.outer_tilting
    assert cert.to_json() == glue_tilting(
        GluedPairSpec(ctx, t_inner(ctx), t_outer_case2(ctx)), roster).to_json()
    assert {s.dim_vector() for s in cert.summands} == CASE2_SUMMANDS


def test_spec_fields_cannot_be_assigned(ctx):
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    held = spec.outer_certificate
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.outer_tilting = t_outer_case2(ctx)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.outer_certificate = is_tilting(t_outer_case2(ctx))
    assert spec.outer_certificate is held and held.module is spec.outer_tilting


@pytest.mark.parametrize("slots, wrong", [
    (("outer", "inner"), "inner_tilting"),     # swapped
    (("whole", "outer"), "inner_tilting"),
    (("inner", "inner"), "outer_tilting"),
    (("inner", "whole"), "outer_tilting"),
], ids=["swapped", "whole_as_inner", "inner_as_outer", "whole_as_outer"])
def test_spec_rejects_a_module_over_the_wrong_algebra(slots, wrong, ctx, counting):
    seen = counting(gluing, "is_tilting")
    module = {"inner": t_inner(ctx), "outer": t_outer_case1(ctx),
              "whole": regular_module(ctx.algebra)}
    with pytest.raises(ValueError, match=f"^{wrong} must be a module over"):
        GluedPairSpec(ctx, *(module[s] for s in slots))
    assert seen == []


# each of these splits is fresh: the module's ctx holds a report some other test has read

def test_glue_computes_tor_only_on_the_outer_simples(glued, roster, counting):
    ctx = split_context(glued, ["3", "4", "5"])
    simples = counting(recollement, "tor1_right", 1)
    glue_tilting(GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx)), roster)
    assert all(s.algebra is ctx.outer_algebra for s in simples)
    assert [s.dim_vector() for s in simples] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_restrict_left_computes_tor_only_on_the_whole_simples(roster, glued, counting):
    ctx = split_context(glued, ["3", "4", "5"])
    simples = counting(recollement, "tor1_right", 1)
    res = restrict_left(ctx, t_case4(roster, glued), roster)
    assert all(s.algebra is glued for s in simples)
    assert [s.dim_vector() for s in simples] == [
        tuple(int(w == v) for w in glued.vertices) for v in glued.vertices]
    assert res.hypotheses["tor1_on_simples"]["3"] == 1


def test_exactness_is_computed_once_per_split(glued, roster, mutated_algebra, counting):
    ctx = split_context(glued, ["3", "4", "5"])
    assert check_exactness(ctx) is check_exactness(ctx)
    simples = counting(recollement, "tor1_right", 1)
    for outer in (t_outer_case1(ctx), t_outer_case2(ctx)):
        glue_tilting(GluedPairSpec(ctx, t_inner(ctx), outer), roster)
    restrict_left(ctx, t_case4(roster, glued), roster)
    # the three outer simples for j_!, the five simples of the whole algebra for i^*
    assert len(simples) == 3 + 5
    bad = split_context(mutated_algebra, ["3", "4", "5"])
    spec = GluedPairSpec(bad, regular_module(bad.inner_algebra), regular_module(bad.outer_algebra))
    failures = []
    for _ in range(2):
        with pytest.raises(HypothesisFailed) as err:
            glue_tilting(spec)
        failures.append((err.value.culprit, err.value.detail, len(simples)))
    culprit, _, calls = failures[0]
    # the mutated split reads its three outer simples once, on the first glue
    assert culprit == "j_!" and calls == 8 + 3 and failures[1] == failures[0]


def test_held_exactness_report_cannot_be_written_through_its_results(roster, glued):
    ctx = split_context(glued, ["3", "4", "5"])
    report = check_exactness(ctx)
    before = report.to_json()
    for part in before.values():
        part.update({k: 7 for k in part})
    res = restrict_left(ctx, t_case4(roster, glued), roster)
    res.hypotheses["tor1_on_simples"]["3"] = 0
    res.to_json()["hypotheses"]["tor1_on_simples"]["1"] = 7
    for name in ("structural", "j_shriek_tor", "i_upper_star_tor"):
        with pytest.raises(TypeError):
            getattr(report, name)["3"] = 7
    fresh = ExactnessReport(ctx).to_json()
    assert check_exactness(ctx).to_json() == fresh
    assert fresh["i_upper_star_tor1_on_simples"] == {"1": 0, "2": 0, "3": 1, "4": 1, "5": 0}
    again = restrict_left(ctx, t_case4(roster, glued), roster)
    assert again.hypotheses["tor1_on_simples"] == fresh["i_upper_star_tor1_on_simples"]


@pytest.mark.parametrize("split", ["worked", "product", "mutated", "ladder"])
def test_held_exactness_report_equals_a_fresh_one(split, glued, product_algebra,
                                                  mutated_algebra):
    if split == "ladder":
        alg, outer = commutative_ladder(2)
    else:
        alg = {"worked": glued, "product": product_algebra, "mutated": mutated_algebra}[split]
        outer = ["3", "4", "5"]
    ctx = split_context(alg, outer)
    # the held report is first read by the verdicts, as the benchmark reads it
    spec = GluedPairSpec(ctx, regular_module(ctx.inner_algebra),
                         regular_module(ctx.outer_algebra))
    if split == "mutated":
        with pytest.raises(HypothesisFailed) as err:
            glue_tilting(spec)
        assert err.value.culprit == "j_!"
    else:
        assert glue_tilting(spec).passed
    restrict_left(ctx, regular_module(alg))
    assert check_exactness(ctx).to_json() == ExactnessReport(ctx).to_json()


def test_universal_ext_failure_names_its_dimension(ctx, roster, monkeypatch):
    spec = GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx))
    first = glue_tilting(spec, roster)
    assert "universal_ext_witness" not in first.to_json()
    calls = []

    def nonzero(m, y):
        calls.append((m, y))
        return 3

    monkeypatch.setattr(gluing, "ext1_dim", nonzero)
    # a positive glue reads its Ext^1 off the roster's table and never calls ext1_dim
    assert glue_tilting(spec, roster).universal_ext_vanishes and calls == []
    # one nonzero (middle entry, lifted entry) value sends it to ext1_dim for the dimension
    middle = roster.index(roster.decompose(first.universal.middle)[0][0])
    lifted = gluing._lifted_index(ctx, roster, spec.outer_indices[0])
    monkeypatch.setitem(roster._ext1, (middle, lifted), 1)
    cert = glue_tilting(spec, roster)
    assert len(calls) == 1 and calls[0][0] is cert.universal.middle
    assert not cert.universal_ext_vanishes and not cert.passed
    assert cert.to_json()["universal_ext_witness"] == {"ext1_dim": 3}


# -- glued classes and the universal-Ext check read off the roster tables ------------


@pytest.mark.parametrize("case", ["case1", "case2", "product", "ladder"])
def test_table_reads_agree_with_the_trace(case, ctx, roster, product_algebra):
    if case == "ladder":
        # the top-outer split of CL_2; regular inputs glue to the regular module
        ladder, top = commutative_ladder(2)
        split = split_context(ladder, top)
        inn, out = split.inner_algebra, split.outer_algebra
        roster = enumerate_roster(ladder)
        specs = [GluedPairSpec(split, regular_module(inn), outer) for outer in (
            regular_module(out), direct_sum(out, [injective(out, v) for v in out.vertices]))]
    else:
        spec, roster = glue_case(case, ctx, roster, product_algebra)
        specs = [spec]
    names = ("i*", "j*", "i!")
    read = []
    for spec in specs:
        cert = glue_tilting(spec, roster)
        assert cert.passed
        split = spec.ctx
        parts = [gluing._roster(a) for a in (split.inner_algebra, split.outer_algebra)]
        # every class is a part roster's entry: no index lies past the entries
        assert all(k < len(parts[0].entries) for k in spec.inner_indices)
        assert all(k < len(parts[1].entries) for k in spec.outer_indices)
        images = [gluing._images(split, roster, name)[0] for name in names]
        for i in range(len(roster.modules)):
            assert all(k < len(parts[name == "j*"].entries)
                       for name in names for k in gluing._image_indices(split, roster, name, i))
            read.append(gluing._read_glued_class(spec, roster, i))
            assert read[-1] == gluing._glued_class(spec, *(im[i] for im in images))
        middle = cert.universal.middle
        at = [roster.index(p) for p, _ in roster.decompose(middle)]
        lifted = [gluing._lifted_index(split, roster, k) for k in spec.outer_indices]
        table = all(roster.ext1_dim(i, j) == 0 for i in at for j in lifted)
        assert table == (ext1_dim(middle, j_shriek(split, spec.outer_tilting)) == 0)
    assert {"torsion", "free"} <= set(read)


# -- rosters that lack a class: indices past the entries --------------------------------


@pytest.mark.parametrize("dropped", sorted(CASE1_SUMMANDS | CASE2_SUMMANDS))
def test_a_trimmed_roster_reads_a_glued_class_past_its_entries(dropped, ctx, roster):
    trimmed = homology.Roster(roster.algebra, [e for e in roster.entries
                                               if e.module.dim_vector() != dropped])
    n = len(trimmed.entries)
    names = ("i*", "j*", "i!")
    for outer in (t_outer_case1(ctx), t_outer_case2(ctx)):
        spec = GluedPairSpec(ctx, t_inner(ctx), outer)
        cert = glue_tilting(spec, trimmed)
        images = [gluing._images(ctx, trimmed, name)[0] for name in names]
        for i in range(n):
            assert gluing._read_glued_class(spec, trimmed, i) == gluing._glued_class(
                spec, *(im[i] for im in images))
        if cert.tilting.tilting:
            assert cert.partition_counts == partition_roster(cert.module, trimmed).counts()
    # the dropped class is a summand of case (1) or (2): the glue met it past the entries
    assert [x.dim_vector() for x in trimmed._extra] == [dropped]
    assert trimmed._class_index(by_dims(roster, dropped)) == n


def cyclic_nakayama_split(kill_cx: bool):
    """1 <-> 2 with xy = yx = 0 as the inner part and c: 3 -> 1 outer, with cx = 0 or not."""
    rels = [Relation([(1, ("x", "y"))]), Relation([(1, ("y", "x"))])]
    if kill_cx:
        rels.append(Relation([(1, ("c", "x"))]))
    quiver = Quiver(["1", "2", "3"], [("x", "1", "2"), ("y", "2", "1"), ("c", "3", "1")])
    return split_context(build_algebra(quiver, rels, 10), ["3"])


@pytest.mark.parametrize("kill_cx, want", [
    (False, (True, [(1, 1, 0), (1, 1, 0), (1, 1, 1)], True)),
    (True, (True, [(1, 0, 1), (1, 1, 0), (1, 1, 0)], True)),
], ids=["free", "cx=0"])
def test_cyclic_nakayama_glue_reads_the_missing_simples_past_the_entries(kill_cx, want):
    split = cyclic_nakayama_split(kill_cx)
    spec = GluedPairSpec(split, regular_module(split.inner_algebra),
                         regular_module(split.outer_algebra))
    cert = glue_tilting(spec)
    res = restrict_right(split, cert.module)
    assert (cert.passed, [s.dim_vector() for s in cert.summands], res.partition_equal) == want
    # the inner roster holds only the two projectives; the glue met both simples
    inner = gluing._roster(split.inner_algebra)
    assert [m.dim_vector() for m in inner.modules] == [(1, 1), (1, 1)]
    assert sorted(x.dim_vector() for x in inner._extra) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("call", ["glue_tilting", "restrict_right", "restrict_left"])
def test_a_roster_over_another_algebra_is_refused(call, ctx, roster, glued, product_algebra):
    other = enumerate_roster(product_algebra)
    with pytest.raises(ValueError, match="^roster must be a roster of the split's whole algebra"):
        if call == "glue_tilting":
            glue_tilting(GluedPairSpec(ctx, t_inner(ctx), t_outer_case1(ctx)), other)
        else:
            getattr(gluing, call)(ctx, t_case4(roster, glued), other)


# -- the fit filter of _add_pieces against the unfiltered multiplicity sum ------------


def commutative_ladder(n: int):
    """CL_n = A_2 (x) A_n: rows t1..tn over b1..bn, a_k v_{k+1} = v_k c_k per square."""
    top = [f"t{k}" for k in range(1, n + 1)]
    bottom = [f"b{k}" for k in range(1, n + 1)]
    arrows = ([(f"a{k}", f"t{k}", f"t{k + 1}") for k in range(1, n)]
              + [(f"c{k}", f"b{k}", f"b{k + 1}") for k in range(1, n)]
              + [(f"v{k}", f"t{k}", f"b{k}") for k in range(1, n + 1)])
    relations = [Relation([(1, (f"a{k}", f"v{k + 1}")), (-1, (f"v{k}", f"c{k}"))])
                 for k in range(1, n)]
    return build_algebra(Quiver(top + bottom, arrows), relations, 10), top


@pytest.fixture(scope="module")
def add_cases(glued, roster):
    """(roster, class lists with their unit ranks) on CL_3 and on the worked algebra.

    The class lists are the torsion and free classes of the regular module
    and of one tilting module, a glued one on CL_3 and case (4)'s here.
    """
    ladder, top = commutative_ladder(3)
    ladder_roster = enumerate_roster(ladder)
    assert len(ladder_roster.modules) == 29
    lctx = split_context(ladder, top)
    inn, out = lctx.inner_algebra, lctx.outer_algebra
    glued_ladder = glue_tilting(GluedPairSpec(
        lctx, regular_module(inn),
        direct_sum(out, [injective(out, v) for v in out.vertices])), ladder_roster)
    assert glued_ladder.passed
    cases = []
    for r, t in ((ladder_roster, glued_ladder.module), (roster, t_case4(roster, glued))):
        lists = []
        for module in (regular_module(r.algebra), t):
            part = partition_roster(module, r)
            for picked in (part.torsion, part.free):
                cls = [r.modules[i] for i in picked]
                lists.append((cls, [_unit_rank(x) for x in cls]))
        cases.append((r, lists))
    return cases


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_in_add_fit_filter_agrees_with_unfiltered_sum(add_cases, data):
    r, lists = data.draw(st.sampled_from(add_cases))
    cls, units = data.draw(st.sampled_from(lists))
    picks = data.draw(st.lists(st.integers(0, len(r.modules) - 1), min_size=1, max_size=4))
    m = direct_sum(r.algebra, [r.modules[i] for i in picks])
    want = sum(multiplicity(t, m) * t.total_dim for t in cls) == m.total_dim
    pieces = _add_pieces(m, cls, units.__getitem__)
    assert (pieces is not None) == want
    if want:
        assert pieces == [(t, multiplicity(t, m)) for t in cls if multiplicity(t, m)]
    assert want == all(any(r.modules[i] is x for x in cls) for i in picks)
