"""Tilting certificates and torsion machinery on the fixture algebras."""

import itertools
import random
from types import SimpleNamespace

import pytest

from rectilt import rep as rep_module
from rectilt import tilting as tilting_module
from rectilt.algebra import Quiver, build_algebra
from rectilt.errors import RectiltError
from rectilt.homology import enumerate_roster, ext1_dim, proj_dim, tau_inverse
from rectilt.linalg import Mat, kernel_basis, rref
from rectilt.rep import (
    Morphism,
    _linear_combination,
    cokernel,
    decompose,
    direct_sum,
    hom_basis,
    in_add_of,
    injective,
    is_isomorphic,
    projective,
    regular_module,
    simple,
    zero_rep,
)
from rectilt.tilting import (
    ext_projectives,
    gen_member,
    is_partial_tilting,
    is_tilting,
    is_tilting_torsion_pair,
    is_torsion_pair,
    partition_roster,
    perp_member,
    torsion_decompose,
    trace,
)
from test_rep import _cyclic_nakayama, _reference_pairing, _truncated_polynomials


def by_dims(roster, dims):
    for m in roster.modules:
        if m.dim_vector() == dims:
            return m
    raise LookupError(dims)


@pytest.fixture(scope="module")
def inner_roster(inner):
    return enumerate_roster(inner)


@pytest.fixture(scope="module")
def outer_roster(outer):
    return enumerate_roster(outer)


def t_prime(inner):
    return direct_sum(inner, [projective(inner, "1"), simple(inner, "1")])


# -- certificates -------------------------------------------------------

def test_regular_module_is_tilting(inner, outer, glued):
    for alg in (inner, outer, glued):
        cert = is_tilting(regular_module(alg))
        assert cert.tilting
        assert cert.pd == 0 and cert.ext1_self == 0


def test_t_prime_is_tilting(inner):
    cert = is_tilting(t_prime(inner))
    assert cert.tilting
    assert cert.indecomposable_count == 2


def test_s3_fails_partial_tilting(outer):
    cert = is_partial_tilting(simple(outer, "3"))
    assert cert.pd == 2
    assert not cert.partial_tilting


def test_outer_case2_module_is_tilting(outer):
    t = direct_sum(outer, [projective(outer, "3"), projective(outer, "4"),
                           simple(outer, "4")])
    assert is_tilting(t).tilting


def test_non_basic_input_still_certifies(outer):
    # j*(T) of the third worked case: S(4)^2 + P(4)^2 + P(3), basic part tilting
    t = direct_sum(outer, [simple(outer, "4"), simple(outer, "4"),
                           projective(outer, "4"), projective(outer, "4"),
                           projective(outer, "3")])
    cert = is_tilting(t)
    assert cert.tilting
    assert cert.indecomposable_count == 3


def test_partial_but_not_tilting(outer):
    cert = is_tilting(projective(outer, "5"))
    assert cert.partial_tilting
    assert not cert.tilting


# -- the minimal approximation against P(v) -> T^{dim Hom(P(v), T)} --------------

def linear_algebra(n):
    vs = [str(k) for k in range(1, n + 1)]
    return build_algebra(Quiver(vs, [(f"a{k}", vs[k - 1], vs[k]) for k in range(1, n)]), [])


def reference_t3(t):
    """(T3) from the non-minimal approximation, and each projective's middle term."""
    alg = t.algebra
    classes = [rep for rep, _ in decompose(t)]
    verdict, middles = True, {}
    for v in alg.vertices:
        pv = projective(alg, v)
        basis = hom_basis(pv, t)
        power = direct_sum(alg, [t] * len(basis))
        comps = {w: Mat.vstack([f.components[w] for f in basis], cols=pv.dims[w])
                 for w in alg.vertices}
        approx = Morphism(pv, power, comps)
        middles[v] = power.dim_vector()
        if verdict and not (approx.is_injective()
                            and in_add_of(cokernel(approx)[0], classes)):
            verdict = False
    return verdict, middles


def differential_inputs(glued):
    a3, a4 = linear_algebra(3), linear_algebra(4)
    rng = random.Random(11)
    picks = [(a3, s) for k in range(1, 7)
             for s in itertools.combinations(enumerate_roster(a3).modules, k)]
    # random sums rarely satisfy (T3); A plus any roster module always does
    for alg, count in ((a4, 6), (glued, 4)):
        mods = enumerate_roster(alg).modules
        projectives = [projective(alg, v) for v in alg.vertices]
        picks += [(alg, rng.sample(mods, rng.randint(2, 5))) for _ in range(count)]
        picks += [(alg, projectives + [m]) for m in rng.sample(mods, 2)]
    picks.append((glued, [injective(glued, v) for v in glued.vertices]))
    return [direct_sum(alg, mods) for alg, mods in picks]


def test_minimal_approximation_matches_reference(glued, monkeypatch):
    built = []
    approximate = tilting_module._left_approximation

    def recording(alg, v, classes, spans):
        f = approximate(alg, v, classes, spans)
        built.append((v, f.target.dim_vector()))
        return f

    monkeypatch.setattr(tilting_module, "_left_approximation", recording)
    for t in differential_inputs(glued):
        want, middles = reference_t3(t)
        built.clear()
        assert is_tilting(t).t3_constructive == want, t.to_json()
        assert built
        for v, mid in built:
            assert all(a <= b for a, b in zip(mid, middles[v])), (t.to_json(), v)


def _reference_class_radicals(classes):
    """``_class_radicals`` from maps: Hom bases, rad End off the Fraction trace form, rref pivots."""
    units, pivots = [], []
    for i, x in enumerate(classes):
        ends, _, pairing = _reference_pairing(x, x)
        rad = kernel_basis(pairing)
        units.append(len(ends) - rad.cols)
        radical = [_linear_combination(x, x, rad.col(k), ends) for k in range(rad.cols)]
        radical += [g for j, y in enumerate(classes) if j != i for g in hom_basis(y, x)]
        pivots.append({v: set(rref(Mat.hstack([g.components[v] for g in radical],
                                              rows=x.dims[v]).transpose())[1])
                       for v in x.algebra.vertices})
    return units, pivots


def test_integer_radical_pivots_match_the_maps(glued):
    # thin modules of directed algebras have no radical endomorphisms, so a
    # transposed block in the rad path would pass the roster sums; k[x]/(x^3)
    # and the cyclic Nakayama algebra have them, rationally conjugated too
    sums = differential_inputs(glued)
    for mods in (_truncated_polynomials(), _cyclic_nakayama()):
        alg = mods[0].algebra
        sums += [direct_sum(alg, mods[:k]) for k in range(1, 5)]
        sums += [direct_sum(alg, [m, n]) for m, n in itertools.combinations(mods, 2)
                 if m.total_dim + n.total_dim <= 9]
    with_radical = 0
    for t in sums:
        classes = [x for x, _ in decompose(t)]
        want = _reference_class_radicals(classes)
        assert tilting_module._class_radicals(classes) == want, t.to_json()
        with_radical += len(classes) > 1 and any(
            len(hom_basis(x, x)) > unit for x, unit in zip(classes, want[0]))
    assert with_radical >= 10


def test_splitting_and_radicals_build_no_maps(monkeypatch):
    # the splitting element and R_i(v) are read in integers; maps start at the pieces
    mods = _truncated_polynomials() + _cyclic_nakayama()
    splits = [m for m in mods if len(decompose(m)) > 1 or decompose(m)[0][1] > 1]
    splits += [direct_sum(m.algebra, [m, m]) for m in mods if m.total_dim <= 3]
    class_lists = [[x for x, _ in decompose(m)] for m in splits]
    want = ([[p.dim_vector() for p in rep_module._split_once(m)] for m in splits],
            [tilting_module._class_radicals(c) for c in class_lists])

    def refuse(*args, **kwargs):
        raise AssertionError("a map was built")

    for target, name in ((rep_module, "hom_basis"), (tilting_module, "hom_basis"),
                         (rep_module, "_linear_combination"), (Morphism, "__init__"),
                         (Mat, "__init__")):
        monkeypatch.setattr(target, name, refuse)
    # a piece stands in by its dimensions, so nothing builds a module either
    monkeypatch.setattr(rep_module, "subrep_from_subspaces", lambda m, spans: (
        SimpleNamespace(dims={v: s.cols for v, s in spans.items()}), None))
    got = ([[tuple(p.dims.values()) for p in rep_module._split_once(m)] for m in splits],
           [tilting_module._class_radicals(c) for c in class_lists])
    assert got == want
    assert len(splits) >= 8


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_regular_module_coresolves_itself(n):
    alg = linear_algebra(n)
    dims = regular_module(alg).dim_vector()
    cert = is_tilting(regular_module(alg))
    assert cert.t3_sequence_dims == (dims, dims, (0,) * n)


def test_injective_cogenerator_coresolution():
    # 0 -> P(v) -> I(4) -> I(v-1) -> 0 for linear A_4, with I(0) = 0
    alg = linear_algebra(4)
    cert = is_tilting(direct_sum(alg, [injective(alg, v) for v in alg.vertices]))
    assert cert.tilting
    assert cert.t3_sequence_dims == ((1, 2, 3, 4), (4, 4, 4, 4), (3, 2, 1, 0))


@pytest.mark.parametrize("summands, witness", [
    # P(1) = (1,1,1,1) reaches I(1) + I(2) + I(3) only through (1,1,1,0)
    ([("I", "1"), ("I", "2"), ("I", "3")],
     {"vertex": "1", "failure": "not_injective", "dims": {"1": 1, "2": 1, "3": 1, "4": 0}}),
    # P(4) -> P(3) has cokernel S(3), which is no summand of P(1) + P(2) + P(3)
    ([("P", "1"), ("P", "2"), ("P", "3")],
     {"vertex": "4", "failure": "cokernel_outside_add",
      "dims": {"1": 0, "2": 0, "3": 1, "4": 0}}),
], ids=["not_injective", "cokernel_outside_add"])
def test_t3_failure_names_its_vertex(summands, witness):
    alg = linear_algebra(4)
    make = {"I": injective, "P": projective}
    cert = is_tilting(direct_sum(alg, [make[kind](alg, v) for kind, v in summands]))
    assert cert.partial_tilting and not cert.tilting
    assert cert.indecomposable_count == 3 < cert.simple_count
    assert cert.t3_witness == witness
    assert cert.to_json()["t3_witness"] == witness
    assert cert.t3_sequence_dims is None
    assert "t3_witness" not in is_tilting(regular_module(alg)).to_json()


def test_zero_module_names_its_first_vertex():
    # the general loop: P(1) -> 0 is the first approximation, and it is not injective
    alg = linear_algebra(3)
    cert = is_tilting(zero_rep(alg))
    assert cert.partial_tilting and not cert.tilting
    assert cert.to_json()["t3_witness"] == {
        "vertex": "1", "failure": "not_injective", "dims": {"1": 0, "2": 0, "3": 0}}
    # with no vertex there is nothing to coresolve: the zero module is tilting
    empty = build_algebra(Quiver([], []), [])
    assert is_tilting(zero_rep(empty)).tilting


# -- trace and membership ---------------------------------------------------

def test_gen_member_of_regular(inner, glued):
    for alg in (inner, glued):
        reg = regular_module(alg)
        for v in alg.vertices:
            assert gen_member(reg, simple(alg, v))
            assert gen_member(reg, projective(alg, v))


def test_perp_and_gen_for_t_prime(inner):
    t = t_prime(inner)
    assert perp_member(t, simple(inner, "2"))
    assert gen_member(t, projective(inner, "1"))
    assert not gen_member(t, simple(inner, "2"))


def test_trace_idempotent(inner, inner_roster):
    t = t_prime(inner)
    for m in inner_roster.modules:
        tr, _ = trace(t, m)
        tr2, _ = trace(t, tr)
        assert tr2.dims == tr.dims


def test_torsion_decompose(inner):
    t = t_prime(inner)
    reg = regular_module(inner)
    ses = torsion_decompose(t, reg)
    assert is_isomorphic(ses.right, simple(inner, "2"))[0]
    # members of Gen T decompose with zero quotient
    ses2 = torsion_decompose(t, projective(inner, "1"))
    assert ses2.right.is_zero()
    # members of T-perp decompose with zero trace
    ses3 = torsion_decompose(t, simple(inner, "2"))
    assert ses3.left.is_zero()


def test_gen_iff_ext_vanishes_for_tilting(inner, inner_roster):
    from rectilt.homology import ext1_dim
    t = t_prime(inner)
    for m in inner_roster.modules:
        assert gen_member(t, m) == (ext1_dim(t, m) == 0)


# -- partitions ----------------------------------------------------------------

def test_partition_for_t_prime(inner, inner_roster):
    part = partition_roster(t_prime(inner), inner_roster)
    assert part.counts() == (2, 1, 0)


def test_partition_for_regular(inner, inner_roster):
    part = partition_roster(regular_module(inner), inner_roster)
    assert part.counts() == (3, 0, 0)


def _apr_tilt(alg):
    """An APR tilting module: tau^-1 P(v) with every other P(w).

    v is the first vertex whose projective is simple and not injective.
    """
    v = next(v for v in alg.vertices
             if projective(alg, v).total_dim == 1 and injective(alg, v).total_dim > 1)
    return direct_sum(alg, [projective(alg, w) for w in alg.vertices if w != v]
                      + [tau_inverse(projective(alg, v))])


def test_classify_agrees_with_trace_and_perp(glued, product_algebra, mutated_algebra):
    # gen_member is read off _classify, so Gen T is checked on the trace submodule itself
    a4 = build_algebra(Quiver(["1", "2", "3", "4"],
                              [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]), [])
    labels = set()
    for alg in (glued, product_algebra, mutated_algebra, a4):
        roster = enumerate_roster(alg)
        tilt, not_tilt = _apr_tilt(alg), direct_sum(alg, roster.modules[:3])
        assert is_tilting(tilt).tilting and not is_tilting(not_tilt).tilting
        mods = roster.modules + [zero_rep(alg),
                                 direct_sum(alg, [roster.modules[0], roster.modules[-1]])]
        for t in (regular_module(alg), tilt, not_tilt):
            for m in mods:
                want = ("torsion" if trace(t, m)[0].dims == m.dims else
                        "free" if perp_member(t, m) else "neither")
                assert tilting_module._classify(t, m) == want, (m.dim_vector(), want)
                labels.add(want)
    assert labels == {"torsion", "free", "neither"}


def test_tilting_torsion_pair_detection(inner, outer):
    assert is_tilting_torsion_pair(t_prime(inner))
    assert is_tilting_torsion_pair(regular_module(inner))
    # Gen P(5) over the outer algebra misses the injective S(3)
    assert not is_tilting_torsion_pair(projective(outer, "5"))


def test_is_torsion_pair_for_induced_pairs(inner, inner_roster):
    t = t_prime(inner)
    part = partition_roster(t, inner_roster)
    tclass = [inner_roster.modules[i] for i in part.torsion]
    fclass = [inner_roster.modules[i] for i in part.free]
    assert is_torsion_pair(tclass, fclass, inner_roster).holds


def test_is_torsion_pair_rejects_overlap(outer, outer_roster):
    # the third worked case: P(4) sits on both sides, witnessed by its identity
    tclass = [by_dims(outer_roster, d) for d in
              [(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 0, 0)]]
    fclass = [by_dims(outer_roster, d) for d in [(0, 0, 1), (0, 1, 1)]]
    verdict = is_torsion_pair(tclass, fclass, outer_roster)
    assert not verdict.holds
    assert verdict.witness["from_dims"] == verdict.witness["to_dims"]


def test_is_torsion_pair_case_four(outer, outer_roster):
    tclass = [by_dims(outer_roster, d) for d in
              [(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 0, 0)]]
    fclass = [by_dims(outer_roster, (0, 0, 1))]
    assert is_torsion_pair(tclass, fclass, outer_roster).holds


def test_whole_roster_with_empty_free_class(inner, inner_roster):
    assert is_torsion_pair(inner_roster.modules, [], inner_roster).holds


def test_is_torsion_pair_drops_repeated_classes(outer, outer_roster):
    # add-membership counts multiplicities, so a repeated class must not count twice
    tclass = [by_dims(outer_roster, d) for d in
              [(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 0, 0)]]
    fclass = [by_dims(outer_roster, (0, 0, 1))]
    assert is_torsion_pair(tclass + tclass[::-1], fclass * 2, outer_roster).holds


def test_torsion_decompose_check_is_an_error_not_an_assert(inner):
    # S1 + S2 is not tilting: the trace of it in P(1) is S(2), the quotient S(1)
    # is not in T-perp, and that must still be caught under ``python -O``
    t = direct_sum(inner, [simple(inner, "1"), simple(inner, "2")])
    with pytest.raises(RectiltError, match="T-perp"):
        torsion_decompose(t, projective(inner, "1"))


# -- (T1), (T2) and the partition read off the roster tables ---------------------

def _parts(part):
    return part.torsion, part.free, part.neither


def test_tables_agree_with_the_sum_on_every_four_entries_of_a4():
    roster = enumerate_roster(linear_algebra(4))
    assert len(roster.entries) == 10
    tilting_count = 0
    for picks in itertools.combinations(range(10), 4):
        t = direct_sum(roster.algebra, [roster.modules[i] for i in picks])
        assert max(roster.pd(i) for i in picks) == proj_dim(t), picks
        ext_self = sum(roster.ext1_dim(i, j) for i in picks for j in picks)
        assert ext_self == ext1_dim(t, t), picks
        if ext_self:
            continue        # not partial tilting, so not tilting either
        cert, part = tilting_module._certify_roster_sum(roster, picks)
        assert all(x is roster.modules[i] for x, i in zip(cert.classes, picks))
        assert cert.module.to_json() == t.to_json()
        assert (cert.pd, cert.ext1_self) == (proj_dim(t), 0) and cert.tilting
        assert _parts(part) == _parts(partition_roster(cert.module, roster)), picks
        tilting_count += 1
    assert tilting_count == 14      # the Catalan number C_4: the tilting modules of A_4


def test_a_certificate_that_is_not_tilting_takes_the_trace_path(counting):
    roster = enumerate_roster(linear_algebra(4))
    picks = next(p for p in itertools.combinations(range(10), 4)
                 if sum(roster.ext1_dim(i, j) for i in p for j in p))
    seen = counting(tilting_module, "_classify", slice(0, 2))
    cert, part = tilting_module._certify_roster_sum(roster, picks)
    assert not cert.tilting
    assert seen == [(cert.module, m) for m in roster.modules]
    assert _parts(part) == _parts(partition_roster(cert.module, roster))
    # a tilting sum reads the tables and classifies nothing
    seen.clear()
    regular, part = tilting_module._certify_roster_sum(
        roster, sorted(roster.index(projective(roster.algebra, v))
                       for v in roster.algebra.vertices))
    assert regular.tilting
    assert _parts(part) == ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [], [])
    assert seen == []
    # partition_roster always traces, also for a tilting module, on any roster
    other = enumerate_roster(roster.algebra)
    assert _parts(partition_roster(regular.module, other)) == _parts(part)
    assert seen == [(regular.module, m) for m in other.modules]


# -- Ext-projectives -------------------------------------------------------------

def test_ext_projectives_of_module_category(inner, inner_roster):
    p = ext_projectives(inner_roster.modules)
    assert is_isomorphic(p, regular_module(inner))[0]


def test_ext_projectives_of_gen_class(inner, inner_roster):
    t = t_prime(inner)
    part = partition_roster(t, inner_roster)
    tclass = [inner_roster.modules[i] for i in part.torsion]
    p = ext_projectives(tclass)
    assert is_isomorphic(p, t)[0] or sorted(p.dim_vector()) == sorted(t.dim_vector())
    # add-equality with T
    from rectilt.rep import add_equal
    assert add_equal([p], [t])
