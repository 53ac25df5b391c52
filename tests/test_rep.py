"""Representations: hom spaces, constructions, decomposition, isomorphism."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectilt import rep as rep_module
from rectilt import tilting as tilting_module
from rectilt.algebra import Quiver, Relation, build_algebra
from rectilt.errors import PossibleDivisionAlgebra, RectiltError
from rectilt.homology import enumerate_roster, projective_cover, tensor_dim_data
from rectilt.linalg import Mat, _free_entry, kernel_basis, quotient, rank, rref, solve
from rectilt.rep import (
    SES,
    Morphism,
    Representation,
    add_equal,
    decompose,
    direct_sum,
    dual,
    cokernel,
    flatten_morphism,
    hom_basis,
    hom_dim,
    identity_morphism,
    injective,
    image,
    in_add_of,
    is_isomorphic,
    kernel,
    multiplicity,
    projective,
    pushout,
    same_class,
    simple,
    split_off_summand,
    zero_morphism,
    zero_rep,
)


def sub_morphism(sub, amb, comps):
    return Morphism(sub, amb, comps)


# -- standard modules ----------------------------------------------------

def test_standard_modules_over_a2(inner):
    p1 = projective(inner, "1")
    p2 = projective(inner, "2")
    assert p1.dim_vector() == (1, 1)
    assert p2.dim_vector() == (0, 1)
    assert p2 == simple(inner, "2")
    i2 = injective(inner, "2")
    assert is_isomorphic(i2, p1)[0]


def test_standard_modules_over_outer(outer):
    assert projective(outer, "3").dim_vector() == (1, 1, 0)
    assert projective(outer, "4").dim_vector() == (0, 1, 1)
    assert projective(outer, "5") == simple(outer, "5")
    # injectives: S(3), P(3) (= I(4)), P(4) (= I(5))
    assert injective(outer, "3") == simple(outer, "3")
    assert is_isomorphic(injective(outer, "4"), projective(outer, "3"))[0]
    assert is_isomorphic(injective(outer, "5"), projective(outer, "4"))[0]


def test_from_json_refuses_keys_that_name_nothing(outer):
    data = projective(outer, "3").to_json()
    assert Representation.from_json(outer, data) == projective(outer, "3")
    misspelled = {"dims": data["dims"], "maps": {"alfa": data["maps"]["alpha"]}}
    with pytest.raises(ValueError, match="'alfa'"):
        Representation.from_json(outer, misspelled)
    with pytest.raises(ValueError, match="'6'"):
        Representation.from_json(outer, {"dims": {**data["dims"], "6": 1}, "maps": data["maps"]})


def test_construction_refuses_keys_that_name_nothing(outer):
    with pytest.raises(ValueError, match="vertex key '9'"):
        simple(outer, "9")
    with pytest.raises(ValueError, match="vertex key '6'"):
        Representation(outer, {"3": 1, "4": 1, "6": 2}, {"alpha": Mat.identity(1)})
    with pytest.raises(ValueError, match="arrow key 'alfa'"):
        Representation(outer, {"3": 1, "4": 1}, {"alfa": Mat.identity(1)})
    # a vertex or arrow left out is zero, as before
    m = Representation(outer, {"3": 1, "4": 1}, {"alpha": Mat.identity(1)})
    assert m == projective(outer, "3") and m.dims["5"] == 0


def test_relation_violation_is_rejected(outer):
    with pytest.raises(ValueError):
        Representation(outer, {"3": 1, "4": 1, "5": 1},
                       {"alpha": Mat.identity(1), "beta": Mat.identity(1)})


# -- hom spaces ----------------------------------------------------------

def test_hom_from_projective_is_yoneda(inner):
    p1 = projective(inner, "1")
    for m in [projective(inner, "1"), simple(inner, "1"), simple(inner, "2")]:
        assert hom_dim(p1, m) == m.dims["1"]


def test_hom_between_simples_vanishes(inner):
    assert hom_dim(simple(inner, "1"), simple(inner, "2")) == 0


def test_hom_p5_p4_over_outer(outer):
    # maps P(5) -> P(4) are fixed by the image of the generator: dims P(4) at 5 = 1
    assert hom_dim(projective(outer, "5"), projective(outer, "4")) == 1


def test_hom_additivity(inner):
    a = projective(inner, "1")
    b = simple(inner, "1")
    c = simple(inner, "2")
    lhs = hom_dim(direct_sum(inner, [a, b]), c)
    assert lhs == hom_dim(a, c) + hom_dim(b, c)


# -- sums ----------------------------------------------------------------

def test_direct_sum_empty_is_zero(inner):
    z = direct_sum(inner, [])
    assert z.is_zero()


def test_direct_sum_dims(inner, outer):
    s = direct_sum(inner, [projective(inner, "1"), simple(inner, "1")])
    assert s.dim_vector() == (2, 1)
    t2 = direct_sum(outer, [projective(outer, v) for v in ("3", "4", "5")])
    assert t2.dim_vector() == (1, 2, 2)


def _linear_a3():
    return build_algebra(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]), [])


def _interval(alg, lo, hi, scale=None):
    dims = {v: int(lo <= int(v) <= hi) for v in alg.vertices}
    maps = {a.name: Mat.identity(1) if scale is None else Mat.from_rows([[scale]])
            for a in alg.arrows if lo <= int(a.source) and int(a.target) <= hi}
    return Representation(alg, dims, maps)


def test_equal_sums_of_thin_modules_share_their_parts():
    # a caller that keeps many sums of interval modules keeps one copy of their data
    alg = _linear_a3()
    s1, s2 = (direct_sum(alg, [_interval(alg, 1, 3), _interval(alg, 2, 2)]) for _ in range(2))
    assert s1 is not s2 and s1 == s2
    assert s1.dims is s2.dims and s1.maps is s2.maps
    other = direct_sum(alg, [_interval(alg, 1, 2), _interval(alg, 2, 3)])
    assert other != s1 and other.dim_vector() == s1.dim_vector()
    assert other.dims is s1.dims and other.maps is not s1.maps
    # entries other than the shared 0 and 1 keep their own maps, equal or not
    w1, w2 = (direct_sum(alg, [_interval(alg, 1, 3, scale=2)]) for _ in range(2))
    assert w1 == w2 and w1.maps is not w2.maps
    # the tables belong to the algebra, and stop taking entries at the bound
    again = _linear_a3()
    s3 = direct_sum(again, [_interval(again, 1, 3), _interval(again, 2, 2)])
    assert s3.maps == s1.maps and s3.maps is not s1.maps and s3 != s1


def test_sharing_stops_at_the_table_bound(monkeypatch):
    monkeypatch.setattr(rep_module, "_SHARED_MAX", 0)
    alg = _linear_a3()
    s1, s2 = (direct_sum(alg, [_interval(alg, 1, 3), _interval(alg, 2, 2)]) for _ in range(2))
    assert s1 == s2 and s1.dims is not s2.dims and s1.maps is not s2.maps
    assert all(not table for table in alg._shared_tables)


# -- kernel / cokernel / image -------------------------------------------

def test_kernel_of_identity_is_zero(inner):
    p1 = projective(inner, "1")
    k, _ = kernel(identity_morphism(p1))
    assert k.is_zero()


def test_cokernel_of_zero_map(inner):
    m = simple(inner, "1")
    n = projective(inner, "1")
    c, proj = cokernel(zero_morphism(m, n))
    assert c.dim_vector() == n.dim_vector()
    assert proj.is_surjective() and proj.is_injective()


def test_cokernel_of_radical_inclusion_is_simple_top(inner):
    p1 = projective(inner, "1")
    p2 = projective(inner, "2")
    incl = Morphism(p2, p1, {"2": Mat.identity(1)})
    c, _ = cokernel(incl)
    assert c == simple(inner, "1")


def test_kernel_image_dims_add(inner):
    p1 = projective(inner, "1")
    f = zero_morphism(p1, p1)
    for g in hom_basis(p1, p1):
        f = f.add(g)
    k, _ = kernel(f)
    im, _ = image(f)
    for v in inner.vertices:
        assert k.dims[v] + im.dims[v] == p1.dims[v]


# -- pushout ---------------------------------------------------------------

def test_pushout_along_identity(inner):
    w = simple(inner, "2")
    n = projective(inner, "1")
    f = Morphism(w, n, {"2": Mat.identity(1)})
    e, leg_n, _ = pushout(f, identity_morphism(w))
    assert e.dim_vector() == n.dim_vector()
    assert leg_n.is_invertible()


def test_pushout_of_zero_maps_is_sum(inner):
    w = simple(inner, "2")
    n = projective(inner, "1")
    p = simple(inner, "1")
    e, _, _ = pushout(zero_morphism(w, n), zero_morphism(w, p))
    assert e.dim_vector() == (2, 1)


def test_pushout_square_commutes_and_its_legs_cover(outer):
    # omega(S(3)) -> P(3) pushed out along a nonzero map omega(S(3)) -> S(4)
    iota = kernel(projective_cover(simple(outer, "3"))[1])[1]
    g = hom_basis(iota.source, simple(outer, "4"))[0]
    e, leg_n, leg_p = pushout(iota, g)
    assert leg_n.compose(iota) == leg_p.compose(g)
    assert all(rank(Mat.hstack([leg_n.components[v], leg_p.components[v]])) == e.dims[v]
               for v in outer.vertices)
    assert e.dim_vector() == (1, 1, 0)


def test_pushout_realizes_nonsplit_extension(inner):
    # omega(S(1)) = S(2) -> P(1); pushing out along id S(2) rebuilds P(1)
    s2 = simple(inner, "2")
    p1 = projective(inner, "1")
    iota = Morphism(s2, p1, {"2": Mat.identity(1)})
    e, _, _ = pushout(iota, identity_morphism(s2))
    assert is_isomorphic(e, p1)[0]


# -- SES -------------------------------------------------------------------

def test_ses_accepts_exact_and_rejects_inexact(inner):
    p1 = projective(inner, "1")
    s1 = simple(inner, "1")
    s2 = simple(inner, "2")
    incl = Morphism(s2, p1, {"2": Mat.identity(1)})
    proj = Morphism(p1, s1, {"1": Mat.identity(1)})
    ses = SES(incl, proj)
    assert ses.middle == p1
    with pytest.raises(ValueError):
        SES(incl, Morphism(p1, zero_rep(inner), {}))


# -- decomposition ----------------------------------------------------------

def test_decompose_zero_module(inner):
    assert decompose(zero_rep(inner)) == []


def test_decompose_block_diagonal(inner):
    m = direct_sum(inner, [projective(inner, "1"), simple(inner, "1")])
    parts = decompose(m)
    assert len(parts) == 2
    assert sorted(p.dim_vector() for p, _ in parts) == [(1, 0), (1, 1)]
    assert all(mult == 1 for _, mult in parts)


def test_decompose_repeated_summand(inner):
    # End/rad is a 2x2 matrix algebra here; the splitter must crack it
    m = direct_sum(inner, [projective(inner, "1"), projective(inner, "1")])
    parts = decompose(m)
    assert len(parts) == 1
    rep, mult = parts[0]
    assert mult == 2 and rep.dim_vector() == (1, 1)


def test_decompose_seed_stability(inner, outer):
    # the same module, its summands given in two orders, decomposes the same way
    for alg, mods in ((inner, ["1", "2"]), (outer, ["3", "4", "5"])):
        parts = [projective(alg, v) for v in mods] + [simple(alg, mods[0])]
        d0 = decompose(direct_sum(alg, parts))
        d1 = decompose(direct_sum(alg, parts[::-1]))
        assert [(p.dim_vector(), k) for p, k in d0] == [(p.dim_vector(), k) for p, k in d1]
        for (p0, _), (p1, _) in zip(d0, d1):
            assert is_isomorphic(p0, p1)[0]


def test_split_candidates_keep_their_order():
    # units first, then the fixed draws: the order decompose has always tried
    rng = random.Random(0)
    units = [[Fraction(int(i == k)) for i in range(3)] for k in range(3)]
    draws = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(64)]
    assert list(rep_module._split_candidates(3)) == units + draws


def test_min_poly_loop_is_capped(inner, monkeypatch):
    # with no linear dependency among the powers the search must stop at dim M + 1
    monkeypatch.setattr(rep_module, "_krylov_reduce", lambda stored, vec, comb: (vec, comb))
    m = direct_sum(inner, [projective(inner, "1"), simple(inner, "1")])
    with pytest.raises(RectiltError, match="no minimal polynomial within 4 powers"):
        decompose(m)


def test_primary_kernels_must_add_up(inner, monkeypatch):
    # the check must still fire under ``python -O``
    # every primary kernel is all of M, as if each p^e(x) were zero
    monkeypatch.setattr(rep_module, "_primary_spans", lambda coeffs, d, big: {
        v: Mat.identity(len(mat)) for v, mat in big.items()})
    m = direct_sum(inner, [projective(inner, "1"), simple(inner, "1")])
    with pytest.raises(RectiltError, match="do not add up"):
        decompose(m)


def test_division_algebra_endomorphisms_raise():
    # Kronecker quiver 1 => 2 with a = I and b a quarter turn: End(M) = Q(i)
    alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], 10)
    m = Representation(alg, {"1": 2, "2": 2},
                       {"a": Mat.identity(2), "b": Mat.from_rows([[0, -1], [1, 0]])})
    assert len(hom_basis(m, m)) == 2
    with pytest.raises(PossibleDivisionAlgebra):
        decompose(m)
    # N = (Q -a-> Q) splits off first; the Q(i) piece then exhausts every candidate
    n = Representation(alg, {"1": 1, "2": 1}, {"a": Mat.identity(1)})
    with pytest.raises(PossibleDivisionAlgebra):
        decompose(direct_sum(alg, [m, n]))


# -- primary factors: rational roots first, sympy for the rest -------------------

def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _monic_multiset(factors):
    return sorted(tuple(Fraction(c) / f[0] for c in f) for f in factors)


def _sympy_factors(coeffs):
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs],
                      sympy.Symbol("t"), domain="QQ")
    return [[Fraction(int(c.p), int(c.q)) for c in (base ** e).all_coeffs()]
            for base, e in poly.factor_list()[1]]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(roots=st.dictionaries(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                             st.integers(1, 3), min_size=1, max_size=4),
       extra=st.sampled_from(["none", "none", "t^2 + a", "t^3 - 2"]),
       a=st.integers(1, 5))
def test_primary_factors_agree_with_sympy(roots, extra, a):
    factor = {"none": [1], "t^2 + a": [1, 0, a], "t^3 - 2": [1, 0, 0, -2]}[extra]
    poly = [Fraction(c) for c in factor]
    for r, e in roots.items():
        for _ in range(e):
            poly = _poly_mul(poly, [Fraction(1), -r])
    want = _monic_multiset(_sympy_factors(poly))
    scale = lcm(*(c.denominator for c in poly))
    ints = [int(c * scale) for c in poly]
    while ints[-1] == 0:
        ints.pop()
    # all roots rational and within the search bound: answered with sympy unimportable
    fast = extra == "none" and max(abs(ints[0]), abs(ints[-1])) <= rep_module._ROOT_SEARCH_BOUND
    with mock.patch.dict(sys.modules, {"sympy": None} if fast else {}):
        assert _monic_multiset(rep_module._primary_factors(poly)) == want


def test_primary_factors_past_the_search_bound_use_sympy(monkeypatch):
    # (t - 1)^2 (t + 1/2) (t + 2 * bound + 1): past the bound, so no divisor search
    big = 2 * rep_module._ROOT_SEARCH_BOUND + 1
    poly = _poly_mul(_poly_mul([Fraction(1), Fraction(-1)], [Fraction(1), Fraction(-1)]),
                     _poly_mul([Fraction(1), Fraction(1, 2)], [Fraction(1), Fraction(big)]))
    want = _monic_multiset(_sympy_factors(poly))
    assert want == _monic_multiset([[1, -2, 1], [1, Fraction(1, 2)], [1, big]])

    def no_search(n):
        raise AssertionError("the divisor search ran past its bound")

    monkeypatch.setattr(rep_module, "_divisors", no_search)
    assert _monic_multiset(rep_module._primary_factors(poly)) == want


# -- isomorphism --------------------------------------------------------------

def test_identity_isomorphism(inner):
    p1 = projective(inner, "1")
    ok, wit = is_isomorphic(p1, p1)
    assert ok and wit.is_invertible()


def test_different_simples_not_isomorphic(inner):
    assert not is_isomorphic(simple(inner, "1"), simple(inner, "2"))[0]


def test_negative_isomorphism_names_its_witness(inner):
    s1, s2 = simple(inner, "1"), simple(inner, "2")
    assert is_isomorphic(direct_sum(inner, [s1, s2]), direct_sum(inner, [s1, s1])) == (
        False, {"class_dims": {"1": 0, "2": 1}, "multiplicity_in_m": 1, "rank_in_n": 0})
    # every class of S1 occurs once in S1 + S2; only the dimensions tell them apart
    assert is_isomorphic(s1, direct_sum(inner, [s1, s2])) == (
        False, {"dims_m": {"1": 1, "2": 0}, "dims_n": {"1": 1, "2": 1}})


def test_random_conjugates_are_isomorphic(glued):
    rng = random.Random(7)
    p = projective(glued, "3")
    for _ in range(3):
        g = {}
        for v in glued.vertices:
            n = p.dims[v]
            while True:
                cand = Mat(n, n, [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                                  for _ in range(n)])
                if rank(cand) == n:
                    break
            g[v] = cand
        maps = {}
        for a in glued.arrows:
            gi_inv = solve(g[a.source], Mat.identity(p.dims[a.source]))
            maps[a.name] = g[a.target] @ p.maps[a.name] @ gi_inv
        conj = Representation(glued, dict(p.dims), maps)
        ok, wit = is_isomorphic(p, conj)
        assert ok and wit.is_invertible()


def test_repeated_simple_is_isomorphic_to_itself(inner):
    # no basis element of End(S1 + S1) is invertible; the witness is built from the pairing
    s1 = simple(inner, "1")
    m = direct_sum(inner, [s1, s1])
    assert not any(f.is_invertible() for f in hom_basis(m, m))
    ok, wit = is_isomorphic(m, direct_sum(inner, [s1, s1]))
    assert ok and wit.is_invertible()


def test_split_off_summand(inner):
    p1, s1, s2 = projective(inner, "1"), simple(inner, "1"), simple(inner, "2")
    c = direct_sum(inner, [p1, s1, p1])
    rest = split_off_summand(c, p1)
    assert is_isomorphic(rest, direct_sum(inner, [s1, p1]))[0]
    assert is_isomorphic(split_off_summand(c, s1), direct_sum(inner, [p1, p1]))[0]
    # S2 embeds in P1 and is too small to rule out by dimensions, yet is no summand
    assert split_off_summand(c, s2) is None
    assert split_off_summand(s1, p1) is None
    assert split_off_summand(c, zero_rep(inner)) is None


def test_multiplicity_rejects_a_decomposable_class(inner):
    # rank P(S1+S1, S1+P1) = 2 is not a multiple of dim End(S1+S1)/rad = 4
    s1 = simple(inner, "1")
    x = direct_sum(inner, [s1, s1])
    with pytest.raises(RectiltError, match="not indecomposable"):
        multiplicity(x, direct_sum(inner, [s1, projective(inner, "1")]))


def test_same_class_and_add_equal(inner):
    p1, s1, s2 = projective(inner, "1"), simple(inner, "1"), simple(inner, "2")
    # P1 and S1 + S2 share a dimension vector; S1 is a summand of S1 + S2
    assert not same_class(p1, direct_sum(inner, [s1, s2]))
    assert not same_class(s1, direct_sum(inner, [s1, s2]))
    assert same_class(p1, injective(inner, "2"))
    assert add_equal([direct_sum(inner, [p1, s1, p1])], [s1, p1])
    assert not add_equal([p1, s1], [p1])
    assert not add_equal([p1, s1], [p1, s2])


# -- differential test of the trace-pairing criterion --------------------------

@pytest.fixture(scope="module")
def rosters(glued):
    a4 = build_algebra(Quiver(["1", "2", "3", "4"],
                              [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]), [])
    return [enumerate_roster(glued), enumerate_roster(a4)]


def _simple_factors(m):
    return [simple(m.algebra, v) for v in m.algebra.vertices for _ in range(m.dims[v])]


def _random_conjugate(m, rng):
    g = {}
    for v in m.algebra.vertices:
        n = m.dims[v]
        while True:
            cand = Mat(n, n, [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                              for _ in range(n)])
            if rank(cand) == n:
                break
        g[v] = cand
    maps = {a.name: g[a.target] @ m.maps[a.name]
            @ solve(g[a.source], Mat.identity(m.dims[a.source]))
            for a in m.algebra.arrows}
    return Representation(m.algebra, dict(m.dims), maps)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.data())
def test_trace_pairing_decides_summands(rosters, data):
    roster = rosters[data.draw(st.integers(0, 1), label="algebra")]
    mods = roster.modules
    picks = data.draw(st.lists(st.integers(0, len(mods) - 1), min_size=1, max_size=5),
                      label="picks")
    alg = roster.algebra
    m = direct_sum(alg, [mods[i] for i in picks])
    for i, x in enumerate(mods):
        assert multiplicity(x, m) == picks.count(i)
    support = [mods[i] for i in sorted(set(picks))]
    assert in_add_of(m, support)
    for k in range(len(support)):
        assert not in_add_of(m, support[:k] + support[k + 1:])

    conj = _random_conjugate(m, random.Random(data.draw(st.integers(0, 2 ** 16), label="g")))
    ok, wit = is_isomorphic(m, conj)
    assert ok and wit.is_invertible()
    Morphism(m, conj, wit.components)  # checks that the witness intertwines

    nonsimple = [x for x in mods if x.total_dim > 1]
    x = nonsimple[data.draw(st.integers(0, len(nonsimple) - 1), label="x")]
    # equal dimension vectors, different multisets of summands
    with_x = direct_sum(alg, [mods[i] for i in picks] + [x])
    with_factors = direct_sum(alg, [mods[i] for i in picks] + _simple_factors(x))
    assert not is_isomorphic(with_x, with_factors)[0]
    assert not is_isomorphic(with_factors, with_x)[0]


# -- integer hom systems and Krylov against their Fraction references --------------------

def _rational_conjugate(m, rng):
    """m with each vertex basis changed by an invertible matrix of small fractions."""
    g = {}
    for v in m.algebra.vertices:
        n = m.dims[v]
        while True:
            cand = Mat(n, n, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                              for _ in range(n)])
            if rank(cand) == n:
                break
        g[v] = cand
    maps = {a.name: g[a.target] @ m.maps[a.name]
            @ solve(g[a.source], Mat.identity(m.dims[a.source]))
            for a in m.algebra.arrows}
    return Representation(m.algebra, dict(m.dims), maps)


def _kron(a, b):
    return Mat(a.rows * b.rows, a.cols * b.cols,
               [[a[i // b.rows, j // b.cols] * b[i % b.rows, j % b.cols]
                 for j in range(a.cols * b.cols)] for i in range(a.rows * b.rows)])


def _fraction_system(m, n):
    """Hom(m, n)'s intertwining system in Fractions, with phi_v flattened row-major.

    Arrow a: i -> j contributes vec(N_a phi_i - phi_j M_a) =
    (N_a (x) I) vec(phi_i) - (I (x) M_a^T) vec(phi_j).
    """
    alg = m.algebra
    offsets, total = {}, 0
    for v in alg.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    rows = []
    for a in alg.arrows:
        i, j = a.source, a.target
        left = _kron(n.maps[a.name], Mat.identity(m.dims[i]))
        right = _kron(Mat.identity(n.dims[j]), m.maps[a.name].transpose())
        for r in range(left.rows):
            row = [Fraction(0)] * total
            for c in range(left.cols):
                row[offsets[i] + c] += left[r, c]
            for c in range(right.cols):
                row[offsets[j] + c] -= right[r, c]
            rows.append(row)
    return Mat(len(rows), total, rows), offsets, total


def _reference_hom_basis(m, n):
    system, offsets, total = _fraction_system(m, n)
    k = kernel_basis(system)
    return [{v: Mat(n.dims[v], m.dims[v],
                    [[k[offsets[v] + r * m.dims[v] + c, col] for c in range(m.dims[v])]
                     for r in range(n.dims[v])])
             for v in m.algebra.vertices}
            for col in range(k.cols)]


def _solve_loop_min_poly(x):
    """The first dependency of x^k on the lower powers, one ``solve`` per power."""
    current = identity_morphism(x.source)
    powers = [flatten_morphism(current)]
    for _ in range(x.source.total_dim):
        current = x.compose(current)
        flat = flatten_morphism(current)
        sol = solve(Mat.from_rows(powers).transpose(), Mat.column(flat))
        if sol is not None:
            k = len(powers)
            return [Fraction(1)] + [-sol[k - 1 - i, 0] for i in range(k)]
        powers.append(flat)
    raise AssertionError("Cayley-Hamilton bounds the degree by dim M")


def _integer_blocks(x, extra=1):
    """``(d, X)``: d is ``extra`` times the least d making X = d x integral; X's vertex matrices."""
    d = extra * lcm(*(e.denominator for c in x.components.values() for row in c.entries
                      for e in row))
    return d, {v: [[int(e * d) for e in row] for row in c.entries]
               for v, c in x.components.items()}


def _poly_at(coeffs, x):
    """coeffs(x) by Horner's rule, vertex by vertex, in Fractions."""
    out = {}
    for v, mat in x.components.items():
        acc = Mat.zeros(mat.rows, mat.cols)
        for c in coeffs:
            acc = mat @ acc + Mat.identity(mat.rows).scale(c)
        out[v] = acc
    return out


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.data())
def test_integer_systems_match_fraction_references(rosters, data):
    roster = rosters[data.draw(st.integers(0, 1), label="algebra")]
    mods, alg = roster.modules, roster.algebra
    rng = random.Random(data.draw(st.integers(0, 2 ** 16), label="g"))

    def draw_sum(label):
        picks = data.draw(st.lists(st.integers(0, len(mods) - 1), min_size=1, max_size=3),
                          label=label)
        return _rational_conjugate(direct_sum(alg, [mods[i] for i in picks]), rng)

    m, n = draw_sum("m"), draw_sum("n")
    for a, b in ((m, n), (n, m), (m, m)):
        assert [f.components for f in hom_basis(a, b)] == _reference_hom_basis(a, b)

    ends = hom_basis(m, m)
    coeffs = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                                min_size=len(ends), max_size=len(ends)), label="x")
    x = rep_module._linear_combination(m, m, coeffs, ends)
    poly = rep_module._min_poly(*_integer_blocks(x))
    assert poly[0] == 1
    assert all(c.is_zero() for c in _poly_at(poly, x).values())
    assert poly == _solve_loop_min_poly(x)
    # the monic polynomial does not depend on which d makes X = d x integral
    assert rep_module._min_poly(*_integer_blocks(x, 6)) == poly

    # N = D n, a right module with fractional maps; then DN = n
    system, offsets, total = _fraction_system(m, n)
    dim, proj = quotient(total, system.transpose())
    assert tensor_dim_data(dual(n), m) == (dim, proj, offsets, total)


def test_subrep_inclusion_is_a_validated_morphism(rosters):
    # subrep_from_subspaces, quotient_rep and projective_cover skip the intertwining
    # check on the maps they build; a validated Morphism must agree
    rng = random.Random(4)
    proper = 0
    for roster in rosters:
        for _ in range(3):
            m = _rational_conjugate(direct_sum(roster.algebra, rng.sample(roster.modules, 3)),
                                    rng)
            p0, surj, _ = projective_cover(m)
            assert Morphism(p0, m, surj.components).components == surj.components
            for f in hom_basis(m, m)[:4]:
                for sub, incl in (kernel(f), image(f)):
                    assert Morphism(sub, m, incl.components).components == incl.components
                    proper += 0 < sub.total_dim < m.total_dim
                quot, proj = cokernel(f)
                assert Morphism(m, quot, proj.components).components == proj.components
    assert proper >= 10


# -- the integer pairing and image ranks where End has a radical ------------------------

def _jordan(alg, n):
    """The n-dimensional module of k[x]/(x^3) on which x is one nilpotent Jordan block."""
    return Representation(alg, {"1": n}, {"x": Mat(n, n, [[int(c == r + 1) for c in range(n)]
                                                          for r in range(n)])})


def _truncated_polynomials():
    """k[x]/(x^3) with J1, J2, J3, J3 + J3, J1 + J2 + J3 and a rational conjugate of the latter."""
    alg = build_algebra(Quiver(["1"], [("x", "1", "1")]), [Relation([(1, ("x", "x", "x"))])])
    j1, j2, j3 = (_jordan(alg, n) for n in (1, 2, 3))
    mixed = direct_sum(alg, [j1, j2, j3])
    return [j1, j2, j3, direct_sum(alg, [j3, j3]), mixed,
            _rational_conjugate(mixed, random.Random(5))]


def _cyclic_nakayama():
    """1 <-> 2 with aba = bab = 0: P(1), P(2), S(1), S(2), I(1) and two sums."""
    alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")]),
                        [Relation([(1, ("a", "b", "a"))]), Relation([(1, ("b", "a", "b"))])])
    p1, p2, s1, s2, i1 = (projective(alg, "1"), projective(alg, "2"), simple(alg, "1"),
                          simple(alg, "2"), injective(alg, "1"))
    return [p1, p2, s1, s2, i1, direct_sum(alg, [p1, p1, s2]),
            _rational_conjugate(direct_sum(alg, [p2, i1]), random.Random(6))]


def _reference_classify(t, m):
    """``_classify`` from a Hom basis of maps: the rank of their images at each vertex."""
    basis = hom_basis(t, m)
    if not basis:
        return "torsion" if m.is_zero() else "free"
    spans = tilting_module._image_spans(basis, m)
    return "torsion" if all(rank(spans[v]) == m.dims[v] for v in spans) else "neither"


def _reference_pairing(x, m):
    """Hom(x, m) and Hom(m, x)'s bases and P[i][j] = tr(g_j o f_i) as F @ G^T, in Fractions."""
    fs, gs = hom_basis(x, m), hom_basis(m, x)
    if not fs or not gs:
        return fs, gs, Mat.zeros(len(fs), len(gs))
    g_rows = [[c for v in g.source.algebra.vertices
               for row in g.components[v].transpose().entries for c in row] for g in gs]
    pairing = Mat.from_rows([flatten_morphism(f) for f in fs]) @ Mat.from_rows(g_rows).transpose()
    return fs, gs, pairing


def _reference_witness(m, n):
    """``is_isomorphic``'s witness from the pivots of the Fraction pairing, or None."""
    witness = zero_morphism(m, n)
    for x, k in decompose(m):
        fs, _, p_n = _reference_pairing(x, n)
        _, gs, p_m = _reference_pairing(x, m)
        rows = rref(p_n.transpose())[1]
        if len(rows) != k:
            return None
        for a, b in zip(rows, rref(p_m)[1]):
            witness = witness.add(fs[a].compose(gs[b]))
    return witness if m.dims == n.dims else None


def _reference_complement(c, t):
    """``split_off_summand``'s complement from the first nonzero entry of the Fraction pairing."""
    _, gs, p = _reference_pairing(t, c)
    return next((kernel(g)[0] for row in p.entries for g, e in zip(gs, row) if e), None)


@pytest.mark.parametrize("mods", [_truncated_polynomials, _cyclic_nakayama],
                         ids=["k[x]/x^3", "nakayama"])
def test_integer_ranks_agree_with_the_maps_on_radical_endomorphisms(mods):
    # thin modules of directed algebras have no radical maps, so a transposed
    # layout in the pairing would pass every roster test; these algebras do not
    mods = mods()
    assert any(len(hom_basis(x, x)) > rep_module._unit_rank(x) for x in mods)
    wrong = []
    for x in mods:
        for m in mods:
            want = rank(_reference_pairing(x, m)[2])
            if rep_module._pairing_rank(x, m) != want:
                wrong.append(("pairing", x.dim_vector(), m.dim_vector(), want))
            want = _reference_classify(x, m)
            if tilting_module._classify(x, m) != want:
                wrong.append(("classify", x.dim_vector(), m.dim_vector(), want))
            assert hom_dim(x, m) == len(hom_basis(x, m))
    assert not wrong, wrong


@pytest.mark.parametrize("mods", [_truncated_polynomials, _cyclic_nakayama],
                         ids=["k[x]/x^3", "nakayama"])
def test_integer_pairing_answers_as_the_fraction_pairing(mods):
    mods = mods()
    for x in mods:
        fs, rad = rep_module._end_radical(x)
        want = kernel_basis(_reference_pairing(x, x)[2])
        # fs[j] is the j-th basis map times its free entry L_j
        frees = [_free_entry(f) for f in fs]
        assert [[Fraction(e, s) for e in f] for f, s in zip(fs, frees)] == [
            flatten_morphism(g) for g in hom_basis(x, x)]
        # u in rad is sum u_j fs[j], so its coordinates in the basis are u_j L_j
        got = Mat.from_rows([[u * s for u, s in zip(vec, frees)] for vec in rad]) if rad \
            else Mat.zeros(0, len(fs))
        assert rref(got) == rref(want.transpose())
        assert rep_module._unit_rank(x) == len(fs) - want.cols
    isomorphic = 0
    for m in mods:
        for n in mods:
            ok, witness = is_isomorphic(m, n)
            want = _reference_witness(m, n)
            assert ok == (want is not None)
            if ok:
                assert witness == want
                isomorphic += m is not n
    splits = 0
    for m in mods:
        for t in {id(t): t for n in mods for t, _ in decompose(n)}.values():
            got = split_off_summand(m, t)
            assert got == _reference_complement(m, t)
            splits += got is not None
    assert isomorphic and splits


# -- sympy is imported only for a factor of degree >= 2 -----------------------------------

LAZY_SYMPY_SCRIPT = """
import json, sys
from rectilt.algebra import Quiver, build_algebra
from rectilt.homology import enumerate_roster
from rectilt.rep import decompose, direct_sum, projective
A = build_algebra(Quiver(["1", "2", "3", "4"],
                         [("a1", "1", "2"), ("a2", "2", "3"), ("a3", "3", "4")]), [])
enumerate_roster(A)
after_roster = "sympy" in sys.modules
split = decompose(direct_sum(A, [projective(A, "1"), projective(A, "2")]))
print(json.dumps({
    "after_roster": after_roster,
    "after_decompose": "sympy" in sys.modules,
    "summands": [[s.to_json(), k] for s, k in split],
    "projectives": [projective(A, v).to_json() for v in ("2", "1")],
}))
"""

# the Kronecker module of test_division_algebra_endomorphisms_raise: End(M) = Q(i)
IRREDUCIBLE_SYMPY_SCRIPT = """
import json, sys
from rectilt.algebra import Quiver, build_algebra
from rectilt.errors import PossibleDivisionAlgebra
from rectilt.linalg import Mat
from rectilt.rep import Representation, decompose
alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], 10)
m = Representation(alg, {"1": 2, "2": 2},
                   {"a": Mat.identity(2), "b": Mat.from_rows([[0, -1], [1, 0]])})
before = "sympy" in sys.modules
try:
    decompose(m)
    raised = False
except PossibleDivisionAlgebra:
    raised = True
print(json.dumps({"before": before, "raised": raised, "after": "sympy" in sys.modules}))
"""


def _run_script(script):
    src = str(Path(rep_module.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_sympy_is_imported_only_for_a_factor_of_degree_two_or_more():
    out = _run_script(LAZY_SYMPY_SCRIPT)
    assert out["after_roster"] is False
    # every minimal polynomial met splits into rational roots
    assert out["after_decompose"] is False
    # P1 + P2 over linear A_4 splits into P2 and P1, each once
    assert out["summands"] == [[p, 1] for p in out["projectives"]]
    # t^2 + 1 has no rational root: sympy factors it, and Q(i) still raises
    assert _run_script(IRREDUCIBLE_SYMPY_SCRIPT) == {"before": False, "raised": True,
                                                     "after": True}
