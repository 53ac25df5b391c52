"""The module-category recollement of a triangular vertex split.

A split of the vertices into an inner part V' and an outer part V'' is
triangular when no path class runs from V' to V''.  The inner and outer
algebras are the full subquivers with their induced relations.  The
crossing path classes, from V'' to V', span the bimodule N that ties them
together.  j_! is computed one inner vertex v at a time: e_vN, the
crossing classes ending at v, is a right outer-algebra module, and
(N (x) Y)_v is ``tensor_dim_data(Y, e_vN)``, the balanced tensor quotient.

Functor dictionary (modules as triples (X, Y)_f):

    i_star        X |-> (X, 0)          extension by zero
    i_shriek      (X, Y)_f |-> X        the inner part, a submodule
    i_upper_star  (X, Y)_f |-> Coker f  inner part of the quotient
    j_shriek      Y |-> (N (x) Y, Y)_1  tensor lift
    j_star_upper  (X, Y)_f |-> Y        the outer part
    j_star_lower  Y |-> (0, Y)          extension by zero
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import ClassVar

from .algebra import BoundQuiverAlgebra, Quiver, build_algebra
from .errors import NotTriangular, RectiltError
from .homology import tensor_dim_data, tensor_map_between, tor1_right
from .linalg import Mat, solve
from .rep import (
    Morphism,
    Representation,
    SES,
    hom_dim,
    is_isomorphic,
    quotient_rep,
    simple,
)


@dataclass(eq=False)
class RecollementContext:
    """A triangular split; it compares and hashes by identity, so it can key held data.

    It holds its own ``ExactnessReport`` (``check_exactness``), which
    depends on the split alone.  Data that also depends on a roster is
    held on that roster (``gluing._images``).
    """
    algebra: BoundQuiverAlgebra
    inner_vertices: tuple
    outer_vertices: tuple
    inner_algebra: BoundQuiverAlgebra
    outer_algebra: BoundQuiverAlgebra
    crossing_paths: list            # basis indices of V'' -> V' path classes
    _exactness: ExactnessReport | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._inner_set = set(self.inner_vertices)
        self._outer_set = set(self.outer_vertices)


def split_context(algebra: BoundQuiverAlgebra, outer_vertices) -> RecollementContext:
    """Verify triangularity and extract the inner/outer algebras."""
    outer = [str(v) for v in outer_vertices]
    vset = set(algebra.vertices)
    if not set(outer) <= vset:
        raise ValueError("outer vertices not in the algebra")
    outer_set = set(outer)
    inner = tuple(v for v in algebra.vertices if v not in outer_set)
    outer = tuple(v for v in algebra.vertices if v in outer_set)
    inner_set = set(inner)

    crossing = []
    for i, p in enumerate(algebra.basis):
        src, tgt = p.source, algebra.basis_target(i)
        if src in inner_set and tgt in outer_set:
            raise NotTriangular(
                f"path class {p.arrows or p.source} runs from the inner part "
                f"to the outer part")
        if src in outer_set and tgt in inner_set:
            crossing.append(i)

    def subalgebra(part):
        part_set = set(part)
        arrows = [(a.name, a.source, a.target) for a in algebra.arrows
                  if a.source in part_set and a.target in part_set]
        arrow_names = {a[0] for a in arrows}
        rels = [r for r in algebra.relations
                if all(set(p) <= arrow_names for _, p in r.terms)]
        sub = build_algebra(Quiver(part, arrows), rels, algebra.length_cap)
        inside = [i for i, p in enumerate(algebra.basis)
                  if p.source in part_set and algebra.basis_target(i) in part_set]
        if sub.dimension != len(inside):
            raise RectiltError("subalgebra basis does not match the inside path classes")
        return sub

    return RecollementContext(algebra, inner, outer,
                              subalgebra(inner), subalgebra(outer), crossing)


# -- restrictions and zero extensions ------------------------------------


def _carry(m: Representation, source: BoundQuiverAlgebra, onto: BoundQuiverAlgebra,
           what: str) -> Representation:
    """m's spaces and maps at the vertices and arrows of ``onto``, zero where m has none.

    Restriction to a part and extension by zero from it alike: no map
    changes, so the result needs no check.  ``what`` names ``source``.
    """
    if m.algebra is not source:
        raise ValueError(f"expected a module over the {what} algebra")
    return Representation(onto, {v: m.dims.get(v, 0) for v in onto.vertices},
                          {a.name: m.maps[a.name] for a in onto.arrows if a.name in m.maps},
                          validate=False)


def i_shriek(ctx: RecollementContext, m: Representation) -> Representation:
    """The inner part; a submodule since arrows only run outer -> inner."""
    return _carry(m, ctx.algebra, ctx.inner_algebra, "whole")


def j_star_upper(ctx: RecollementContext, m: Representation) -> Representation:
    return _carry(m, ctx.algebra, ctx.outer_algebra, "whole")


def i_star(ctx: RecollementContext, x: Representation) -> Representation:
    return _carry(x, ctx.inner_algebra, ctx.algebra, "inner")


def j_star_lower(ctx: RecollementContext, y: Representation) -> Representation:
    return _carry(y, ctx.outer_algebra, ctx.algebra, "outer")


def i_upper_star(ctx: RecollementContext, m: Representation) -> Representation:
    """Quotient by the submodule generated by the outer components.

    At v that submodule is spanned by the images of the path classes from
    the outer vertices to v, the trivial ones included.
    """
    alg = m.algebra
    spans = {v: Mat.hstack([m.eval_path(alg.basis[b]) for w in ctx.outer_vertices
                            for b in alg.paths_between(w, v)], rows=m.dims[v])
             for v in alg.vertices}
    quot, _ = quotient_rep(m, spans)
    return i_shriek(ctx, quot)


# -- the tensor lift ------------------------------------------------------


def _by_source(alg: BoundQuiverAlgebra, paths, vertices) -> dict:
    """The path classes in ``paths`` grouped by source vertex, in list order."""
    return {w: [b for b in paths if alg.basis[b].source == w] for w in vertices}


def _multiplication(cols, rows, times) -> Mat:
    """Matrix of n |-> times(n) from span(cols) to span(rows); terms outside rows drop."""
    pos = {b: r for r, b in enumerate(rows)}
    entries = [[Fraction(0)] * len(cols) for _ in rows]
    for c, n in enumerate(cols):
        for b, coeff in times(n).items():
            if b in pos:
                entries[pos[b]][c] = coeff
    return Mat(len(rows), len(cols), entries)


def _right_module(alg: BoundQuiverAlgebra, over: BoundQuiverAlgebra,
                  paths) -> Representation:
    """The span of ``paths`` as a right ``over``-module, a representation of over^op.

    ``over`` is ``alg`` or a full subalgebra of it.  An arrow a acts by
    n |-> n * a; products that leave the span are zero, so ``paths`` may
    span a quotient of a right ideal.
    """
    by_source = _by_source(alg, paths, over.vertices)
    maps = {}
    for a in over.arrows:               # right action by a: N_target -> N_source
        a_ix = alg.arrow_index(a.name)
        maps[a.name] = _multiplication(by_source[a.target], by_source[a.source],
                                       lambda n: alg.multiply_basis(n, a_ix))
    dims = {w: len(bs) for w, bs in by_source.items()}
    return Representation(over.opposite(), dims, maps)


def _crossing_lift(ctx: RecollementContext, y: Representation, v):
    """(e_vN, its basis paths by source, tensor_dim_data(Y, e_vN)) at inner v.

    (path paths[w][k]) (x) y_q has raw coordinate offsets[w] + q * len(paths[w]) + k.
    """
    alg = ctx.algebra
    ending = [b for b in ctx.crossing_paths if alg.basis_target(b) == v]
    module = _right_module(alg, ctx.outer_algebra, ending)
    return module, _by_source(alg, ending, ctx.outer_vertices), tensor_dim_data(y, module)


def _left_multiplication(alg: BoundQuiverAlgebra, arrow, source, target) -> Morphism:
    """phi_b: e_vN -> e_v2N, n |-> b * n, for an inner arrow b: v -> v2."""
    (src_mod, src_paths, _), (tgt_mod, tgt_paths, _) = source, target
    b_ix = alg.arrow_index(arrow.name)
    comps = {w: _multiplication(src_paths[w], tgt_paths[w],
                                lambda n: alg.multiply_basis(b_ix, n))
             for w in src_paths}
    return Morphism(src_mod, tgt_mod, comps)


def j_shriek(ctx: RecollementContext, y: Representation) -> Representation:
    """(N (x) Y, Y) with identity structure map."""
    if y.algebra is not ctx.outer_algebra:
        raise ValueError("j_shriek expects a module over the outer algebra")
    alg = ctx.algebra
    lifts = {v: _crossing_lift(ctx, y, v) for v in ctx.inner_vertices}
    dims = dict(y.dims)
    dims.update({v: tensor[0] for v, (_, _, tensor) in lifts.items()})
    maps = dict(y.maps)
    for a in alg.arrows:
        if a.target not in ctx._inner_set:
            continue
        if a.source in ctx._inner_set:
            phi = _left_multiplication(alg, a, lifts[a.source], lifts[a.target])
            maps[a.name] = tensor_map_between(y, phi, lifts[a.source][2],
                                              lifts[a.target][2])[2]
        else:
            # a sends y_q to the class of (a) (x) y_q: a column of the projection
            _, paths, (_, proj, offsets, _) = lifts[a.target]
            ns = paths[a.source]
            k = ns.index(alg.arrow_index(a.name))
            maps[a.name] = proj.submatrix(
                range(proj.rows),
                [offsets[a.source] + q * len(ns) + k for q in range(y.dims[a.source])])
    return Representation(alg, dims, maps)


def tensor_rep(ctx: RecollementContext, y: Representation) -> Representation:
    """N (x) Y as a module over the inner algebra."""
    return i_shriek(ctx, j_shriek(ctx, y))


# -- triples ---------------------------------------------------------------


def from_triple(ctx: RecollementContext, x: Representation, y: Representation,
                f: Morphism) -> Representation:
    """Assemble the module (X, Y)_f from a structure map f: N (x) Y -> X.

    A crossing arrow acts as f after its action on j_! Y.
    """
    if f.target != x:
        raise ValueError("structure map must land in the inner module")
    lift = j_shriek(ctx, y)
    dims = {**x.dims, **y.dims}
    maps = {**x.maps, **y.maps}
    for a in ctx.algebra.arrows:
        if a.source in ctx._outer_set and a.target in ctx._inner_set:
            maps[a.name] = f.components[a.target] @ lift.maps[a.name]
    return Representation(ctx.algebra, dims, maps)


def to_triple(ctx: RecollementContext, m: Representation):
    """(X, Y, f) with X the inner part, Y the outer part, f the action map."""
    x = i_shriek(ctx, m)
    y = j_star_upper(ctx, m)
    comps = {}
    for v in ctx.inner_vertices:
        _, paths, (_, proj, _, total) = _crossing_lift(ctx, y, v)
        raw = []                        # row of (path n) (x) y_q: the action of n on y_q
        for w, ns in paths.items():
            actions = [m.eval_path(ctx.algebra.basis[n]) for n in ns]
            raw += [action.col(q) for q in range(y.dims[w]) for action in actions]
        sol = solve(proj.transpose(), Mat(total, m.dims[v], raw))
        if sol is None:
            raise RectiltError("action map does not factor through the balancing quotient")
        comps[v] = sol.transpose()
    f = Morphism(tensor_rep(ctx, y), x, comps)
    return x, y, f


# -- canonical sequence and reports -----------------------------------------


def canonical_sequence(ctx: RecollementContext, m: Representation) -> SES:
    """0 -> i_star i_shriek M -> M -> j_star_lower j_star_upper M -> 0."""
    left = i_star(ctx, i_shriek(ctx, m))
    right = j_star_lower(ctx, j_star_upper(ctx, m))
    inject = Morphism(left, m,
                      {v: Mat.identity(m.dims[v]) for v in ctx.inner_vertices})
    project = Morphism(m, right,
                       {w: Mat.identity(m.dims[w]) for w in ctx.outer_vertices})
    return SES(inject, project)


def bimodule_right(ctx: RecollementContext) -> Representation:
    """The crossing bimodule as a right outer-algebra module."""
    return _right_module(ctx.algebra, ctx.outer_algebra, ctx.crossing_paths)


def quotient_right_module(ctx: RecollementContext) -> Representation:
    """The inner algebra as a right module over the whole algebra.

    Its basis is the inner path classes; crossing products die in the quotient.
    """
    alg = ctx.algebra
    inner = [b for b, p in enumerate(alg.basis)
             if p.source in ctx._inner_set and alg.basis_target(b) in ctx._inner_set]
    return _right_module(alg, alg, inner)


FUNCTOR_NAMES = ("i*", "i_*", "i!", "j_!", "j*", "j_*")


@dataclass(eq=False)
class ExactnessReport:
    """Tor_1 certificates of a split's exactness, one family per functor.

    Each family is computed from ``ctx`` the first time it is read, so a
    caller that reads one family never builds the other.  The families are
    then held on the report, and ``check_exactness`` holds the report on
    ``ctx``.  So no result handed out may write into it: ``structural``
    and the two families are read-only views, and ``to_json`` returns
    plain copies.
    """
    ctx: RecollementContext
    structural: ClassVar[MappingProxyType] = MappingProxyType(
        {"i_*": True, "i!": True, "j*": True, "j_*": True})

    @cached_property
    def j_shriek_tor(self) -> MappingProxyType:
        """Tor_1(N, S) for each outer simple S."""
        ctx = self.ctx
        nright = bimodule_right(ctx)
        return MappingProxyType({w: tor1_right(nright, simple(ctx.outer_algebra, w))
                                 for w in ctx.outer_vertices})

    @cached_property
    def i_upper_star_tor(self) -> MappingProxyType:
        """Tor_1 of the inner algebra, as a right whole-algebra module, with each simple."""
        ctx = self.ctx
        qright = quotient_right_module(ctx)
        return MappingProxyType({v: tor1_right(qright, simple(ctx.algebra, v))
                                 for v in ctx.algebra.vertices})

    @property
    def j_shriek_exact(self) -> bool:
        return all(v == 0 for v in self.j_shriek_tor.values())

    @property
    def i_upper_star_exact(self) -> bool:
        return all(v == 0 for v in self.i_upper_star_tor.values())

    def functor_exact(self, name: str) -> bool:
        """Whether the functor ``name`` is exact; only its own Tor_1 family is computed."""
        if name in self.structural:
            return self.structural[name]
        if name == "j_!":
            return self.j_shriek_exact
        if name == "i*":
            return self.i_upper_star_exact
        raise ValueError(f"unknown functor {name!r}; expected one of {FUNCTOR_NAMES}")

    def to_json(self):
        return {
            "structural": dict(self.structural),
            "j_shriek_tor1_on_simples": dict(self.j_shriek_tor),
            "i_upper_star_tor1_on_simples": dict(self.i_upper_star_tor),
            "exact": {name: self.functor_exact(name) for name in FUNCTOR_NAMES},
        }


def check_exactness(ctx: RecollementContext) -> ExactnessReport:
    """Tor_1 certificates against all simples; restrictions are exact as built.

    The report depends on the split alone, so it is held on ``ctx``: every
    call on one split returns the same report.  It is lazy: each Tor_1
    family is computed when it is first read (``j_shriek_tor`` on the
    outer simples, ``i_upper_star_tor`` on the whole algebra's) and then
    held on the report, so a glue or a restriction computes only the
    family it reads, once per split.
    """
    if ctx._exactness is None:
        ctx._exactness = ExactnessReport(ctx)
    return ctx._exactness


def verify_recollement_identities(ctx: RecollementContext, lambda_samples,
                                  inner_samples, outer_samples):
    """Unit/counit isomorphisms, vanishing composites, adjunction dimensions."""
    checks = []

    def record(name, ok, detail=""):
        checks.append({"check": name, "pass": bool(ok), "detail": detail})

    for y in outer_samples:
        record("i_upper_star(j_shriek Y) = 0",
               i_upper_star(ctx, j_shriek(ctx, y)).is_zero())
        record("i_shriek(j_star_lower Y) = 0",
               i_shriek(ctx, j_star_lower(ctx, y)).is_zero())
        record("j_star_upper(j_shriek Y) iso Y",
               is_isomorphic(j_star_upper(ctx, j_shriek(ctx, y)), y)[0])
        record("j_star_upper(j_star_lower Y) iso Y",
               is_isomorphic(j_star_upper(ctx, j_star_lower(ctx, y)), y)[0])
    for x in inner_samples:
        record("i_upper_star(i_star X) iso X",
               is_isomorphic(i_upper_star(ctx, i_star(ctx, x)), x)[0])
        record("i_shriek(i_star X) iso X",
               is_isomorphic(i_shriek(ctx, i_star(ctx, x)), x)[0])
    for m in lambda_samples:
        for y in outer_samples:
            record("dim Hom(j_! Y, M) = dim Hom(Y, j* M)",
                   hom_dim(j_shriek(ctx, y), m) == hom_dim(y, j_star_upper(ctx, m)))
            record("dim Hom(j* M, Y) = dim Hom(M, j_* Y)",
                   hom_dim(j_star_upper(ctx, m), y) == hom_dim(m, j_star_lower(ctx, y)))
        for x in inner_samples:
            record("dim Hom(i* M, X) = dim Hom(M, i_* X)",
                   hom_dim(i_upper_star(ctx, m), x) == hom_dim(m, i_star(ctx, x)))
            record("dim Hom(i_* X, M) = dim Hom(X, i! M)",
                   hom_dim(i_star(ctx, x), m) == hom_dim(x, i_shriek(ctx, m)))
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}


def apply_functor(ctx: RecollementContext, name: str, m: Representation) -> Representation:
    # looked up per call, so a rebinding of a functor's module attribute is seen
    functors = {"i*": i_upper_star, "i_*": i_star, "i!": i_shriek,
                "j_!": j_shriek, "j*": j_star_upper, "j_*": j_star_lower}
    if name not in functors:
        raise ValueError(f"unknown functor {name!r}; expected one of {FUNCTOR_NAMES}")
    return functors[name](ctx, m)
