"""Representations of a bound quiver algebra and their morphisms.

A representation assigns a rational vector space to every vertex and a
matrix to every arrow; relation matrices are checked to vanish on
construction, so an invalid module cannot be built.  Morphisms carry one
matrix per vertex and are checked to intertwine the arrow actions.

Decomposition follows the characteristic-zero route: the radical of the
endomorphism ring by the trace form, then splitting elements off it.
The minimal polynomial of a splitting element x on M factors over Q into
coprime prime powers p_i^e_i, and M is the direct sum of the submodules
ker p_i^e_i(x), so no idempotent has to be built.  Its rational roots are
found first, by the rational root theorem; sympy is imported only when a
factor of degree >= 2 remains or a coefficient is past the search bound.

The hot paths run in integers up to the row reducer.  Hom spaces scale
each arrow's intertwining rows to integers and read their kernel as
integer vectors (``linalg._kernel_ints``), whose blocks ``_blocks``
reads.  A splitting element x is read off them as the integer blocks
X = d x, whose minimal polynomial comes from one fraction-free Krylov
pass and whose primary kernels are those of integer multiples of
p^e(X / d).

One criterion decides summand classes: the trace pairing P(x, m)[i][j] =
tr(g_j o f_i) of the bases f of Hom(x, m) and g of Hom(m, x).  Traces kill
nilpotents in characteristic 0, so for x indecomposable rank P(x, m) =
mult_x(m) * dim End(x)/rad.  Multiplicities, add-membership, isomorphism
classes and witnesses, and rad End(M) all read this one pairing, which
``_pairing`` computes in integers from the kernel vectors of the two
intertwining systems.  Vector j is the j-th ``hom_basis`` map times its
free entry, so the pairing differs from that of the bases by invertible
diagonal factors: its rank, zero pattern and pivot columns are theirs.
Only ``hom_basis``, ``is_isomorphic`` and ``split_off_summand`` turn
kernel vectors into maps (``_morphisms``), the only ``Fraction``s built.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import chain
from math import comb, gcd, isqrt, lcm

from .algebra import BoundQuiverAlgebra, Path
from .errors import PossibleDivisionAlgebra, RectiltError
from .linalg import (_ONE, _ZERO, Mat, _exact, _free_entry, _free_scaled, _kernel_ints,
                     col_basis, int_kernel, kernel_basis, quotient, rank, reduce_rows, solve)


# Modules are never mutated, so modules over one algebra share what is
# equal in them: every module shares its ``dims`` dict with the modules of
# its dimension vector, and a direct sum whose every map is a 0/1 matrix
# (every entry the shared ``Fraction`` 0 or 1: sums of thin modules, say)
# shares those matrices and its ``maps`` dict with the equal sums built
# before.  A caller that keeps many such sums keeps little more than their
# ``Representation`` objects.  The tables live on the algebra and go with
# it; each stops taking entries at ``_SHARED_MAX``.
_SHARED_MAX = 4096
_IDS_01 = frozenset((id(_ZERO), id(_ONE)))


def _shared_tables(algebra) -> tuple[dict, dict, dict]:
    """The algebra's tables of shared dims dicts, 0/1 matrices and maps dicts."""
    tables = algebra.__dict__.get("_shared_tables")
    if tables is None:
        tables = algebra.__dict__["_shared_tables"] = ({}, {}, {})
    return tables


def _kept(table: dict, key, value):
    """The value kept under key, keeping ``value`` there if there is none."""
    kept = table.get(key)
    if kept is None:
        kept = value
        if len(table) < _SHARED_MAX:
            table[key] = value
    return kept


def _shared_maps(algebra, maps: dict) -> dict:
    """The kept ``maps`` dict equal to maps if every map is 0/1; maps otherwise."""
    _, mats, dicts = _shared_tables(algebra)
    kept = {}
    for name, m in maps.items():
        if not _IDS_01.issuperset(map(id, chain.from_iterable(m.entries))):
            return maps
        ids = tuple(map(id, chain.from_iterable(m.entries)))
        kept[name] = _kept(mats, (m.rows, m.cols, ids), m)
    # a kept dict holds its matrices, so their ids stay theirs; every maps
    # dict lists the algebra's arrows in one order
    return _kept(dicts, tuple(map(id, kept.values())), kept)


class Representation:
    __slots__ = ("algebra", "dims", "maps", "_key", "_pres", "__weakref__")

    def __init__(self, algebra: BoundQuiverAlgebra, dims, maps, validate: bool = True):
        self.algebra = algebra
        own = {v: int(dims.get(v, 0)) for v in algebra.vertices}
        _refuse_stray("vertex", dims, own)
        key = tuple(own.values())
        if min(key, default=0) < 0:
            raise ValueError("negative dimension")
        self.dims = _kept(_shared_tables(algebra)[0], key, own)
        full_maps = {}
        for a in algebra.arrows:
            m = maps.get(a.name)
            if m is None:
                m = Mat.zeros(self.dims[a.target], self.dims[a.source])
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(f"map for arrow {a.name} has shape {m.rows}x{m.cols}, "
                                 f"expected {self.dims[a.target]}x{self.dims[a.source]}")
            full_maps[a.name] = m
        _refuse_stray("arrow", maps, full_maps)
        self.maps = full_maps
        self._key = None
        self._pres = None  # the minimal presentation, cached by homology.min_presentation
        if validate:
            self._check_relations()

    def _check_relations(self):
        for rel in self.algebra.relations:
            acc = None
            for coeff, arrows in rel.terms:
                src = self.algebra.quiver.arrow(arrows[0]).source
                term = self.eval_path(Path(src, arrows)).scale(coeff)
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                raise ValueError("representation violates a relation")

    def eval_path(self, path: Path) -> Mat:
        """Matrix of a path: arrow maps composed in application order."""
        m = Mat.identity(self.dims[path.source])
        for name in path.arrows:
            m = self.maps[name] @ m
        return m

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.algebra.vertices)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.algebra is other.algebra
                and self.dims == other.dims
                and self.maps == other.maps)

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.dims.items()))))

    def __repr__(self):
        return f"Representation(dims={self.dims})"

    def canonical_key(self):
        """Total order used to sort summands and rosters reproducibly."""
        if self._key is None:
            self._key = (self.total_dim, self.dim_vector(),
                         json.dumps(self.to_json(), sort_keys=True))
        return self._key

    def to_json(self):
        return {"dims": dict(sorted(self.dims.items())),
                "maps": {a.name: self.maps[a.name].to_json() for a in self.algebra.arrows}}

    @classmethod
    def from_json(cls, algebra: BoundQuiverAlgebra, data) -> "Representation":
        dims = {str(v): int(d) for v, d in data["dims"].items()}
        maps = dict(data.get("maps", {}))     # a key that names no arrow is refused unread
        for a in algebra.arrows:
            if a.name in maps:
                maps[a.name] = Mat.from_json(maps[a.name], rows=dims.get(a.target, 0),
                                             cols=dims.get(a.source, 0))
        return cls(algebra, dims, maps)


def _refuse_stray(kind: str, given, known: dict):
    """Raise ValueError naming the first key of ``given`` that names no ``kind`` in ``known``."""
    if not given.keys() <= known.keys():
        stray = next(k for k in given if k not in known)
        raise ValueError(f"{kind} key {stray!r} names no {kind} of the algebra")


class Morphism:
    __slots__ = ("source", "target", "components")

    def __init__(self, source: Representation, target: Representation, components,
                 validate: bool = True):
        if source.algebra is not target.algebra:
            raise ValueError("morphism between representations of different algebras")
        self.source = source
        self.target = target
        comps = {}
        for v in source.algebra.vertices:
            c = components.get(v)
            if c is None:
                c = Mat.zeros(target.dims[v], source.dims[v])
            if (c.rows, c.cols) != (target.dims[v], source.dims[v]):
                raise ValueError(f"component at {v} has wrong shape")
            comps[v] = c
        self.components = comps
        if validate:
            self._check_intertwines()

    def _check_intertwines(self):
        alg = self.source.algebra
        for a in alg.arrows:
            lhs = self.target.maps[a.name] @ self.components[a.source]
            rhs = self.components[a.target] @ self.source.maps[a.name]
            if lhs != rhs:
                raise ValueError(f"components do not intertwine arrow {a.name}")

    def __eq__(self, other):
        return (isinstance(other, Morphism)
                and self.source == other.source
                and self.target == other.target
                and self.components == other.components)

    def __repr__(self):
        return f"Morphism({self.source.dims} -> {self.target.dims})"

    def compose(self, first: "Morphism") -> "Morphism":
        """self after first."""
        if first.target is not self.source and first.target != self.source:
            raise ValueError("composition mismatch")
        comps = {v: self.components[v] @ first.components[v]
                 for v in self.source.algebra.vertices}
        return Morphism(first.source, self.target, comps, validate=False)

    def add(self, other: "Morphism") -> "Morphism":
        comps = {v: self.components[v] + other.components[v]
                 for v in self.source.algebra.vertices}
        return Morphism(self.source, self.target, comps, validate=False)

    def is_injective(self) -> bool:
        return all(rank(c) == c.cols for c in self.components.values())

    def is_surjective(self) -> bool:
        return all(rank(c) == c.rows for c in self.components.values())

    def is_invertible(self) -> bool:
        return all(c.rows == c.cols and rank(c) == c.rows
                   for c in self.components.values())

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components.values())

    def to_json(self):
        return {v: self.components[v].to_json() for v in self.source.algebra.vertices}


def identity_morphism(m: Representation) -> Morphism:
    return Morphism(m, m, {v: Mat.identity(m.dims[v]) for v in m.algebra.vertices},
                    validate=False)


def zero_morphism(m: Representation, n: Representation) -> Morphism:
    return Morphism(m, n, {}, validate=False)


def zero_rep(algebra: BoundQuiverAlgebra) -> Representation:
    return Representation(algebra, {}, {}, validate=False)


class SES:
    """A short exact sequence, rank-certified at construction."""

    __slots__ = ("left", "middle", "right", "inject", "project")

    def __init__(self, inject: Morphism, project: Morphism):
        if inject.target is not project.source and inject.target != project.source:
            raise ValueError("inject and project do not share the middle term")
        self.left = inject.source
        self.middle = inject.target
        self.right = project.target
        self.inject = inject
        self.project = project
        self._certify()

    def _certify(self):
        if not self.inject.is_injective():
            raise ValueError("SES: inject is not injective")
        if not self.project.is_surjective():
            raise ValueError("SES: project is not surjective")
        if not self.project.compose(self.inject).is_zero():
            raise ValueError("SES: project o inject is nonzero")
        for v in self.middle.algebra.vertices:
            if self.left.dims[v] + self.right.dims[v] != self.middle.dims[v]:
                raise ValueError("SES: dimensions do not add")
            # image = kernel follows from exact rank bookkeeping
            if rank(self.inject.components[v]) + rank(self.project.components[v]) \
                    != self.middle.dims[v]:
                raise ValueError("SES: rank mismatch at a vertex")


# -- hom spaces ---------------------------------------------------------


def _times(entries, scale: int) -> list[list[int]]:
    """The Fraction grid ``entries`` times ``scale``, a multiple of every denominator."""
    return [[x.numerator * (scale // x.denominator) for x in row] for row in entries]


def _intertwining_rows(m: Representation, n: Representation):
    """``(rows, offsets, total)``: the system N_a phi_i - phi_j M_a = 0 on phi: m -> n.

    Entry (r, c) of phi_v is unknown ``offsets[v] + r * dim m_v + c``; each
    arrow a: i -> j gives one row per entry of N_a phi_i - phi_j M_a, and
    all-zero rows are dropped.  The rows are integer lists: each arrow's
    rows are scaled by the lcm of the denominators of N_a and M_a, which
    leaves their span alone.  The kernel is Hom(m, n).  The span of the
    rows, with n = DN, is what the balanced tensor N (x) m divides out
    (N (x)_A m = D Hom_A(m, DN)).
    """
    alg = m.algebra
    offsets = {}
    total = 0
    for v in alg.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    if total == 0:
        return [], offsets, 0
    rows = []
    for a in alg.arrows:
        i, j = a.source, a.target
        if not n.dims[j] or not m.dims[i]:
            continue                    # N_a phi_i - phi_j M_a is an empty matrix
        na, ma = n.maps[a.name].entries, m.maps[a.name].entries
        scale = lcm(*(x.denominator for row in na + ma for x in row))
        na, ma = _times(na, scale), _times(ma, scale)
        mi, mj = m.dims[i], m.dims[j]
        for r in range(n.dims[j]):
            for c in range(mi):
                row = [0] * total
                # (N_a phi_i)[r, c]
                for k, coeff in enumerate(na[r]):
                    if coeff:
                        row[offsets[i] + k * mi + c] += coeff
                # -(phi_j M_a)[r, c]
                base = offsets[j] + r * mj
                for l in range(mj):
                    coeff = ma[l][c]
                    if coeff:
                        row[base + l] -= coeff
                if any(row):
                    rows.append(row)
    return rows, offsets, total


def _blocks(m: Representation, n: Representation, vec) -> dict:
    """{v: phi_v as dim n_v slices of dim m_v entries} for ``vec`` in Hom(m, n)'s system."""
    out, base = {}, 0
    for v in m.algebra.vertices:
        nv, mv = n.dims[v], m.dims[v]
        out[v] = tuple(vec[base + r * mv:base + (r + 1) * mv] for r in range(nv))
        base += nv * mv
    return out


def _image_pivots(n: Representation, sources):
    """Per vertex v of n, v and the pivots of the block columns at v of every ``(m, vecs)``."""
    blocks = [_blocks(m, n, vec) for m, vecs in sources for vec in vecs]
    for v in n.algebra.vertices:
        yield v, set(reduce_rows([list(c) for b in blocks for c in zip(*b[v])], n.dims[v])[1])


def _hom_ints(m: Representation, n: Representation) -> list[list[int]]:
    """Hom(m, n) as the integer kernel vectors of its intertwining system."""
    rows, _, total = _intertwining_rows(m, n)
    return _kernel_ints(rows, total)


def _combination(coeffs, vecs) -> list[int]:
    """sum c_j vecs[j], for integer coefficients and vectors."""
    return [sum(c * e for c, e in zip(coeffs, entries)) for entries in zip(*vecs)]


def _morphisms(m: Representation, n: Representation, vecs) -> list[Morphism]:
    """The kernel vectors ``vecs`` of Hom(m, n)'s system as maps, each divided by its free entry."""
    return [Morphism(m, n, {v: Mat._trusted(n.dims[v], m.dims[v], rows)
                            for v, rows in _blocks(m, n, _free_scaled(vec)).items()},
                     validate=False)
            for vec in vecs]


def hom_basis(m: Representation, n: Representation) -> list[Morphism]:
    """Canonical basis of Hom(m, n): the kernel of the intertwining system."""
    if m.algebra is not n.algebra:
        raise ValueError("representations over different algebras")
    return _morphisms(m, n, _hom_ints(m, n))


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n): the nullity of the intertwining system; no basis is built."""
    if m.algebra is not n.algebra:
        raise ValueError("representations over different algebras")
    rows, _, total = _intertwining_rows(m, n)
    return total - len(reduce_rows(rows, total)[1])


def _linear_combination(source: Representation, target: Representation, coeffs,
                        maps) -> Morphism:
    """The morphism sum c_i f_i: source -> target; zero coefficients are skipped."""
    terms = [(c, f) for c, f in zip(coeffs, maps) if c != 0]
    comps = {}
    for v in source.algebra.vertices:
        acc = Mat.zeros(target.dims[v], source.dims[v])
        for c, f in terms:
            acc = acc + f.components[v].scale(c)
        comps[v] = acc
    return Morphism(source, target, comps, validate=False)


def flatten_morphism(f: Morphism) -> list[Fraction]:
    out = []
    for v in f.source.algebra.vertices:
        for row in f.components[v].entries:
            out.extend(row)
    return out


def _pairing(x: Representation, m: Representation):
    """``(fs, gs, P)``: the integer kernels of Hom(x, m) and Hom(m, x), P[f][g] = tr(g o f).

    Entry (b, a) of f_v, for f: x -> m, is unknown ``off_xm[v] + b dim x_v +
    a``, and entry (a, b) of g_v, for g: m -> x, is ``off_mx[v] + a dim m_v +
    b``; tr(g o f) sums their products.  When m is x the End system is
    eliminated once; when Hom(x, m) = 0 the second kernel is not computed.
    """
    rows, off_xm, total = _intertwining_rows(x, m)
    fs = _kernel_ints(rows, total)
    if not fs:
        return fs, [], []
    if m is x:
        gs, off_mx = fs, off_xm
    else:
        rows, off_mx, total = _intertwining_rows(m, x)
        gs = _kernel_ints(rows, total)
    # position k of f's layout reads position perm[k] of g's
    perm = [off_mx[v] + a * m.dims[v] + b for v in x.algebra.vertices
            for b in range(m.dims[v]) for a in range(x.dims[v])]
    flipped = [[g[k] for k in perm] for g in gs]
    return fs, gs, [[sum(p * q for p, q in zip(f, g) if p) for g in flipped] for f in fs]


def _pairing_rank(x: Representation, m: Representation) -> int:
    """rank P(x, m), read off the integer pairing; no morphism or ``Fraction`` is built."""
    _, gs, pairing = _pairing(x, m)
    return len(reduce_rows(pairing, len(gs))[1])


def _end_radical(x: Representation) -> tuple[list[list[int]], list[list[int]]]:
    """``(fs, rad)``: End(x)'s integer kernel vectors and rad End(x), the trace form's kernel.

    Each u in ``rad`` is the endomorphism sum_j u_j fs[j]; no map is built.
    """
    fs, _, pairing = _pairing(x, x)
    return fs, _kernel_ints(pairing, len(fs))


# -- constructions ------------------------------------------------------


def direct_sum(algebra: BoundQuiverAlgebra, mods) -> Representation:
    """Block-diagonal sum, summands stacked in the order given.

    A sum of 0/1 matrices shares its maps with the equal sums before it
    (``_shared_maps``).
    """
    mods = list(mods)
    dims = {v: sum(m.dims[v] for m in mods) for v in algebra.vertices}
    maps = {a.name: Mat.block_diag([m.maps[a.name] for m in mods])
            for a in algebra.arrows}
    s = Representation(algebra, dims, maps, validate=False)
    s.maps = _shared_maps(algebra, s.maps)
    return s


def subrep_from_subspaces(m: Representation, spans: dict) -> tuple[Representation, Morphism]:
    """The subrepresentation with prescribed (arrow-stable) vertex spans."""
    alg = m.algebra
    bases = {v: col_basis(spans.get(v, Mat.zeros(m.dims[v], 0))) for v in alg.vertices}
    dims = {v: bases[v].cols for v in alg.vertices}
    maps = {}
    for a in alg.arrows:
        rhs = m.maps[a.name] @ bases[a.source]
        sol = solve(bases[a.target], rhs)
        if sol is None:
            raise ValueError(f"subspaces are not stable under arrow {a.name}")
        maps[a.name] = sol
    sub = Representation(alg, dims, maps, validate=False)
    # each exact solve above gave B_t S_a = M_a B_s: the bases already intertwine
    incl = Morphism(sub, m, dict(bases), validate=False)
    return sub, incl


def quotient_rep(m: Representation, spans: dict) -> tuple[Representation, Morphism]:
    """Quotient by the (arrow-stable) vertex spans, with projection."""
    alg = m.algebra
    dims, projs = {}, {}
    for v in alg.vertices:
        d, p = quotient(m.dims[v], spans.get(v, Mat.zeros(m.dims[v], 0)))
        dims[v] = d
        projs[v] = p
    maps = {}
    for a in alg.arrows:
        rhs = (projs[a.target] @ m.maps[a.name]).transpose()
        sol = solve(projs[a.source].transpose(), rhs)
        if sol is None:
            raise ValueError(f"subspaces are not stable under arrow {a.name}")
        maps[a.name] = sol.transpose()
    quot = Representation(alg, dims, maps, validate=False)
    # each exact solve above gave S_a P_s = P_t M_a: the projections already intertwine
    proj = Morphism(m, quot, projs, validate=False)
    return quot, proj


def kernel(f: Morphism) -> tuple[Representation, Morphism]:
    spans = {v: kernel_basis(f.components[v]) for v in f.source.algebra.vertices}
    return subrep_from_subspaces(f.source, spans)


def image(f: Morphism) -> tuple[Representation, Morphism]:
    spans = {v: f.components[v] for v in f.source.algebra.vertices}
    return subrep_from_subspaces(f.target, spans)


def cokernel(f: Morphism) -> tuple[Representation, Morphism]:
    spans = {v: f.components[v] for v in f.source.algebra.vertices}
    return quotient_rep(f.target, spans)


def pushout(f: Morphism, g: Morphism):
    """Pushout of f: W -> N and g: W -> P along the shared source W.

    Returns ``(e, leg_n, leg_p)``: e is the cokernel of [f; -g]: W -> N + P,
    and the legs are the column blocks of its projection.
    """
    if f.source != g.source:
        raise ValueError("pushout legs must share their source")
    n, p = f.target, g.target
    alg = n.algebra
    spans = {v: Mat.vstack([f.components[v], -g.components[v]]) for v in alg.vertices}
    e, proj = quotient_rep(direct_sum(alg, [n, p]), spans)
    leg_n = {v: c.submatrix(range(c.rows), range(n.dims[v]))
             for v, c in proj.components.items()}
    leg_p = {v: c.submatrix(range(c.rows), range(n.dims[v], c.cols))
             for v, c in proj.components.items()}
    # the projection intertwines, so each of its column blocks does
    return e, Morphism(n, e, leg_n, validate=False), Morphism(p, e, leg_p, validate=False)


# -- standard modules ---------------------------------------------------


def simple(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    return Representation(algebra, {v: 1}, {}, validate=False)


def projective(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    """P(v): basis the path classes starting at v, arrows acting by composition."""
    cache = algebra.__dict__.setdefault("_projective_cache", {})
    if v in cache:
        return cache[v]
    idx = {w: algebra.paths_between(v, w) for w in algebra.vertices}
    dims = {w: len(idx[w]) for w in algebra.vertices}
    maps = {}
    for a in algebra.arrows:
        src_list, tgt_list = idx[a.source], idx[a.target]
        pos = {b: r for r, b in enumerate(tgt_list)}
        arrow_ix = algebra.arrow_index(a.name)
        cols = []
        for b in src_list:
            prod = algebra.multiply_basis(arrow_ix, b)
            colv = [Fraction(0)] * len(tgt_list)
            for k, c in prod.items():
                colv[pos[k]] = c
            cols.append(colv)
        maps[a.name] = Mat(len(tgt_list), len(src_list),
                           [[cols[j][i] for j in range(len(src_list))]
                            for i in range(len(tgt_list))])
    cache[v] = Representation(algebra, dims, maps)
    return cache[v]


def dual(m: Representation) -> Representation:
    """The linear dual, a representation of the opposite algebra."""
    opp = m.algebra.opposite()
    maps = {a.name: m.maps[a.name].transpose() for a in m.algebra.arrows}
    return Representation(opp, dict(m.dims), maps)


def injective(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    """I(v): the dual of the right projective at v."""
    return dual(projective(algebra.opposite(), v))


def regular_module(algebra: BoundQuiverAlgebra) -> Representation:
    return direct_sum(algebra, [projective(algebra, v) for v in algebra.vertices])


def hom_from_projective(algebra: BoundQuiverAlgebra, v: str, m: Representation,
                        vec: list[Fraction]) -> Morphism:
    """The morphism P(v) -> m sending the trivial-path generator to ``vec``.

    The basis path p of P(v) goes to m(p) vec, pushed through p's arrow
    matrices one at a time; paths sharing a prefix share its image.
    """
    if len(vec) != m.dims[v]:
        raise ValueError(f"vector of length {len(vec)} is not in a space of dimension "
                         f"{m.dims[v]}")
    pv = projective(algebra, v)
    zero = Fraction(0)
    images = {(): [_exact(x) for x in vec]}

    def push(arrows):
        if arrows not in images:
            prev = push(arrows[:-1])
            images[arrows] = [sum((c * x for c, x in zip(row, prev) if c), zero)
                              for row in m.maps[arrows[-1]].entries]
        return images[arrows]

    comps = {}
    for w in algebra.vertices:
        cols = [push(algebra.basis[b].arrows) for b in algebra.paths_between(v, w)]
        comps[w] = Mat(m.dims[w], len(cols),
                       [[col[i] for col in cols] for i in range(m.dims[w])])
    return Morphism(pv, m, comps)


# -- decomposition ---------------------------------------------------------


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in a]


def _krylov_reduce(stored, vec: list[int], comb: list[int]):
    """Reduce ``vec`` against the stored rows, fraction-free, in storage order.

    ``stored`` holds ``(pivot, row, row_comb)``; each row is zero at the
    pivots stored before it, so one pass clears every pivot.  ``comb``
    undergoes the same operations, so it keeps expressing ``vec`` in the
    powers.  Returns the reduced ``(vec, comb)``, divided by their gcd.
    """
    for c, row, row_comb in stored:
        f = vec[c]
        if f:
            p = row[c]
            vec = [p * a - f * b for a, b in zip(vec, row)]
            comb = [p * a - f * b for a, b in zip(comb, row_comb)]
    g = gcd(*vec, *comb)
    if g > 1:
        vec = [a // g for a in vec]
        comb = [a // g for a in comb]
    return vec, comb


def _min_poly(d: int, big: dict):
    """Monic minimal polynomial of the endomorphism x = X / d of M, highest degree first.

    ``big`` holds X's integer vertex matrices.  One integer Krylov pass: the
    flattened powers X^0, X^1, ... are reduced, fraction-free, against the
    earlier ones, each stored row carrying its combination of powers, down
    to the first dependency sum c_i X^i = 0 with c_k != 0.  That is the
    minimal polynomial q_X of X, and x's is q_X(d t) / d^k, whichever d was
    taken.  Its degree is at most dim M, so needing more than dim M + 1
    powers is an error.
    """
    power = {v: [[int(r == c) for c in range(len(mat))] for r in range(len(mat))]
             for v, mat in big.items()}
    cap = sum(map(len, big.values())) + 1
    stored = []
    for k in range(cap):
        if k:
            power = {v: _int_matmul(big[v], power[v]) for v in big}
        unit = [0] * cap
        unit[k] = 1
        vec, comb = _krylov_reduce(stored, [e for mat in power.values() for row in mat
                                            for e in row], unit)
        pivot = next((c for c, e in enumerate(vec) if e), None)
        if pivot is None:
            return [Fraction(comb[i], comb[k] * d ** (k - i)) for i in range(k, -1, -1)]
        stored.append((pivot, vec, comb))
    raise RectiltError(f"no minimal polynomial within {cap} powers of an "
                       f"endomorphism of a module of dimension {cap - 1}")


# Past this constant or leading coefficient the rational-root search leaves
# the factoring to sympy: its candidates grow with their divisor counts.
_ROOT_SEARCH_BOUND = 10 ** 6


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, in increasing order."""
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def _deflate(ints: list[int], p: int, q: int) -> list[int] | None:
    """ints / (q t - p) by synthetic division, or None if p/q is not a root.

    ``ints`` are integer coefficients, highest degree first, and p/q is in
    lowest terms; q t - p is primitive, so a root leaves an integer quotient.
    """
    out, carry = [], 0
    for a in ints[:-1]:
        carry, rem = divmod(a + p * carry, q)
        if rem:
            return None
        out.append(carry)
    return out if ints[-1] == -p * carry else None


def _linear_power(r: Fraction, e: int) -> list[Fraction]:
    """The coefficients of (t - r)^e, highest degree first."""
    return [comb(e, k) * (-r) ** k for k in range(e + 1)]


def _primary_factors(coeffs):
    """The prime-power factors p^e of a polynomial over Q, as coefficient lists.

    Rational roots come first.  The root 0 is read off the trailing zero
    coefficients; then each candidate +-p/q of the rational root theorem (p
    divides the constant, q the leading coefficient of the integer multiple)
    is divided out by synthetic division as often as it divides.  If that
    leaves a constant, the factors are the (t - r)^e.  Only when a factor
    of degree >= 2 remains, or a coefficient exceeds the search bound, is
    sympy imported to factor the whole polynomial: it is most of the cost of
    importing the package.  The two routes' factors differ only by scalars,
    so their kernels agree.
    """
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    zeros = 0
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
        zeros += 1
    roots = [(Fraction(0), zeros)] if zeros else []
    lead, const = abs(ints[0]), abs(ints[-1])
    if len(ints) > 1 and max(lead, const) <= _ROOT_SEARCH_BOUND:
        candidates = [(s * p, q) for q in _divisors(lead) for p in _divisors(const)
                      if gcd(p, q) == 1 for s in (1, -1)]
        for p, q in candidates:
            e = 0
            while len(ints) > 1 and (rest := _deflate(ints, p, q)) is not None:
                ints, e = rest, e + 1
            if e:
                roots.append((Fraction(p, q), e))
    if len(ints) == 1:
        return [_linear_power(r, e) for r, e in roots]
    import sympy  # noqa: PLC0415

    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs],
                      t, domain="QQ")
    return [[Fraction(int(c.p), int(c.q)) for c in (base ** mult).all_coeffs()]
            for base, mult in poly.factor_list()[1]]


def _primary_spans(coeffs, d: int, big: dict) -> dict:
    """The vertex spans of ker p(x), from the integer matrices X = d x.

    With L the lcm of the denominators of p = ``coeffs`` (highest degree
    first, degree e >= 1), L d^e p(x) = sum_i L p_i d^i X^(e - i) has
    integer coefficients and the same kernel; Horner's rule evaluates it
    on each vertex matrix, starting from b_0 X + b_1 I.
    """
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) * d ** i for i, c in enumerate(coeffs)]
    spans = {}
    for v, mat in big.items():
        n = len(mat)
        acc = [[ints[0] * e for e in row] for row in mat]
        for r in range(n):
            acc[r][r] += ints[1]
        for b in ints[2:]:
            acc = _int_matmul(mat, acc)
            for r in range(n):
                acc[r][r] += b
        spans[v] = int_kernel(acc, n)
    return spans


def _split_candidates(dim: int):
    """The unit vectors of End/rad, then 64 fixed draws, made only as they are tried."""
    for k in range(dim):
        yield [int(j == k) for j in range(dim)]
    rng = random.Random(0)
    for _ in range(64):
        yield [rng.randint(-3, 3) for _ in range(dim)]


def _split_once(m: Representation):
    """The primary pieces of m under one endomorphism, or None if indecomposable.

    A candidate x is a combination of the End(m) basis elements off the
    pivots of the trace-form radical, which span a complement of it.  If
    its minimal polynomial on m has prime-power factors p_1^e_1, ...,
    p_r^e_r with r >= 2, then m is the direct sum of the submodules
    ker p_i^e_i(x) (Fitting).  rad End(m) is nilpotent, so these factors
    are those of x in End/rad, and a split exists iff End/rad is not a
    division algebra.  A one-dimensional End(m) is Q, so m is
    indecomposable.  Raises PossibleDivisionAlgebra when End/rad has
    dimension > 1 but no candidate splits.  Basis element k is comp_k / L_k,
    L_k its free entry, so X = d x is integral for d = lcm L_k.
    """
    fs, rad = _end_radical(m)
    pivots = set(reduce_rows(rad, len(fs))[1])
    comp = [f for i, f in enumerate(fs) if i not in pivots]
    if len(comp) <= 1:
        return None
    frees = [_free_entry(f) for f in comp]
    d = lcm(*frees)
    for coords in _split_candidates(len(comp)):
        if not any(coords):
            continue
        big = _blocks(m, m, _combination([c * (d // f) for c, f in zip(coords, frees)], comp))
        factors = _primary_factors(_min_poly(d, big))
        if len(factors) < 2:
            continue
        pieces = [subrep_from_subspaces(m, _primary_spans(p, d, big))[0] for p in factors]
        if any(sum(piece.dims[v] for piece in pieces) != n for v, n in m.dims.items()):
            raise RectiltError("the primary kernels of an endomorphism do not add up to M")
        return pieces
    raise PossibleDivisionAlgebra(
        f"End/rad has dimension {len(comp)} but no splitting element was found")


def _indecomposable_summands(m: Representation) -> list[Representation]:
    if m.total_dim == 0:
        return []
    pieces = _split_once(m)
    if pieces is None:
        return [m]
    return [s for piece in pieces for s in _indecomposable_summands(piece)]


def decompose(m: Representation) -> list[tuple[Representation, int]]:
    """Krull-Schmidt decomposition: canonical (summand, multiplicity) list."""
    pieces = _indecomposable_summands(m)
    pieces.sort(key=lambda r: r.canonical_key())
    grouped: list[tuple[Representation, int]] = []
    for piece in pieces:
        for k, (rep, count) in enumerate(grouped):
            if same_class(rep, piece):
                grouped[k] = (rep, count + 1)
                break
        else:
            grouped.append((piece, 1))
    return grouped


def multiplicity(x: Representation, m: Representation) -> int:
    """How often the indecomposable x occurs as a direct summand of m.

    rank P(x, m) = mult * dim End(x)/rad and rank P(x, x) = dim End(x)/rad;
    a division that is not exact means x is not indecomposable.
    """
    return _multiplicity(x, m, _unit_rank(x))


def _unit_rank(x: Representation) -> int:
    """rank P(x, x) = dim End(x) - dim rad (rank-nullity) = dim End(x)/rad for x indecomposable."""
    return _pairing_rank(x, x)


def _multiplicity(x: Representation, m: Representation, unit: int) -> int:
    """``multiplicity`` given ``unit`` = rank P(x, x)."""
    whole = _pairing_rank(x, m)
    if unit == 0 or whole % unit:
        raise RectiltError(f"pairing rank {whole} is not a multiple of {unit}: not indecomposable")
    return whole // unit


def same_class(x: Representation, y: Representation) -> bool:
    """Whether y is isomorphic to the indecomposable x: a summand of equal dimensions."""
    return x.dims == y.dims and _pairing_rank(x, y) > 0


def is_isomorphic(m: Representation, n: Representation):
    """(found, witness): a deterministic and complete isomorphism test.

    Each class x of m has End(x)/rad = Q and occurs k times, so P(x, n) must
    have rank k.  Its pivot rows and those columns of P(x, m) give f_a: x -> n
    and g_a: m -> x independent modulo the radical; the sum of the f_a o g_a
    is invertible.

    A negative names its witness: the first class of m whose rank in n
    differs, as ``{"class_dims", "multiplicity_in_m", "rank_in_n"}``, or,
    when every class of m occurs in n as often, both dimension vectors as
    ``{"dims_m", "dims_n"}``.  Modules over different algebras give None.
    """
    if m.algebra is not n.algebra:
        return False, None
    witness = zero_morphism(m, n)
    for x, k in decompose(m):
        fs, _, p_n = _pairing(x, n)
        _, gs, p_m = _pairing(x, m)
        rows = reduce_rows([list(col) for col in zip(*p_n)], len(fs))[1]
        if len(rows) != k:
            return False, {"class_dims": x.to_json()["dims"],
                           "multiplicity_in_m": k, "rank_in_n": len(rows)}
        cols = reduce_rows(p_m, len(gs))[1]
        for f, g in zip(_morphisms(x, n, [fs[a] for a in rows]),
                        _morphisms(m, x, [gs[b] for b in cols])):
            witness = witness.add(f.compose(g))
    if m.dims != n.dims:
        return False, {"dims_m": m.to_json()["dims"], "dims_n": n.to_json()["dims"]}
    if not witness.is_invertible():
        raise RectiltError("multiplicities agree but the isomorphism witness is singular")
    return True, witness


def basic_summands(mods) -> list[Representation]:
    """One representative per class of indecomposable mods (zeros dropped), sorted."""
    out: list[Representation] = []
    for m in sorted(mods, key=lambda r: r.canonical_key()):
        if not m.is_zero() and not any(same_class(seen, m) for seen in out):
            out.append(m)
    return out


def summand_classes(mods) -> list[Representation]:
    """One indecomposable per isomorphism class of summands of the mods."""
    return basic_summands([p for m in mods for p, _ in decompose(m)])


def split_off_summand(c: Representation, t: Representation) -> Representation | None:
    """The complement of one direct summand of c isomorphic to t, or None.

    Requires t indecomposable (local endomorphism ring): a nonzero entry
    tr(g o f) of P(t, c) makes g o f invertible, so g splits and its
    kernel is the complement.
    """
    if t.is_zero() or any(c.dims[v] < t.dims[v] for v in c.algebra.vertices):
        return None
    _, gs, p = _pairing(t, c)
    for row in p:
        for g, entry in zip(gs, row):
            if entry:
                return kernel(_morphisms(c, t, [g])[0])[0]
    return None


def in_add_of(m: Representation, classes) -> bool:
    """Whether m lies in add(classes).

    The classes must be pairwise non-isomorphic indecomposables; then m is
    in add(classes) iff their multiplicities account for all of dim m.
    """
    return _add_pieces(m, classes, lambda i: _unit_rank(classes[i])) is not None


def _add_pieces(m: Representation, classes, unit) -> list[tuple[Representation, int]] | None:
    """The (class, multiplicity) pairs of m, in class order, or None if m is not in add(classes).

    ``classes`` are pairwise non-isomorphic indecomposables and ``unit(i)``
    is rank P(x, x) of ``classes[i]``.  A class x that fits in m (x.dims <=
    m.dims at every vertex) occurs rank P(x, m) / rank P(x, x) times; one
    that does not fit is no summand of m and is skipped unpaired, so
    ``_multiplicity``'s divisibility check runs only on the classes that
    fit.  Once the multiplicities add up to dim m, Krull-Schmidt gives m =
    sum of x^mult and no later class can occur.
    """
    found, covered = [], 0
    for i, x in enumerate(classes):
        if covered == m.total_dim:
            break
        if all(x.dims[v] <= d for v, d in m.dims.items()):
            k = _multiplicity(x, m, unit(i))
            if k:
                found.append((x, k))
                covered += k * x.total_dim
    return found if covered == m.total_dim else None


def add_equal(ms, ns) -> bool:
    """add(ms) == add(ns) as sets of indecomposable summand classes."""
    return _same_classes(summand_classes(ms), summand_classes(ns))


def _same_classes(a, b) -> bool:
    """Whether two class lists (pairwise non-isomorphic indecomposables) name the same classes."""
    return len(a) == len(b) and all(any(same_class(x, y) for y in b) for x in a)
