"""Projective covers, Ext/Tor, the AR translate, and roster enumeration.

Everything is built from two primitives.  The first is the intertwining
system of ``rep``: its kernel is Hom_A(X, M), and with M = DN its
cokernel is the balanced tensor N (x)_A X, since N (x)_A X =
D Hom_A(X, DN) (Auslander-Reiten-Smalo, ch. II).  The second is one
resolution step, the minimal presentation 0 -> Omega -> P0 -> M -> 0.
The cover lifts the top of M one vertex at a time: the quotient of M_v by
the arrow images, then one solve against the identity.  pd and Ext^k
walk these steps; Tr M takes one and reads P1 off the lifted top of Omega.

Ext^1 classes are realized through the syzygy: a cocycle is a morphism
Omega -> N modulo restrictions of P0 -> N, and the extension with that
class is the pushout E of Omega -> P0 along the cocycle.  Its map onto M
is the unique h with h o [leg_N | leg_P0] = [0 | P0 ->> M], solved vertex
by vertex.  Maps into or out of a direct sum are written as stacked
blocks: a map into a sum stacks its components, a map out of one sets
its legs side by side.  Tor is computed against right modules, which are
stored as representations of the opposite algebra.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .algebra import BoundQuiverAlgebra, Path
from .errors import CapExceeded, RectiltError
from .linalg import Mat, _exact, quotient, rank, solve
from .rep import (
    Morphism,
    Representation,
    SES,
    _intertwining_rows,
    _linear_combination,
    _add_pieces,
    _unit_rank,
    direct_sum,
    dual,
    flatten_morphism,
    hom_basis,
    hom_dim,
    hom_from_projective,
    identity_morphism,
    kernel,
    projective,
    pushout,
    quotient_rep,
    same_class,
    subrep_from_subspaces,
    zero_morphism,
    zero_rep,
)


# -- radical and top ------------------------------------------------------


def _arrow_image_spans(m: Representation) -> dict:
    alg = m.algebra
    spans = {}
    for v in alg.vertices:
        spans[v] = Mat.hstack([m.maps[a.name] for a in alg.arrows if a.target == v],
                              rows=m.dims[v])
    return spans


def radical(m: Representation) -> tuple[Representation, Morphism]:
    """rad M: at each vertex the sum of incoming arrow images."""
    return subrep_from_subspaces(m, _arrow_image_spans(m))


def top(m: Representation) -> tuple[Representation, Morphism]:
    """M / rad M with its projection; semisimple."""
    return quotient_rep(m, _arrow_image_spans(m))


# -- projective presentations ---------------------------------------------


@dataclass(frozen=True)
class ProjectivePresentation:
    """Shared by every caller once cached on ``module``, so it is frozen."""

    module: Representation
    cover: Representation            # P0
    surjection: Morphism             # P0 ->> M
    syzygy: Representation           # Omega
    inclusion: Morphism              # Omega -> P0
    cover_vertices: list[str]        # one entry per indecomposable summand of P0


def _top_lifts(m: Representation):
    """(v, gens) per vertex v with M_v nonzero; gens lifts a basis of top(M)_v.

    The top at v is M_v modulo the arrow images; one solve lifts it all.
    """
    spans = _arrow_image_spans(m)
    for v in m.algebra.vertices:
        if not m.dims[v]:
            continue
        dim, proj = quotient(m.dims[v], spans[v])
        gens = solve(proj, Mat.identity(dim))
        if gens is None:
            raise RectiltError("top projection must be surjective")
        yield v, gens


def projective_cover(m: Representation) -> tuple[Representation, Morphism, list[str]]:
    """Minimal cover: one P(v) per top basis vector, mapped through lifted tops."""
    alg = m.algebra
    pieces = []
    vertices = []
    for v, gens in _top_lifts(m):
        for k in range(gens.cols):
            pieces.append(hom_from_projective(alg, v, m, gens.col(k)))
            vertices.append(v)
    if not pieces:
        z = zero_rep(alg)
        return z, zero_morphism(z, m), []
    p0 = direct_sum(alg, [f.source for f in pieces])
    comps = {}
    for v in alg.vertices:
        blocks = [f.components[v] for f in pieces]
        comps[v] = Mat.hstack(blocks, rows=m.dims[v])
    # stacked from validated hom_from_projective maps, so it intertwines already
    surj = Morphism(p0, m, comps, validate=False)
    if not surj.is_surjective():
        raise RectiltError("projective cover failed to surject")
    return p0, surj, vertices


# The modules that hold a cached presentation, oldest first, by weak
# reference.  Past ``_PRESENTED_MAX`` the oldest one still alive gives its
# presentation up, so a caller that keeps many modules alive does not keep
# all their presentations too.  Presentations are asked for again mostly
# within one verdict (a module, its syzygies, its summands), which 32
# entries hold; on fresh modules 256 entries bought no hits and kept
# ~1.2 MiB alive.
_PRESENTED: deque[weakref.ref] = deque()
_PRESENTED_MAX = 32


def min_presentation(m: Representation) -> ProjectivePresentation:
    """One resolution step: the minimal cover P0 ->> M and its kernel Omega.

    The next step is the presentation of ``syzygy``; P1 -> P0 is
    ``inclusion`` after the cover of Omega.  Modules are immutable, so
    the result is cached on m, for the last ``_PRESENTED_MAX`` modules
    presented.
    """
    if m._pres is None:
        p0, surj, vertices = projective_cover(m)
        omega, incl = kernel(surj)
        m._pres = ProjectivePresentation(m, p0, surj, omega, incl, vertices)
        _PRESENTED.append(weakref.ref(m))
        if len(_PRESENTED) > _PRESENTED_MAX and (old := _PRESENTED.popleft()()) is not None:
            old._pres = None
    return m._pres


def _resolution(m: Representation):
    """The presentations of m, Omega m, Omega^2 m, ... while the syzygy is nonzero."""
    while not m.is_zero():
        pres = min_presentation(m)
        yield pres
        m = pres.syzygy


def proj_dim(m: Representation, cap: int | None = None) -> int:
    """Length of the minimal projective resolution; CapExceeded past ``cap``."""
    if cap is None:
        cap = m.algebra.dimension
    for d, pres in enumerate(_resolution(m)):
        if pres.syzygy.is_zero():
            return d
        if d + 1 > cap:
            raise CapExceeded(f"projective resolution exceeds {cap} steps")
    return 0


def _precomposition(d: Morphism, dom: list[Morphism], cod: list[Morphism]) -> Mat:
    """f |-> f o d from Hom(Y, N) to Hom(X, N) for d: X -> Y, in hom_basis coordinates.

    ``dom`` and ``cod`` are ``hom_basis(Y, N)`` and ``hom_basis(X, N)``;
    column i holds the coordinates of dom[i] o d in ``cod``.
    """
    if not dom or not cod:
        return Mat.zeros(len(cod), len(dom))
    sol = solve(Mat.from_rows([flatten_morphism(f) for f in cod]).transpose(),
                Mat.from_rows([flatten_morphism(f.compose(d)) for f in dom]).transpose())
    if sol is None:
        raise RectiltError("precomposed maps are not in the next Hom space")
    return sol


# -- Ext ---------------------------------------------------------------------


@dataclass
class ExtSpace:
    source: Representation
    coefficient: Representation
    presentation: ProjectivePresentation
    dimension: int
    cocycles: list[Morphism]          # Omega -> N, not in the image of restriction


def ext1(m: Representation, n: Representation) -> ExtSpace:
    """Ext^1(m, n) = coker(Hom(P0, n) -> Hom(Omega, n))."""
    pres = min_presentation(m)
    omega_basis = hom_basis(pres.syzygy, n)
    if not omega_basis:
        return ExtSpace(m, n, pres, 0, [])
    coords = _precomposition(pres.inclusion, hom_basis(pres.cover, n), omega_basis)
    dim, proj = quotient(len(omega_basis), coords)
    # cocycle representatives: the complement coordinates picked by the quotient
    sol = solve(proj, Mat.identity(dim))
    if sol is None:
        raise RectiltError("Ext^1 quotient map is not surjective")
    reps = [_linear_combination(pres.syzygy, n, sol.col(k), omega_basis)
            for k in range(dim)]
    return ExtSpace(m, n, pres, dim, reps)


def ext1_dim(m: Representation, n: Representation) -> int:
    return ext1(m, n).dimension


def _pushout_extension(pres: ProjectivePresentation, cocycle: Morphism) -> SES:
    """0 -> N -> E -> M -> 0 from a cocycle Omega -> N via pushout.

    E -> M is the unique h with h o [leg_N | leg_P0] = [0 | surjection]:
    the two legs side by side are the pushout's projection from N + P0,
    which is onto, so each vertex's h is one solve.
    """
    mid, leg_n, leg_p0 = pushout(cocycle, pres.inclusion)
    m = pres.module
    comps = {}
    for v in m.algebra.vertices:
        legs = Mat.hstack([leg_n.components[v], leg_p0.components[v]])
        want = Mat.hstack([Mat.zeros(m.dims[v], leg_n.source.dims[v]),
                           pres.surjection.components[v]])
        sol = solve(legs.transpose(), want.transpose())
        if sol is None:
            raise RectiltError("extension middle term must map onto the source")
        comps[v] = sol.transpose()
    # h o [leg_N | leg_P0] intertwines and the legs are jointly onto, so h does too
    return SES(leg_n, Morphism(mid, m, comps, validate=False))


def realize_extension(e: ExtSpace, coeffs) -> SES:
    """The extension of e.source by e.coefficient with the given class."""
    coeffs = [_exact(c) for c in coeffs]
    if len(coeffs) != e.dimension:
        raise ValueError("coefficient list does not match Ext dimension")
    cocycle = _linear_combination(e.presentation.syzygy, e.coefficient, coeffs, e.cocycles)
    return _pushout_extension(e.presentation, cocycle)


def universal_extension(e: ExtSpace) -> SES:
    """One extension 0 -> N^n -> E -> M -> 0 realizing the whole basis.

    The middle term has no further extensions by N: each basis class
    dies after pushing out along the matching projection N^n -> N.
    """
    n = e.dimension
    if n == 0:
        # degenerate: the split sequence 0 -> 0 -> M -> M -> 0
        zero = zero_rep(e.source.algebra)
        return SES(zero_morphism(zero, e.source), identity_morphism(e.source))
    alg = e.coefficient.algebra
    power = direct_sum(alg, [e.coefficient] * n)
    # the map into the sum N^n: the cocycles' components stacked
    combined = {v: Mat.vstack([f.components[v] for f in e.cocycles]) for v in alg.vertices}
    return _pushout_extension(e.presentation,
                              Morphism(e.presentation.syzygy, power, combined, validate=False))


def is_split(ses: SES) -> bool:
    """Split iff the projection admits a section, found by linear solving."""
    cands = hom_basis(ses.right, ses.middle)
    if not cands:
        return ses.right.is_zero()
    rows = [flatten_morphism(ses.project.compose(f)) for f in cands]
    want = flatten_morphism(identity_morphism(ses.right))
    return solve(Mat.from_rows(rows).transpose(), Mat.column(want)) is not None


def ext_k(m: Representation, n: Representation, k: int, cap: int | None = None) -> int:
    """dim Ext^k(m, n): Hom for k = 0, else Ext^1(Omega^(k-1) m, n) by dimension shift."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if cap is None:
        cap = m.algebra.dimension + k + 1
    if k + 1 > cap:
        raise CapExceeded("resolution exceeded the configured step cap")
    if k == 0:
        return hom_dim(m, n)
    # the resolution stops at a zero syzygy, which has no Ext
    for pres in islice(_resolution(m), k - 1):
        m = pres.syzygy
    return ext1_dim(m, n)


# -- tensor products and Tor ------------------------------------------------


def tensor_dim_data(nright: Representation, x: Representation):
    """Quotient data for N (x)_A X with N a representation of A^op.

    Returns ``(dim, proj, offsets, total)``: the raw space is the sum over
    vertices w of N_w (x) X_w, with n_r (x) x_q at ``offsets[w] + r * dim X_w
    + q``, and ``proj`` maps it onto the balanced quotient.  The balancing
    relations are the rows of Hom_A(X, DN)'s intertwining system, DN
    having the transposed maps of N: N (x)_A X = D Hom_A(X, DN).  Tor uses
    it with N a right module; the recollement's j_! uses it with the
    factors swapped, Y (x) e_vN over the opposite of the outer algebra.
    """
    alg = x.algebra
    if nright.algebra is not alg.opposite():
        raise ValueError("left factor must be a representation of the opposite algebra")
    dn = Representation(alg, nright.dims,
                        {a.name: nright.maps[a.name].transpose() for a in alg.arrows},
                        validate=False)
    rows, offsets, total = _intertwining_rows(x, dn)
    span = Mat.from_rows(rows).transpose() if rows else Mat.zeros(total, 0)
    dim, proj = quotient(total, span)
    return dim, proj, offsets, total


def tensor_dim(nright: Representation, x: Representation) -> int:
    return tensor_dim_data(nright, x)[0]


def tensor_map(nright: Representation, f: Morphism):
    """(dim_src, dim_tgt, matrix of N (x) f)."""
    return tensor_map_between(nright, f, tensor_dim_data(nright, f.source),
                              tensor_dim_data(nright, f.target))


def tensor_map_between(nright: Representation, f: Morphism, src_data, tgt_data):
    """``tensor_map`` given ``tensor_dim_data`` of f's source and of its target."""
    dsrc, psrc = src_data[:2]
    dtgt, ptgt = tgt_data[:2]
    # on the raw space, a sum of N_v copies of each f.source_v, f acts copy by copy
    bigmat = Mat.block_diag([f.components[v] for v in f.source.algebra.vertices
                             for _ in range(nright.dims[v])])
    rhs = (ptgt @ bigmat).transpose()
    sol = solve(psrc.transpose(), rhs)
    if sol is None:
        raise RectiltError("tensor of a morphism does not descend to the quotients")
    return dsrc, dtgt, sol.transpose()


def tor1_right(nright: Representation, s: Representation) -> int:
    """dim Tor_1(N, S) = dim ker(N (x) Omega -> N (x) P0)."""
    pres = min_presentation(s)
    if pres.syzygy.is_zero():
        return 0
    dsrc, _, mat = tensor_map(nright, pres.inclusion)
    return dsrc - rank(mat)


# -- transpose and the AR translate ------------------------------------------


def transpose(m: Representation) -> Representation:
    """Tr M over the opposite algebra, from a minimal presentation P1 -> P0.

    P1's summand l is P(u_l) for a lift of a basis vector of top(Omega),
    and its generator maps into P0 by that lift's image, written as
    path-class coefficients; the lifts generate Omega (Nakayama), so
    Omega needs no cover.  Hom(-, A) turns those right multiplications
    into left multiplications between the dual projectives R0 and R1,
    one opposite projective per summand of P0 and of P1.  Summand k of
    P0 and summand l of P1 give one leg P_op(v_k) -> P_op(u_l); Tr M is
    R1 modulo the images of R0's summands, their legs stacked over l.
    """
    alg = m.algebra
    opp = alg.opposite()
    pres = min_presentation(m)
    # (u_l, image of generator l in P0 at u_l), the image running through P0's blocks in order
    p1 = [(u, image) for u, gens in _top_lifts(pres.syzygy)
          for image in (pres.inclusion.components[u] @ gens).transpose().entries]
    if not p1:
        return zero_rep(opp)
    r0_parts = [projective(opp, v) for v in pres.cover_vertices]
    r1_parts = [projective(opp, u) for u, _ in p1]
    legs = []                                  # legs[l][k]: P_op(v_k) -> P_op(u_l)
    for (u, image), target in zip(p1, r1_parts):
        col = iter(image)
        row = []
        for v, source in zip(pres.cover_vertices, r0_parts):
            paths_vu = alg.paths_between(v, u)
            coeffs = list(islice(col, len(paths_vu)))
            if not any(coeffs):
                row.append(zero_morphism(source, target))
                continue
            # left multiplication by the element sum coeffs_b * b of e_u A e_v
            # is the op-morphism P_op(v) -> P_op(u) sending the generator to
            # the class of the reversed paths inside P_op(u) at vertex v
            op_list = opp.paths_between(u, v)
            pos_of = {b: q for q, b in enumerate(op_list)}
            vec = [Fraction(0)] * len(op_list)
            for coeff, b in zip(coeffs, paths_vu):
                path = alg.basis[b]
                rev = Path(alg.quiver.path_target(path), tuple(reversed(path.arrows)))
                for ob, c in opp.path_class(rev).items():
                    vec[pos_of[ob]] += coeff * c
            row.append(hom_from_projective(opp, v, target, vec))
        legs.append(row)
    r1 = direct_sum(opp, r1_parts)
    spans = {w: Mat.hstack([Mat.vstack([row[k].components[w] for row in legs])
                            for k in range(len(r0_parts))], rows=r1.dims[w])
             for w in opp.vertices}
    return quotient_rep(r1, spans)[0]


def tau(m: Representation) -> Representation:
    """AR translate DTr; zero for projectives."""
    tr = transpose(m)
    if tr.is_zero():
        return zero_rep(m.algebra)
    return dual(tr)


def tau_inverse(m: Representation) -> Representation:
    """Inverse translate TrD; zero for injectives."""
    dm = dual(m)
    tr = transpose(dm)
    if tr.is_zero():
        return zero_rep(m.algebra)
    return tr  # transpose of an A^op-module lives over A again


# -- roster -------------------------------------------------------------------


@dataclass
class RosterEntry:
    module: Representation
    provenance: str      # "projective(v)" or "tau_inverse^k(...)"


@dataclass
class Roster:
    """The indecomposables of an algebra, with what depends on nothing else.

    Each summand class has an index: an entry's is its place in
    ``entries``, and a class that no entry holds gets the next index past
    them when it is first met (``_class_index``; ``_class`` inverts it).
    Those classes are kept in ``_extra``, which stays empty on a closed
    roster.  Data derived from the classes alone is filled on first use
    and held here, for the life of the roster, however many modules are
    checked against it.  The tables hold only ints and bools, and take
    any class index:

    - ``ext1_dim``: dim Ext^1 per ordered pair, and ``ext1_vanishes``,
      whether it is zero;
    - ``pd``: the projective dimension per class;
    - ``hom_vanishes``: whether Hom vanishes, per ordered pair;
    - ``unit_rank``: rank P(X, X) per class, which ``decompose`` reads.

    ``index``, ``decompose``, ``modules`` and ``to_json`` cover the entries
    only.  ``index`` finds a module's entry through a map from dimension
    vectors to entry indices, also filled on first use.  ``_images`` holds
    the entries' images under a recollement functor and the part roster's
    class indices of those images, keyed by (context, functor name) and
    filled by ``gluing``.  Its key (context, "j!") holds, for the outer
    roster's classes Y, the class index here of j_!Y.  A context compares
    by identity.

    None of it is compared or serialized.
    """
    algebra: BoundQuiverAlgebra
    entries: list[RosterEntry]
    _ext1: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _pd: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _hom0: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _unit: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _at_dims: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _extra: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def modules(self) -> list[Representation]:
        return [e.module for e in self.entries]

    def _class(self, i: int) -> Representation:
        """The module of class index i: an entry, or a class met past the entries."""
        n = len(self.entries)
        return self.entries[i].module if i < n else self._extra[i - n]

    def _class_index(self, m: Representation) -> int:
        """The class index of the indecomposable m; ValueError if m is over another algebra."""
        if m.algebra is not self.algebra:
            raise ValueError("the module is not over the roster's algebra")
        i = self.index(m)
        if i is not None:
            return i
        for k, x in enumerate(self._extra):
            if same_class(x, m):
                return len(self.entries) + k
        self._extra.append(m)
        return len(self.entries) + len(self._extra) - 1

    def ext1_dim(self, i: int, j: int) -> int:
        """dim Ext^1(X_i, X_j) for the classes X_i and X_j."""
        if (i, j) not in self._ext1:
            self._ext1[i, j] = ext1_dim(self._class(i), self._class(j))
        return self._ext1[i, j]

    def ext1_vanishes(self, i: int, j: int) -> bool:
        """Whether Ext^1(X_i, X_j) = 0 for the classes X_i and X_j."""
        return self.ext1_dim(i, j) == 0

    def pd(self, i: int) -> int:
        """The projective dimension of the class X_i."""
        if i not in self._pd:
            self._pd[i] = proj_dim(self._class(i))
        return self._pd[i]

    def hom_vanishes(self, i: int, j: int) -> bool:
        """Whether Hom(X_i, X_j) = 0 for the classes X_i and X_j."""
        if (i, j) not in self._hom0:
            self._hom0[i, j] = hom_dim(self._class(i), self._class(j)) == 0
        return self._hom0[i, j]

    def unit_rank(self, i: int) -> int:
        """rank P(X_i, X_i) = dim End(X_i)/rad for the class X_i."""
        if i not in self._unit:
            self._unit[i] = _unit_rank(self._class(i))
        return self._unit[i]

    def index(self, m: Representation) -> int | None:
        """The index of the entry isomorphic to m, or None if there is none.

        Only the entries of m's dimension vector are candidates: an entry
        that is m itself is found first, and ``same_class`` runs only when
        none is.  A module over another algebra gives None.
        """
        if m.algebra is not self.algebra:
            return None
        if not self._at_dims:
            for i, e in enumerate(self.entries):
                self._at_dims.setdefault(e.module.dim_vector(), []).append(i)
        candidates = self._at_dims.get(m.dim_vector(), ())
        for i in candidates:
            if self.entries[i].module is m:
                return i
        return next((i for i in candidates if same_class(self.entries[i].module, m)), None)

    def decompose(self, m: Representation) -> list[tuple[Representation, int]] | None:
        """``rep.decompose(m)`` read off the roster, or None if the roster does not account for m.

        The entries are pairwise non-isomorphic indecomposables, so
        ``rep._add_pieces`` over them gives m's classes with their
        multiplicities.  The pairs come in roster order, the entries
        themselves standing for their classes.  A module over another
        algebra gives None.
        """
        if m.algebra is not self.algebra:
            return None
        return _add_pieces(m, self.modules, self.unit_rank)

    def to_json(self):
        return [{**e.module.to_json(), "provenance": e.provenance} for e in self.entries]


def enumerate_roster(algebra: BoundQuiverAlgebra, cap: int = 256) -> Roster:
    """Indecomposables as the tau-inverse closure of the projectives.

    Complete for representation-directed algebras; CapExceeded past
    ``cap`` candidates guards against representation-infinite input.
    """
    if cap < len(algebra.vertices):
        raise ValueError("cap must be at least the number of vertices")
    entries: list[RosterEntry] = []
    work: list[tuple[Representation, str, int]] = []
    for v in algebra.vertices:
        p = projective(algebra, v)
        entries.append(RosterEntry(p, f"projective({v})"))
        work.append((p, v, 0))
    pos = 0
    while pos < len(work):
        m, base, gen = work[pos]
        pos += 1
        t = tau_inverse(m)
        if t.is_zero():
            continue
        if any(same_class(e.module, t) for e in entries):
            continue
        if len(entries) + 1 > cap:
            raise CapExceeded(f"roster exceeded {cap} modules; "
                              "algebra may be representation-infinite")
        entries.append(RosterEntry(t, f"tau_inverse^{gen + 1}(projective({base}))"))
        work.append((t, base, gen + 1))
    entries.sort(key=lambda e: e.module.canonical_key())
    return Roster(algebra, entries)
