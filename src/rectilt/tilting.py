"""Tilting certificates, trace-based torsion pairs, Ext-projectives.

A tilting module is certified by the three classical conditions: pd <= 1,
no self-extensions, and a two-term coresolution of the regular module by
add(T).  The third is checked constructively and against the
summand-count criterion; the two verdicts must agree for a partial
tilting module.

The construction takes each projective P(v) to its minimal left
add(T)-approximation (Auslander-Smalo).  Hom(P(v), X) = X_v, and a map
P(v) -> T_i is needed in the approximation only modulo those that factor
through a radical map into T_i: all of Hom(T_j, T_i) for j != i and rad
End(T_i).  Their images at v span R_i(v), whose pivots are read in
integers off the kernel vectors (no map is built), so the approximation
sends P(v) to T_i once per unit vector off those pivots: a complement of
R_i(v) in (T_i)_v.  Any other left approximation is this one plus a
split summand 0 -> T' with T' in add(T), so injectivity and "cokernel in
add(T)" give the same verdicts as the non-minimal P(v) -> T^{dim
Hom(P(v), T)}, on far smaller cokernels.  Were End(T_i)/rad larger than
Q, the map would no longer be minimal but still an approximation, since
rad(add T) is nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RectiltError
from .homology import Roster, ext1_dim, proj_dim
from .linalg import Mat
from .rep import (
    Morphism,
    Representation,
    SES,
    _add_pieces,
    _combination,
    _end_radical,
    _hom_ints,
    _image_pivots,
    basic_summands,
    cokernel,
    decompose,
    direct_sum,
    hom_basis,
    hom_dim,
    hom_from_projective,
    in_add_of,
    injective,
    projective,
    quotient_rep,
    regular_module,
    subrep_from_subspaces,
    summand_classes,
)


@dataclass
class TiltingCertificate:
    module: Representation
    pd: int
    ext1_self: int
    t3_constructive: bool | None = None
    t3_sequence_dims: tuple | None = None
    indecomposable_count: int | None = None
    simple_count: int | None = None
    classes: list | None = field(default=None, compare=False)  # one per summand class
    # where the (T3) construction first fails: {"vertex", "failure", "dims"}
    t3_witness: dict | None = None

    @property
    def t1(self) -> bool:
        return self.pd <= 1

    @property
    def t2(self) -> bool:
        return self.ext1_self == 0

    @property
    def partial_tilting(self) -> bool:
        return self.t1 and self.t2

    @property
    def tilting(self) -> bool:
        return self.partial_tilting and bool(self.t3_constructive)

    def to_json(self):
        out = {
            "dims": {v: self.module.dims[v] for v in self.module.algebra.vertices},
            "pd": self.pd,
            "ext1_self": self.ext1_self,
            "t1": self.t1,
            "t2": self.t2,
            "t3": self.t3_constructive,
            "indecomposable_count": self.indecomposable_count,
            "simple_count": self.simple_count,
            "partial_tilting": self.partial_tilting,
            "tilting": self.tilting,
        }
        if self.t3_witness is not None:
            out["t3_witness"] = self.t3_witness
        return out


def is_partial_tilting(t: Representation) -> TiltingCertificate:
    """(T1) pd <= 1 and (T2) Ext^1(T, T) = 0, recorded with their values."""
    return TiltingCertificate(t, proj_dim(t), ext1_dim(t, t))


def is_tilting(t: Representation) -> TiltingCertificate:
    """Full tilting certificate including the coresolution condition (T3).

    Constructive check: the minimal left add(T)-approximation of each
    projective P(v) must be injective with cokernel in add(T).  Any left
    approximation differs from the minimal one by a split summand in
    add(T), so the verdict is the one the non-minimal approximation gives;
    ``t3_sequence_dims`` records the minimal coresolution 0 -> A -> T0 ->
    T1 -> 0 (for T = A it is (dim A, dim A, 0)).  The summand-count
    criterion (#classes = #simples) is checked to agree whenever the
    module is partial tilting.  ``classes`` on the certificate holds one
    indecomposable per summand class of T, as ``decompose`` found them.
    When (T3) fails, ``t3_witness`` names the first vertex v whose
    approximation is not injective (with its target's dims) or whose
    cokernel lies outside add(T) (with the cokernel's dims).
    """
    return _certify_tilting(is_partial_tilting(t), [rep for rep, _ in decompose(t)])


def _certify_tilting(cert: TiltingCertificate, classes) -> TiltingCertificate:
    """Complete the (T1)/(T2) certificate ``cert`` with (T3), given its module's summand classes.

    The caller guarantees that ``classes`` holds exactly one indecomposable
    per isomorphism class of direct summands of ``cert.module``; nothing
    here checks it.  (T3) is always constructed, and ``cert`` is returned.
    """
    alg = cert.module.algebra
    cert.classes = classes
    cert.indecomposable_count = len(classes)
    cert.simple_count = len(alg.vertices)
    units, radical_pivots = _class_radicals(classes)
    # approximate each projective separately; the sequences add up
    mid_dims = []
    cok_dims = []
    for v in alg.vertices:
        approx = _left_approximation(alg, v, classes, radical_pivots)
        mid_dims.append(approx.target.dim_vector())
        if not approx.is_injective():
            cert.t3_witness = _t3_witness(alg, v, "not_injective", mid_dims[-1])
            break
        cok, _ = cokernel(approx)
        cok_dims.append(cok.dim_vector())
        if _add_pieces(cok, classes, units.__getitem__) is None:
            cert.t3_witness = _t3_witness(alg, v, "cokernel_outside_add", cok_dims[-1])
            break
    verdict = cert.t3_witness is None
    cert.t3_constructive = verdict
    if verdict:
        cert.t3_sequence_dims = (regular_module(alg).dim_vector(),
                                 tuple(map(sum, zip(*mid_dims))),
                                 tuple(map(sum, zip(*cok_dims))))
    if cert.partial_tilting:
        count_verdict = cert.indecomposable_count == cert.simple_count
        if count_verdict != cert.t3_constructive:
            raise RectiltError(
                "internal error: (T3) construction and summand count disagree")
    return cert


def _t3_witness(alg, v, failure: str, dims: tuple) -> dict:
    """The (T3) witness at v, naming the failure and the dims of the module it concerns."""
    return {"vertex": v, "failure": failure, "dims": dict(zip(alg.vertices, dims))}


def _class_radicals(classes):
    """(units, pivots): rank P(T_i, T_i), and the pivots of R_i(v) per class and vertex.

    R_i(v) is spanned by the images at v of Hom(T_j, T_i), j != i, and of
    rad End(T_i), the kernel of the trace form on End(T_i) (Dickson).  Both
    are read as integer columns off the kernel vectors of the intertwining
    systems; no map is built.
    """
    units, pivots = [], []
    for i, x in enumerate(classes):
        fs, rad = _end_radical(x)
        units.append(len(fs) - len(rad))
        sources = [(y, _hom_ints(y, x)) for j, y in enumerate(classes) if j != i]
        pivots.append(dict(_image_pivots(x, [(x, [_combination(u, fs) for u in rad])] + sources)))
    return units, pivots


def _left_approximation(alg, v, classes, radical_pivots) -> Morphism:
    """P(v) -> sum of T_i, once per unit vector off the pivots of R_i(v)."""
    legs = [hom_from_projective(alg, v, x, [int(j == k) for j in range(x.dims[v])])
            for x, pivots in zip(classes, radical_pivots)
            for k in range(x.dims[v]) if k not in pivots[v]]
    pv = projective(alg, v)
    target = direct_sum(alg, [f.target for f in legs])
    comps = {w: Mat.vstack([f.components[w] for f in legs], cols=pv.dims[w])
             for w in alg.vertices}
    return Morphism(pv, target, comps, validate=False)


# -- trace and membership ----------------------------------------------------


def _image_spans(basis, m: Representation) -> dict:
    """Per vertex of m, the images of the maps in ``basis`` as the columns of one matrix."""
    return {v: Mat.hstack([f.components[v] for f in basis], rows=m.dims[v])
            for v in m.algebra.vertices}


def trace(t: Representation, m: Representation) -> tuple[Representation, Morphism]:
    """The trace of t in m: sum of images of all morphisms t -> m."""
    return subrep_from_subspaces(m, _image_spans(hom_basis(t, m), m))


def _classify(t: Representation, m: Representation) -> str:
    """Where m lies: Gen t ("torsion"), t-perp ("free") or "neither", from one integer kernel.

    The trace is the span of the images of a Hom(t, m) basis, so m is
    torsion when those images have full rank at every vertex; the integer
    kernel vectors are such a basis (``_image_pivots``).  An empty kernel
    makes m free unless m = 0, which lies in both classes and is called
    torsion.  No map is built.
    """
    basis = _hom_ints(t, m)
    if not basis:
        return "torsion" if m.is_zero() else "free"
    full = all(len(p) == m.dims[v] for v, p in _image_pivots(m, [(t, basis)]))
    return "torsion" if full else "neither"


def gen_member(t: Representation, m: Representation) -> bool:
    return _classify(t, m) == "torsion"


def perp_member(t: Representation, m: Representation) -> bool:
    return hom_dim(t, m) == 0


def torsion_decompose(t: Representation, m: Representation) -> SES:
    """0 -> trace -> m -> m/trace -> 0 with both memberships checked."""
    tr, incl = trace(t, m)
    spans = {v: incl.components[v] for v in m.algebra.vertices}
    quot, proj = quotient_rep(m, spans)
    if not gen_member(t, tr):
        raise RectiltError("trace must lie in Gen T")
    if not perp_member(t, quot):
        raise RectiltError("quotient must lie in T-perp (is T tilting?)")
    return SES(incl, proj)


# -- roster partitions ----------------------------------------------------------


@dataclass
class RosterPartition:
    roster: Roster
    torsion: list[int]
    free: list[int]
    neither: list[int] = field(default_factory=list)

    def counts(self):
        return len(self.torsion), len(self.free), len(self.neither)

    def to_json(self):
        mods = self.roster.modules
        return {
            "torsion": [mods[i].to_json()["dims"] for i in self.torsion],
            "free": [mods[i].to_json()["dims"] for i in self.free],
            "neither": [mods[i].to_json()["dims"] for i in self.neither],
            "counts": list(self.counts()),
        }


def partition_roster(t: Representation, roster: Roster) -> RosterPartition:
    """Classify each roster entry by trace membership in Gen t and t-perp, for any t.

    A tilting sum of roster entries has its partition read off the roster's
    tables instead (``_certify_roster_sum``).
    """
    part = RosterPartition(roster, [], [])
    for i, m in enumerate(roster.modules):
        getattr(part, _classify(t, m)).append(i)
    return part


def _certify_roster_sum(roster: Roster, indices) -> tuple[TiltingCertificate, RosterPartition]:
    """The tilting certificate of T, the sum of the classes at ``indices``, and T's partition.

    ``indices`` are distinct class indices of the roster (``Roster._class_index``),
    entries' or past them, so T is basic with those classes, summed in
    canonical-key order: index order on ``enumerate_roster``'s rosters, whose
    entries are sorted that way.  (T1) and (T2) are read off the roster's
    tables: pd T = max pd X_i and dim Ext^1(T, T) = sum of dim Ext^1(X_i,
    X_j).  (T3) is constructed.  For T tilting, Gen T = {X : Ext^1(T, X) =
    0} and T-perp = {X : Hom(T, X) = 0} (Brenner-Butler; Assem-Simson-
    Skowronski VI.2), so the entry X_j is torsion when Ext^1(X_i, X_j) = 0
    for every i, free when Hom(X_i, X_j) = 0 for every i, and neither
    otherwise.  Any other T is partitioned by trace (``partition_roster``).
    """
    classes = sorted(map(roster._class, indices), key=Representation.canonical_key)
    t = direct_sum(roster.algebra, classes)
    cert = _certify_tilting(TiltingCertificate(
        t, max(map(roster.pd, indices), default=0),
        sum(roster.ext1_dim(i, j) for i in indices for j in indices)), classes)
    if not cert.tilting:
        return cert, partition_roster(t, roster)
    part = RosterPartition(roster, [], [])
    for j in range(len(roster.entries)):
        if all(roster.ext1_dim(i, j) == 0 for i in indices):
            part.torsion.append(j)
        elif all(roster.hom_vanishes(i, j) for i in indices):
            part.free.append(j)
        else:
            part.neither.append(j)
    return cert, part


def is_tilting_torsion_pair(t: Representation) -> bool:
    """Gen T contains every indecomposable injective."""
    alg = t.algebra
    return all(gen_member(t, injective(alg, v)) for v in alg.vertices)


@dataclass
class TorsionPairVerdict:
    holds: bool
    reason: str = ""
    witness: dict | None = None

    def to_json(self):
        return {"holds": self.holds, "reason": self.reason, "witness": self.witness}


def is_torsion_pair(tclass, fclass, roster: Roster) -> TorsionPairVerdict:
    """Definition check for (add tclass, add fclass) on the roster.

    (i) Hom(X, Y) = 0 for X in tclass, Y in fclass; (ii) every roster
    module has its trace in add(tclass) and trace-quotient in add(fclass).
    Both classes are first reduced to their basic summand classes.
    Returns the first failing witness.
    """
    alg = roster.algebra
    tclass = summand_classes(tclass)
    fclass = summand_classes(fclass)
    for x in tclass:
        for y in fclass:
            if hom_dim(x, y):
                return TorsionPairVerdict(
                    False, "nonzero Hom from torsion class to free class",
                    {"from_dims": x.to_json()["dims"], "to_dims": y.to_json()["dims"]})
    tsum = direct_sum(alg, tclass)
    for m in roster.modules:
        tr, incl = trace(tsum, m)
        if not in_add_of(tr, tclass):
            return TorsionPairVerdict(
                False, "trace not in add of the torsion class",
                {"module_dims": m.to_json()["dims"]})
        spans = {v: incl.components[v] for v in alg.vertices}
        quot, _ = quotient_rep(m, spans)
        if not in_add_of(quot, fclass):
            return TorsionPairVerdict(
                False, "trace quotient not in add of the free class",
                {"module_dims": m.to_json()["dims"]})
    return TorsionPairVerdict(True)


def ext_projectives(classes) -> Representation:
    """Direct sum of the Ext-projective members of a class list, one per class."""
    picked = basic_summands([m for m in classes
                             if all(ext1_dim(m, n) == 0 for n in classes)])
    if not picked:
        raise ValueError("class list has no Ext-projective members")
    return direct_sum(picked[0].algebra, picked)
