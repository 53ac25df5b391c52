"""Gluing and restricting tilting modules across a recollement.

The forward direction builds one universal extension of the lifted inner
tilting module by copies of the tensor-lifted outer one, and certifies
every conclusion: pd <= 1, self-orthogonality, the coresolution, the
partition identity between the glued membership predicates and the
torsion partition of the result, and the Ext-projectivity identity.  The
summand classes of the glued module are assembled, not rediscovered: j_!
is additive and fully faithful (j^* j_! = id), so it sends the summand
classes of the outer tilting module to pairwise non-isomorphic
indecomposables, and the classes of the middle term of the universal
extension are read off the whole algebra's roster (``Roster.decompose``),
with ``decompose`` run only when the roster does not account for it.

The backward direction restricts a tilting module to one part, in one
routine for both sides.  It classifies the restricted module against the
part's roster in the same way, partitions T's roster once, sends the
torsion and free classes through the side's restriction functors, always
certifies tilting-ness of the outer restriction, and reports which
closure hypotheses (and hence which partition equalities) survive.

Both directions name every class by its roster's class index
(``Roster._class_index``): an entry's index, or, for a class that the
entries lack, an index past them.  They build a basic module as the sum of
the classes at their indices, certified in one call
(``_certify_roster_sum``) that reads its (T1), (T2) and, once it is
tilting, its torsion partition off the roster's tables, and they compare
classes by index.  An index past the entries is no entry's, just as no
entry is isomorphic to a class that the entries lack.

What does not depend on the tilting module is computed once and kept on
the object it belongs to:

- a whole-algebra roster that is not passed in, and the roster of each
  part, once per algebra object (``_roster``);
- on the roster, everything derived from its entries:
  - the tables of dim Ext^1, pd and Hom vanishing (``Roster.ext1_dim``,
    ``Roster.pd``, ``Roster.hom_vanishes``), read by those certificates
    and, Ext^1, by the Ext-projectivity check;
  - rank P(X, X) of each entry X (``Roster.unit_rank``), read by
    ``Roster.decompose`` and by the restriction's closure check;
  - i^*X, j^*X and i^!X of each entry X and the part roster's class
    indices of these images, per context (``_images``), read by the
    partition check and by the restricted classes;
  - the class index of j_!Y for each class Y of the outer roster, per
    context (``_lifted_index``);
- on the frozen ``GluedPairSpec``: the tilting certificates of its inputs
  T' and T'' and the part rosters' class indices of their classes.

T' and T'' are tilting once the glue gets past its hypotheses, so Gen and
perp of each side are read off the part rosters' Ext^1 and Hom tables
(Brenner-Butler).  The glued class of each roster entry is thus a set of
table reads (``_read_glued_class``), and so is the universal-extension
check Ext^1(M, j_! T'') = 0 over the roster classes of the middle term M;
``ext1_dim`` runs only for the dimension of a nonzero one.  What a glue
still computes on every verdict is i_* T', j_! T'', the extension space
between them and its universal extension, the roster classes of the
middle term (``Roster.decompose``), the glued module's (T3) construction,
the j_! Tor family of the exactness report, which is lazy and not held,
and the Ext-projectivity check.  A restriction computes the restricted
module's classes and (T3), the i^* Tor family on the left, and the trace
partition of the caller's T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import HypothesisFailed
from .homology import Roster, enumerate_roster, ext1, ext1_dim, universal_extension
from .rep import (
    Representation,
    SES,
    _add_pieces,
    decompose,
    direct_sum,
    injective,
    summand_classes,
)
from .recollement import (
    RecollementContext,
    apply_functor,
    check_exactness,
    i_shriek,
    i_star,
    i_upper_star,
    j_shriek,
    j_star_lower,
    j_star_upper,
)
from .tilting import (
    TiltingCertificate,
    _certify_roster_sum,
    gen_member,
    is_tilting,
    partition_roster,
    perp_member,
)


def _roster(alg) -> Roster:
    """``enumerate_roster(alg)``, held on the algebra object and freed with it."""
    cache = alg.__dict__
    if "_roster" not in cache:
        cache["_roster"] = enumerate_roster(alg)
    return cache["_roster"]


def _images(ctx: RecollementContext, roster: Roster, name: str) -> tuple[list, dict]:
    """(images, indices) of the roster's entries under ctx's functor ``name``.

    ``name`` is "i*", "j*" or "i!".  The images depend on the split and the
    roster only, so they are built once and held on the roster, keyed by
    (ctx, name); they go with the roster.  ``indices`` maps an entry's
    index to the part roster's class indices of its image, filled on first
    use (``_image_indices``).
    """
    key = (ctx, name)
    if key not in roster._images:
        roster._images[key] = ([apply_functor(ctx, name, m) for m in roster.modules], {})
    return roster._images[key]


def _classes(roster: Roster, m: Representation) -> list[int]:
    """The roster's class index of each summand class of m, distinct.

    The classes are read off the roster when it accounts for m, and come
    from ``decompose(m)`` otherwise.
    """
    found = roster.decompose(m)
    return [roster._class_index(p) for p, _ in (decompose(m) if found is None else found)]


def _missing_class(roster: Roster, a, b) -> dict:
    """The first class of a that b lacks, else of b that a lacks; a and b are class indices.

    First means in canonical-key order.  a and b must differ.
    """
    for have, lack, missing_from in ((a, b, "glued"), (b, a, "ext_projectives")):
        missing = [roster._class(i) for i in have if i not in lack]
        if missing:
            first = min(missing, key=Representation.canonical_key)
            return {"class_dims": first.to_json()["dims"], "missing_from": missing_from}
    raise ValueError("the class lists name the same classes")


def _image_indices(ctx: RecollementContext, roster: Roster, name: str, i: int) -> tuple:
    """The part roster's class indices of the summand classes of entry i's ``name`` image."""
    images, indices = _images(ctx, roster, name)
    if i not in indices:
        part = _roster(ctx.outer_algebra if name == "j*" else ctx.inner_algebra)
        indices[i] = tuple(_classes(part, images[i]))
    return indices[i]


def _lifted_index(ctx: RecollementContext, roster: Roster, k: int) -> int:
    """The class index of j_!Y for the outer roster's class Y_k, held in ``roster._images``."""
    held = roster._images.setdefault((ctx, "j!"), {})
    if k not in held:
        held[k] = roster._class_index(j_shriek(ctx, _roster(ctx.outer_algebra)._class(k)))
    return held[k]


def _check_roster(ctx: RecollementContext, roster: Roster | None):
    """ValueError unless ``roster`` is None or a roster of ctx's whole algebra."""
    if roster is not None and roster.algebra is not ctx.algebra:
        raise ValueError("roster must be a roster of the split's whole algebra")


@dataclass(frozen=True)
class GluedPairSpec:
    """Two tilting modules to glue across ctx's recollement.

    The spec is frozen, so what it holds, computed on first read, always
    belongs to its own fields; ``dataclasses.replace`` gives a new spec
    that computes afresh.  It holds the input certificates and the
    part-roster indices of their classes.
    """
    ctx: RecollementContext
    inner_tilting: Representation      # over the inner algebra
    outer_tilting: Representation      # over the outer algebra

    def __post_init__(self):
        if self.inner_tilting.algebra is not self.ctx.inner_algebra:
            raise ValueError("inner_tilting must be a module over the inner algebra")
        if self.outer_tilting.algebra is not self.ctx.outer_algebra:
            raise ValueError("outer_tilting must be a module over the outer algebra")

    @cached_property
    def inner_certificate(self) -> TiltingCertificate:
        return is_tilting(self.inner_tilting)

    @cached_property
    def outer_certificate(self) -> TiltingCertificate:
        return is_tilting(self.outer_tilting)

    @cached_property
    def inner_indices(self) -> tuple:
        """The inner roster's class index of each class of ``inner_certificate``."""
        return tuple(map(_roster(self.ctx.inner_algebra)._class_index,
                         self.inner_certificate.classes))

    @cached_property
    def outer_indices(self) -> tuple:
        """The outer roster's class index of each class of ``outer_certificate``."""
        return tuple(map(_roster(self.ctx.outer_algebra)._class_index,
                         self.outer_certificate.classes))


def glued_membership(spec: GluedPairSpec, m: Representation) -> str:
    """Classify a module against the glued pair: torsion, free or neither.

    The zero module belongs to every class and is reported torsion.
    """
    ctx = spec.ctx
    return _glued_class(spec, i_upper_star(ctx, m), j_star_upper(ctx, m), i_shriek(ctx, m))


def _glued_class(spec: GluedPairSpec, top: Representation, outer: Representation,
                 sub: Representation) -> str:
    """``glued_membership`` of a module M given i^*M, j^*M and i^!M, by trace and Hom.

    It is the reference that the tests hold the table reads of
    ``_read_glued_class`` to.
    """
    if gen_member(spec.inner_tilting, top) and gen_member(spec.outer_tilting, outer):
        return "torsion"
    free = perp_member(spec.inner_tilting, sub) and perp_member(spec.outer_tilting, outer)
    return "free" if free else "neither"


def _read_glued_class(spec: GluedPairSpec, roster: Roster, i: int) -> str:
    """``glued_membership`` of the roster entry X_i, read off the part rosters' tables.

    The caller has certified T' and T'' tilting, so Gen T = {X : Ext^1(T, X)
    = 0} and T-perp = {X : Hom(T, X) = 0} (Brenner-Butler), and both
    conditions split over the summand classes on each side.  X_i is torsion
    when Ext^1 vanishes from every class of T' to every class of i^*X_i and
    from every class of T'' to every class of j^*X_i; free when Hom vanishes
    in the same way on i^!X_i and j^*X_i.  A class that a part roster's
    entries lack is read at its index past them.
    """
    ctx = spec.ctx
    inner, outer = _roster(ctx.inner_algebra), _roster(ctx.outer_algebra)
    t_in, t_out = spec.inner_indices, spec.outer_indices
    top, mid, sub = (_image_indices(ctx, roster, name, i) for name in ("i*", "j*", "i!"))
    if (all(inner.ext1_dim(a, b) == 0 for a in t_in for b in top)
            and all(outer.ext1_dim(a, b) == 0 for a in t_out for b in mid)):
        return "torsion"
    free = (all(inner.hom_vanishes(a, b) for a in t_in for b in sub)
            and all(outer.hom_vanishes(a, b) for a in t_out for b in mid))
    return "free" if free else "neither"


def glued_pair_is_tilting(spec: GluedPairSpec) -> bool:
    """The glued pair is tilting iff every indecomposable injective is torsion."""
    alg = spec.ctx.algebra
    return all(glued_membership(spec, injective(alg, v)) == "torsion"
               for v in alg.vertices)


@dataclass
class GlueCertificate:
    module: Representation                 # basic glued tilting module
    summands: list[Representation]
    ext_dimension: int                     # n = dim Ext^1(i_* T', j_! T'')
    universal: SES
    universal_ext_vanishes: bool           # Ext^1(M, j_! T'') = 0
    tilting: TiltingCertificate
    partition_counts: tuple
    partition_matches_glued: bool
    ext_projectives_match: bool
    # the first roster module classified differently, when the partition check fails
    partition_witness: dict | None = None
    # the first class among the Ext-projectives or the summands only, when they differ
    ext_projectives_witness: dict | None = None
    # {"ext1_dim": dim Ext^1(M, j_! T'')}, when it is not zero
    universal_ext_witness: dict | None = None

    @property
    def passed(self) -> bool:
        return (self.universal_ext_vanishes and self.tilting.tilting
                and self.partition_matches_glued and self.ext_projectives_match)

    def to_json(self):
        out = {
            "summands": [s.to_json()["dims"] for s in self.summands],
            "summand_count": len(self.summands),
            "ext_dimension": self.ext_dimension,
            "universal_ext_vanishes": self.universal_ext_vanishes,
            "tilting": self.tilting.to_json(),
            "partition_counts": list(self.partition_counts),
            "partition_matches_glued": self.partition_matches_glued,
            "ext_projectives_match": self.ext_projectives_match,
            "passed": self.passed,
        }
        if not self.partition_matches_glued:
            out["partition_witness"] = self.partition_witness
        if not self.ext_projectives_match:
            out["ext_projectives_witness"] = self.ext_projectives_witness
        if not self.universal_ext_vanishes:
            out["universal_ext_witness"] = self.universal_ext_witness
        return out


def glue_tilting(spec: GluedPairSpec, roster: Roster | None = None) -> GlueCertificate:
    """Glue two tilting modules into one over the whole algebra.

    Hypotheses checked up front: the tensor lift must be exact (Tor
    vanishing on outer simples) and both inputs must be tilting; failures
    raise HypothesisFailed naming the culprit; a Tor failure names the
    first outer simple with nonzero Tor_1 and its dimension.  The inputs'
    certificates are the spec's own, so a spec glued again certifies
    nothing.  A roster over another algebra raises ValueError.
    """
    ctx = spec.ctx
    _check_roster(ctx, roster)
    for w, dim in check_exactness(ctx).j_shriek_tor.items():
        if dim:
            raise HypothesisFailed("j_!", f"Tor_1 of the crossing bimodule has dimension {dim} "
                                          f"on the outer simple S({w})")
    inner_cert = spec.inner_certificate
    if not inner_cert.tilting:
        raise HypothesisFailed("inner tilting module",
                               f"pd={inner_cert.pd}, ext1={inner_cert.ext1_self}, "
                               f"t3={inner_cert.t3_constructive}")
    outer_cert = spec.outer_certificate
    if not outer_cert.tilting:
        raise HypothesisFailed("outer tilting module",
                               f"pd={outer_cert.pd}, ext1={outer_cert.ext1_self}, "
                               f"t3={outer_cert.t3_constructive}")

    if roster is None:
        roster = _roster(ctx.algebra)
    lifted_inner = i_star(ctx, spec.inner_tilting)
    lifted_outer = j_shriek(ctx, spec.outer_tilting)
    ext_space = ext1(lifted_inner, lifted_outer)
    ses = universal_extension(ext_space)
    middle = ses.middle
    at_middle = _classes(roster, middle)
    at_lifted = [_lifted_index(ctx, roster, k) for k in spec.outer_indices]
    # Ext^1(sum M_i, sum Y_j) is the sum of the Ext^1(M_i, Y_j); its dimension is
    # computed only when the table does not say zero
    universal_dim = 0
    if any(roster.ext1_dim(i, j) for i in at_middle for j in at_lifted):
        universal_dim = ext1_dim(middle, lifted_outer)
    universal_ok = universal_dim == 0

    at = sorted(set(at_middle + at_lifted))
    tilt_cert, part = _certify_roster_sum(roster, at)
    got = {**dict.fromkeys(part.torsion, "torsion"), **dict.fromkeys(part.free, "free"),
           **dict.fromkeys(part.neither, "neither")}
    witness = None
    for i, m in enumerate(roster.modules):
        glued_as = _read_glued_class(spec, roster, i)
        if glued_as != got[i]:
            witness = {"module_dims": m.to_json()["dims"], "glued": glued_as, "trace": got[i]}
            break
    torsion = part.torsion
    projs = [i for i in torsion if all(roster.ext1_vanishes(i, j) for j in torsion)]
    # classes compare by index: an index past the entries is no entry's
    projs_match = projs == at

    return GlueCertificate(
        module=tilt_cert.module,
        summands=tilt_cert.classes,
        ext_dimension=ext_space.dimension,
        universal=ses,
        universal_ext_vanishes=universal_ok,
        tilting=tilt_cert,
        partition_counts=part.counts(),
        partition_matches_glued=witness is None,
        ext_projectives_match=projs_match,
        partition_witness=witness,
        ext_projectives_witness=None if projs_match else _missing_class(roster, projs, at),
        universal_ext_witness=None if universal_ok else {"ext1_dim": universal_dim},
    )


# -- restriction ----------------------------------------------------------------


@dataclass
class RestrictionResult:
    side: str
    module: Representation
    summands: list[Representation]
    tilting: TiltingCertificate | None
    tilting_verified: bool
    hypotheses: dict
    partition_equal: bool | None
    restricted_classes: tuple | None = None

    def to_json(self):
        return {
            "side": self.side,
            "summands": [s.to_json()["dims"] for s in self.summands],
            "tilting": None if self.tilting is None else self.tilting.to_json(),
            "tilting_verified": self.tilting_verified,
            "hypotheses": self.hypotheses,
            "partition_equal": self.partition_equal,
        }


def _restrict(ctx: RecollementContext, t: Representation, roster: Roster | None,
              side: str) -> RestrictionResult:
    """The body of ``restrict_left`` (side "left") and ``restrict_right`` ("right").

    T and the torsion modules go through the side's restriction, i^* or
    j^*; the free modules through i^! or j^*.  T's roster is partitioned
    once.  The right side reports the closure of both classes under
    j_* j^*; the left side reports the exactness of i^*, and certifies
    nothing when i^* is inexact.  ``partition_equal`` says whether the
    restricted classes are the torsion pair that the restricted module
    induces on its own algebra's roster, with no module outside both.
    """
    _check_roster(ctx, roster)
    left = side == "left"
    image = (i_upper_star if left else j_star_upper)(ctx, t)
    alg = ctx.inner_algebra if left else ctx.outer_algebra
    if left:
        exact = check_exactness(ctx)
        hyp = {"i_upper_star_exact": exact.i_upper_star_exact,
               "tor1_on_simples": dict(exact.i_upper_star_tor)}
        if not exact.i_upper_star_exact:
            # no roster of the part is built for a verdict that reads none
            summands = summand_classes([image])
            return RestrictionResult(side, direct_sum(alg, summands), summands,
                                     None, False, hyp, None)
    own = _roster(alg)
    cert, induced = _certify_roster_sum(own, sorted(_classes(own, image)))
    if roster is None:
        roster = _roster(ctx.algebra)
    part = partition_roster(t, roster)
    if not left:
        hyp = {"torsion_closed": True, "torsion_witness": None,
               "free_closed": True, "free_witness": None,
               "j_star_lower_exact": True}
        mods = roster.modules
        for name, picked in (("free", part.free), ("torsion", part.torsion)):
            cls = [mods[i] for i in picked]
            for m in cls:
                back = j_star_lower(ctx, j_star_upper(ctx, m))
                if _add_pieces(back, cls, lambda k: roster.unit_rank(picked[k])) is None:
                    hyp[f"{name}_closed"] = False
                    hyp[f"{name}_witness"] = back.to_json()["dims"]
                    break
        hyp["holds"] = hyp["torsion_closed"] and hyp["free_closed"]
    tname, fname = ("i*", "i!") if left else ("j*", "j*")
    # the part roster's class indices of the images of the torsion and the free entries
    held = [{k for i in picked for k in _image_indices(ctx, roster, name, i)}
            for name, picked in ((tname, part.torsion), (fname, part.free))]
    equal = not induced.neither and held == [set(induced.torsion), set(induced.free)]
    restricted = tuple(sorted(map(own._class, ks), key=Representation.canonical_key)
                       for ks in held)
    return RestrictionResult(side, cert.module, cert.classes, cert, True, hyp, equal,
                             restricted)


def restrict_right(ctx: RecollementContext, t: Representation,
                   roster: Roster | None = None) -> RestrictionResult:
    """j^*(T) in basic form; tilting-ness holds without any hypothesis.

    The partition equality with (Gen j^*T, perp) is certified only when
    the closure hypotheses hold; its verdict is reported either way.
    """
    return _restrict(ctx, t, roster, "right")


def restrict_left(ctx: RecollementContext, t: Representation,
                  roster: Roster | None = None) -> RestrictionResult:
    """i^*(T) in basic form; certified tilting only when i^* is exact.

    When i^* is inexact no exception is raised: the module is returned
    with its tilting-ness flagged unverified.
    """
    return _restrict(ctx, t, roster, "left")
