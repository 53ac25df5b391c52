"""The three benchmark workloads: seeded inputs, verdicts and their checks.

A *verdict* is one call into ``rectilt`` that returns a certificate or
raises an expected :class:`HypothesisFailed`.  Each workload turns its
seed into plain data first (interval lists, quiver orientations, an
order), builds the library objects from that data, and hands the library
nothing else.  Verdicts come in *units* (a pass, a block or a round)
with a fixed composition, so a run of whole units always measures the
same mix whatever the seed or the machine speed.

Every check compares against :mod:`reference`, which never calls
``rectilt``.  Timed calls go through the module attributes
(``gluing.glue_tilting``), so the outside tracer sees them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

import reference as ref
from rectilt import algebra, gluing, homology, tilting
from rectilt.algebra import Quiver, Relation, build_algebra
from rectilt.errors import HypothesisFailed
from rectilt.gluing import GluedPairSpec
from rectilt.linalg import Mat
from rectilt.recollement import split_context
from rectilt.rep import Representation, direct_sum, projective, simple


@dataclass
class Verdict:
    kind: str                                # what is asked, e.g. "glue_case2"
    call: Callable[[], object]               # the timed call into rectilt
    check: Callable[[object], bool]          # result -> agrees with the reference
    culprit: str | None = None               # expected HypothesisFailed culprit


# -- paper_cases ------------------------------------------------------------------

OUTER = ["3", "4", "5"]

GLUED_SPEC = {
    "vertices": ["1", "2", "3", "4", "5"],
    "arrows": [("delta", "1", "2"), ("gamma", "4", "2"), ("epsilon", "3", "1"),
               ("alpha", "3", "4"), ("beta", "4", "5")],
    "relations": [[(1, ("alpha", "gamma")), (-1, ("epsilon", "delta"))],
                  [(1, ("alpha", "beta"))]],
}

PRODUCT_SPEC = {
    "vertices": ["1", "2", "3", "4", "5"],
    "arrows": [("a", "1", "2"), ("alpha", "3", "4"), ("beta", "4", "5")],
    "relations": [[(1, ("alpha", "beta"))]],
}

MUTATED_SPEC = {
    "vertices": ["1", "2", "3", "4", "5"],
    "arrows": [("a", "1", "2"), ("alpha", "3", "4"), ("beta", "4", "5"), ("c", "4", "1")],
    "relations": [[(1, ("alpha", "beta"))], [(1, ("alpha", "c"))]],
}


def _algebra(spec):
    return build_algebra(Quiver(spec["vertices"], spec["arrows"]),
                         [Relation(terms) for terms in spec["relations"]], 10)


def _dims(mods):
    return {m.dim_vector() for m in mods}


def _sorted_dims(mods):
    return sorted(m.dim_vector() for m in mods)


def _standard_pair(ctx) -> GluedPairSpec:
    """P(1) + S(1) over the inner algebra with the regular outer module."""
    inn, out = ctx.inner_algebra, ctx.outer_algebra
    return GluedPairSpec(ctx, direct_sum(inn, [projective(inn, "1"), simple(inn, "1")]),
                         direct_sum(out, [projective(out, v) for v in OUTER]))


class PaperCases:
    """The worked example: glue cases 1-2, restriction cases 3-4, product, mutated."""

    name = "paper_cases"
    tail_quantile = 7 / 12

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        glued = _algebra(GLUED_SPEC)
        ctx = split_context(glued, OUTER)
        self.roster = homology.enumerate_roster(glued)
        self.case1 = _standard_pair(ctx)
        out = ctx.outer_algebra
        self.case2 = GluedPairSpec(ctx, self.case1.inner_tilting, direct_sum(
            out, [projective(out, "3"), projective(out, "4"), simple(out, "4")]))
        by_dims = {m.dim_vector(): m for m in self.roster.modules}
        self.t_case3 = direct_sum(glued, [by_dims[d] for d in ref.CASE3_PICK])
        self.t_case4 = direct_sum(glued, [by_dims[d] for d in ref.CASE4_PICK])
        self.product = _standard_pair(split_context(_algebra(PRODUCT_SPEC), OUTER))
        self.mutated = _standard_pair(split_context(_algebra(MUTATED_SPEC), OUTER))

    def verdicts(self) -> list[Verdict]:
        ctx, roster = self.case1.ctx, self.roster
        return [
            Verdict("glue_case1", lambda: gluing.glue_tilting(self.case1, roster),
                    lambda c: _glue_ok(c, ref.GLUE_CASE1)),
            Verdict("glue_case2", lambda: gluing.glue_tilting(self.case2, roster),
                    lambda c: _glue_ok(c, ref.GLUE_CASE2)),
            Verdict("restrict_case3", lambda: gluing.restrict_right(ctx, self.t_case3, roster),
                    lambda r: _restrict_ok(r, ref.RESTRICT_CASE3)),
            Verdict("restrict_case4", lambda: gluing.restrict_right(ctx, self.t_case4, roster),
                    lambda r: _restrict_ok(r, ref.RESTRICT_CASE4)),
            Verdict("product_glue_restrict_left", self._product, _product_ok),
            Verdict("mutated_glue", lambda: gluing.glue_tilting(self.mutated),
                    lambda _: False, culprit=ref.MUTATED_CULPRIT),
        ]

    def _product(self):
        cert = gluing.glue_tilting(self.product)
        return cert, gluing.restrict_left(self.product.ctx, cert.module)

    def units(self):
        """One pass over all six verdicts per unit, in a seeded order."""
        while True:
            unit = self.verdicts()
            self.rng.shuffle(unit)
            yield unit


def _glue_ok(cert, want) -> bool:
    return (cert.ext_dimension == want["ext_dimension"]
            and _dims(cert.summands) == want["summands"]
            and tuple(cert.partition_counts) == want["partition_counts"]
            and cert.tilting.tilting and cert.passed)


def _restrict_ok(res, want) -> bool:
    tclass, fclass = res.restricted_classes
    ok = (_dims(res.summands) == want["summands"]
          and res.tilting is not None and res.tilting.tilting
          and res.hypotheses["holds"] == want["holds"]
          and res.hypotheses["free_witness"] == want["free_witness"]
          and res.partition_equal == want["partition_equal"]
          and _sorted_dims(fclass) == want["free_class"])
    if "torsion_class" in want:
        ok = ok and _sorted_dims(tclass) == want["torsion_class"]
    return ok


def _product_ok(result) -> bool:
    cert, res = result
    return (cert.ext_dimension == ref.PRODUCT_GLUE["ext_dimension"] and cert.passed
            and res.tilting_verified and res.tilting is not None and res.tilting.tilting
            and _dims(res.summands) == ref.PRODUCT_GLUE["inner_summands"]
            and res.partition_equal is True)


# -- tilting_type_a -------------------------------------------------------------------


def linear_algebra(n: int):
    """Linear A_n: 1 -> 2 -> ... -> n, arrow ``a<k>`` from k to k + 1."""
    q = Quiver([str(v) for v in range(1, n + 1)],
               [(f"a{k}", str(k), str(k + 1)) for k in range(1, n)])
    return build_algebra(q, [])


def interval_module(alg, n: int, iv) -> Representation:
    a, b = iv
    dims = {str(v): 1 if a <= v <= b else 0 for v in range(1, n + 1)}
    return Representation(alg, dims, {f"a{k}": Mat.identity(1) for k in range(a, b)})


# A_5 anchors: the injectives D(A) (tilting) and P1 + P2 + I3 + I4, which
# has Ext^1(I3, P2) != 0 and only four summands.
A5_ANCHORS = (((1, 1), (1, 2), (1, 3), (1, 4), (1, 5)),
              ((1, 3), (1, 4), (1, 5), (2, 5)))


class TiltingTypeA:
    """is_tilting on sums of interval modules over linear A_4 and A_5.

    A block holds every tilting module of A_4 (14), twelve seeded
    non-tilting A_4 candidates and the two A_5 anchors, in a seeded
    order: 15 tilting and 13 not.

    The cost of a verdict follows the total dimension of the module (a
    non-tilting A_4 sum of dimension 5 takes ~20 ms, one of dimension 11
    ~300 ms), so each block draws one negative of each dimension in
    ``NEGATIVE_DIMS``, and every block costs about the same whatever the
    seed.  Those negatives all cost less than the cheapest tilting
    modules (~150 ms), and with twelve of them the median verdict falls in
    the middle of those, not at the edge of a gap.  The A_5
    candidates are fixed: one A_5 verdict costs anywhere from 0.1 s to
    3 s, so a seeded draw of a few would swamp every other difference
    between runs.
    """

    name = "tilting_type_a"
    tail_quantile = 0.8
    NEGATIVE_DIMS = (5, 6, 6, 7, 7, 7, 8, 8, 8, 8, 8, 9)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.algebras = {n: linear_algebra(n) for n in (4, 5)}
        self.positives = ref.linear_tilting_modules(4)
        self.negatives_by_dim: dict[int, list] = {}
        for s in ref.linear_non_tilting(4):
            self.negatives_by_dim.setdefault(sum(b - a + 1 for a, b in s), []).append(s)

    def block_specs(self) -> list[tuple[int, tuple]]:
        """(n, intervals) for one block, in verdict order."""
        specs = [(4, s) for s in self.positives]
        for dim in sorted(set(self.NEGATIVE_DIMS)):
            k = self.NEGATIVE_DIMS.count(dim)
            specs += [(4, s) for s in self.rng.sample(self.negatives_by_dim[dim], k)]
        specs += [(5, s) for s in A5_ANCHORS]
        self.rng.shuffle(specs)
        return specs

    def units(self):
        while True:
            yield [tilting_verdict(self.algebras[n], n, s) for n, s in self.block_specs()]


def tilting_verdict(alg, n: int, summands) -> Verdict:
    """is_tilting on the sum of the given intervals of linear A_n."""
    t = direct_sum(alg, [interval_module(alg, n, iv) for iv in summands])
    want = ref.linear_verdict(n, summands)
    return Verdict(f"A{n}_{'tilting' if want['tilting'] else 'non_tilting'}",
                   lambda: tilting.is_tilting(t), lambda c: _tilting_ok(c, want))


def _tilting_ok(cert, want) -> bool:
    return (cert.tilting == want["tilting"] and cert.pd == want["pd"]
            and cert.ext1_self == want["ext1_self"]
            and cert.indecomposable_count == want["indecomposable_count"])


# -- ar_roster -------------------------------------------------------------------------

# (n, number of indecomposables): the verdict's cost follows both
ROSTER_PROFILE = ((6, 15), (7, 20), (8, 26), (9, 28), (10, 35))
SPEC_DRAW_CAP = 10_000


def type_a_spec(rng: random.Random, n: int) -> dict:
    """A type A quiver on 1..n with random orientation and length-2 zero relations.

    ``forward[k - 1]`` says arrow ``x<k>`` runs k -> k + 1.  Each pair of
    consecutive arrows that compose becomes a zero relation with
    probability one half.
    """
    forward = [rng.random() < 0.5 for _ in range(n - 1)]
    relations = [(k, k + 1) for k in range(1, n - 1)
                 if forward[k - 1] == forward[k] and rng.random() < 0.5]
    return {"n": n, "forward": forward, "relations": relations}


def type_a_spec_with(rng: random.Random, n: int, modules: int) -> dict:
    """A :func:`type_a_spec` drawn until it has ``modules`` indecomposables."""
    for _ in range(SPEC_DRAW_CAP):
        spec = type_a_spec(rng, n)
        if len(ref.roster_dim_vectors(n, spec["relations"])) == modules:
            return spec
    raise RuntimeError(f"no type A_{n} spec with {modules} indecomposables "
                       f"in {SPEC_DRAW_CAP} draws")


def type_a_algebra_inputs(spec):
    """Quiver and relations for a :func:`type_a_spec`."""
    n, forward = spec["n"], spec["forward"]
    arrows = [(f"x{k}", str(k), str(k + 1)) if forward[k - 1] else
              (f"x{k}", str(k + 1), str(k)) for k in range(1, n)]
    relations = []
    for k, k1 in spec["relations"]:
        path = (f"x{k}", f"x{k1}") if forward[k - 1] else (f"x{k1}", f"x{k}")
        relations.append(Relation([(1, path)]))
    return Quiver([str(v) for v in range(1, n + 1)], arrows), relations


class ArRoster:
    """build_algebra + enumerate_roster on a fresh seeded type A quiver per verdict.

    A round holds one random quiver per entry of ``ROSTER_PROFILE``, in a
    seeded order.  Orientation and relations are random, but each quiver
    is drawn with a fixed number of indecomposables for its size, so
    every round costs about the same whatever the seed.
    """

    name = "ar_roster"
    tail_quantile = 0.9

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def round_specs(self) -> list[dict]:
        profile = list(ROSTER_PROFILE)
        self.rng.shuffle(profile)
        return [type_a_spec_with(self.rng, n, m) for n, m in profile]

    @staticmethod
    def verdict(spec) -> Verdict:
        quiver, relations = type_a_algebra_inputs(spec)
        want = ref.roster_dim_vectors(spec["n"], spec["relations"])

        def call():
            return homology.enumerate_roster(algebra.build_algebra(quiver, relations))

        return Verdict(f"roster_n{spec['n']}", call,
                       lambda r: _sorted_dims(r.modules) == want)

    def units(self):
        while True:
            yield [self.verdict(spec) for spec in self.round_specs()]


WORKLOADS = {w.name: w for w in (PaperCases, TiltingTypeA, ArRoster)}


def run_verdict(v: Verdict) -> tuple[int, int, bool, object]:
    """(start_ns, end_ns, agrees_with_reference, result) for one verdict.

    Only the call is timed, with ``time.perf_counter_ns``.  An unexpected
    exception, a wrong culprit or a result the reference rejects all
    count as a failed verdict.
    """
    begin = time.perf_counter_ns()
    try:
        result = v.call()
    except HypothesisFailed as exc:
        end = time.perf_counter_ns()
        return begin, end, exc.culprit == v.culprit, {"hypothesis_failed": exc.culprit}
    except Exception as exc:  # noqa: BLE001 - any other error is a failed verdict
        return begin, time.perf_counter_ns(), False, {"error": repr(exc)}
    end = time.perf_counter_ns()
    try:
        ok = v.culprit is None and bool(v.check(result))
    except Exception:  # noqa: BLE001 - a result the check cannot read is wrong
        ok = False
    return begin, end, ok, result
