"""The bundled regression corpus: algebras, named modules and rosters.

Everything is generated programmatically so the files regenerate
byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import Quiver, Relation, build_algebra
from .gluing import GluedPairSpec, glue_tilting
from .homology import enumerate_roster
from .recollement import split_context
from .rep import Representation, direct_sum, projective, simple


def inner_algebra():
    """The two-vertex inner slice: 1 -> 2."""
    return build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [], 10)


def outer_algebra():
    """The bound three-vertex outer slice: 3 -> 4 -> 5, second arrow kills the first."""
    q = Quiver(["3", "4", "5"], [("alpha", "3", "4"), ("beta", "4", "5")])
    return build_algebra(q, [Relation([(1, ("alpha", "beta"))])], 10)


def glued_algebra():
    """The 11-dimensional triangular glue with crossing arrows gamma, epsilon."""
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("delta", "1", "2"), ("gamma", "4", "2"), ("epsilon", "3", "1"),
         ("alpha", "3", "4"), ("beta", "4", "5")],
    )
    rels = [
        Relation([(1, ("alpha", "gamma")), (-1, ("epsilon", "delta"))]),
        Relation([(1, ("alpha", "beta"))]),
    ]
    return build_algebra(q, rels, 10)


def product_algebra():
    """The disjoint union of the slices: the zero-bimodule split."""
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("a", "1", "2"), ("alpha", "3", "4"), ("beta", "4", "5")],
    )
    return build_algebra(q, [Relation([(1, ("alpha", "beta"))])], 10)


def mutated_algebra():
    """Product plus a crossing arrow killed by the inner slice: j_! is inexact."""
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("a", "1", "2"), ("alpha", "3", "4"), ("beta", "4", "5"),
         ("c", "4", "1")],
    )
    rels = [Relation([(1, ("alpha", "beta"))]), Relation([(1, ("alpha", "c"))])]
    return build_algebra(q, rels, 10)


def _by_dims(roster, dims):
    for m in roster.modules:
        if m.dim_vector() == dims:
            return m
    raise LookupError(f"no roster module with dimension vector {dims}")


def corpus():
    """All fixture objects, keyed the way the files are named."""
    glued = glued_algebra()
    ctx = split_context(glued, ["3", "4", "5"])
    roster = enumerate_roster(glued)
    inn, out = ctx.inner_algebra, ctx.outer_algebra

    t_inner = direct_sum(inn, [projective(inn, "1"), simple(inn, "1")])
    t_outer1 = direct_sum(out, [projective(out, v) for v in ("3", "4", "5")])
    t_outer2 = direct_sum(out, [projective(out, "3"), projective(out, "4"),
                                simple(out, "4")])
    cert1 = glue_tilting(GluedPairSpec(ctx, t_inner, t_outer1), roster)
    cert2 = glue_tilting(GluedPairSpec(ctx, t_inner, t_outer2), roster)
    t_case3 = direct_sum(glued, [
        _by_dims(roster, d) for d in
        [(0, 1, 0, 1, 0), (1, 1, 0, 1, 1), (0, 0, 0, 1, 1),
         (1, 1, 0, 1, 0), (1, 1, 1, 1, 0)]])
    t_case4 = direct_sum(glued, [
        _by_dims(roster, d) for d in
        [(0, 1, 0, 1, 0), (0, 1, 0, 1, 1), (1, 1, 0, 1, 1),
         (0, 0, 0, 1, 1), (1, 1, 1, 1, 0)]])

    product = product_algebra()
    pctx = split_context(product, ["3", "4", "5"])
    pin, pout = pctx.inner_algebra, pctx.outer_algebra
    product_t_inner = direct_sum(pin, [projective(pin, "1"), simple(pin, "1")])
    product_t_outer = direct_sum(pout, [projective(pout, v) for v in ("3", "4", "5")])

    return {
        "algebras": {
            "lambda": glued,
            "lambda_inner": inn,
            "inner": inner_algebra(),
            "outer": outer_algebra(),
            "product": product,
            "mutated": mutated_algebra(),
        },
        "ctx": ctx,
        "roster": roster,
        "modules": {
            "T_inner": t_inner,
            "T_outer_case1": t_outer1,
            "T_outer_case2": t_outer2,
            "T_case1": cert1.module,
            "T_case2": cert2.module,
            "T_case3": t_case3,
            "T_case4": t_case4,
            "product_T_inner": product_t_inner,
            "product_T_outer": product_t_outer,
        },
    }


def _dump(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_corpus(directory) -> list[str]:
    """Write algebra, module and roster files; returns the paths written."""
    directory = Path(directory)
    data = corpus()
    written = []
    files = []
    for name, alg in data["algebras"].items():
        path = directory / f"{name}.json"
        _dump(path, alg.to_json())
        written.append(str(path))
        files.append((path.name, alg.to_json()))
    for name, mod in data["modules"].items():
        # label each module with the first algebra file that describes its algebra
        own = mod.algebra.to_json()
        label = next((f for f, alg in files if alg == own), None)
        if label is None:
            raise LookupError(f"no algebra file describes the algebra of {name}")
        payload = {"algebra": label, **mod.to_json()}
        path = directory / "modules" / f"{name}.json"
        _dump(path, payload)
        written.append(str(path))
    for name, alg in (("lambda", data["algebras"]["lambda"]),
                      ("inner", data["algebras"]["inner"]),
                      ("outer", data["algebras"]["outer"])):
        roster = data["roster"] if name == "lambda" else enumerate_roster(alg)
        path = directory / f"roster_{name}.json"
        _dump(path, roster.to_json())
        written.append(str(path))
    return written

