"""Bound quiver algebras: path bases, multiplication, opposites.

A path is stored as its arrow names in application order (first applied
first).  The one composition convention everything else derives from:

    COMPOSITION: the product x * y means "apply y, then x".

So for arrows alpha: i -> j and beta: j -> k the product written
``beta * alpha`` is the path i -> k, and a stored path ``(alpha, beta)``
denotes that same product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, RectiltError, RelationIllFormed
from .linalg import Mat, _exact, format_fraction, parse_fraction, rref

DEFAULT_LENGTH_CAP = 30

_ASSOC_CHECK_MAX_DIM = 80


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A path of the quiver: source vertex plus arrows in application order."""

    source: str
    arrows: tuple[str, ...]

    def __len__(self):
        return len(self.arrows)


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.arrows = tuple(Arrow(str(n), str(s), str(t)) for n, s, t in arrows)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        if set(names) & set(self.vertices):
            raise ValueError("arrow names must differ from vertex labels")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name} has undeclared endpoint")
        self._arrow_by_name = {a.name: a for a in self.arrows}

    def arrow(self, name: str) -> Arrow:
        return self._arrow_by_name[name]

    def path_target(self, path: Path) -> str:
        t = path.source
        for name in path.arrows:
            a = self._arrow_by_name[name]
            if a.source != t:
                raise ValueError(f"path {path.arrows} is not composable at {name}")
            t = a.target
        return t

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])


class Relation:
    """A parallel linear combination of paths, each of length >= 2."""

    def __init__(self, terms):
        self.terms = tuple((_exact(c), tuple(p)) for c, p in terms)
        if not self.terms:
            raise RelationIllFormed("empty relation")

    def validate(self, quiver: Quiver):
        src = tgt = None
        for coeff, arrows in self.terms:
            if coeff == 0:
                raise RelationIllFormed("zero coefficient in relation")
            if len(arrows) < 2:
                raise RelationIllFormed("relation term of length < 2")
            try:
                s = quiver.arrow(arrows[0]).source
                t = quiver.path_target(Path(s, arrows))
            except (KeyError, ValueError) as exc:
                raise RelationIllFormed(str(exc)) from exc
            if src is None:
                src, tgt = s, t
            elif (s, t) != (src, tgt):
                raise RelationIllFormed("relation terms are not parallel")
        return src, tgt

    def reversed(self) -> "Relation":
        return Relation([(c, tuple(reversed(p))) for c, p in self.terms])

    def to_json(self):
        return [{"coeff": format_fraction(c), "path": list(p)} for c, p in self.terms]

    @classmethod
    def from_json(cls, data) -> "Relation":
        return cls([(parse_fraction(t["coeff"]), tuple(t["path"])) for t in data])


class BoundQuiverAlgebra:
    """A finite-dimensional quotient of a path algebra.

    Built by :func:`build_algebra`; immutable afterwards.  The basis is
    a list of normal-form paths; ``mult_table[i][j]`` expands the
    product basis[i] * basis[j] over the basis.
    """

    def __init__(self, quiver, relations, basis, reduce_table, length_cap, max_len):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.basis = tuple(basis)
        self.dimension = len(basis)
        self.length_cap = length_cap
        self._max_len = max_len
        self._reduce = reduce_table  # (source, arrows) -> {basis index: coeff}
        self._index = {(p.source, p.arrows): i for i, p in enumerate(self.basis)}
        self._targets = [quiver.path_target(p) for p in self.basis]
        self._between: dict[tuple[str, str], tuple[int, ...]] = {}
        self._mult: dict[tuple[int, int], dict[int, Fraction]] = {}
        self._opposite: BoundQuiverAlgebra | None = None
        self._build_mult_table()
        self._check_relations_vanish()
        if self.dimension <= _ASSOC_CHECK_MAX_DIM:
            self._check_associative()

    # -- bookkeeping ---------------------------------------------------

    @property
    def vertices(self):
        return self.quiver.vertices

    @property
    def arrows(self):
        return self.quiver.arrows

    def basis_target(self, i: int) -> str:
        return self._targets[i]

    def trivial_index(self, v: str) -> int:
        return self._index[(v, ())]

    def arrow_index(self, name: str) -> int:
        """Basis index of an arrow; relations have length >= 2, so it survives."""
        return self._index[(self.quiver.arrow(name).source, (name,))]

    def paths_between(self, src: str, tgt: str) -> tuple[int, ...]:
        """Basis indices of the paths src -> tgt, in basis order.

        Memoized per (src, tgt): the algebra is immutable, and a tuple
        keeps callers from changing the cached answer.
        """
        key = (src, tgt)
        if key not in self._between:
            self._between[key] = tuple(i for i, p in enumerate(self.basis)
                                       if p.source == src and self._targets[i] == tgt)
        return self._between[key]

    def path_class(self, path: Path) -> dict[int, Fraction]:
        """Expand an arbitrary quiver path over the basis."""
        key = (path.source, path.arrows)
        if key in self._reduce:
            return dict(self._reduce[key])
        if len(path.arrows) <= self._max_len:
            raise ValueError(f"unknown path {path}")
        return {}  # beyond max_len everything lies in the ideal

    # -- multiplication -------------------------------------------------

    def _build_mult_table(self):
        for i, p in enumerate(self.basis):
            for j, q in enumerate(self.basis):
                if self._targets[j] != p.source:
                    continue
                prod = Path(q.source, q.arrows + p.arrows)
                self._mult[(i, j)] = self.path_class(prod)

    def multiply_basis(self, i: int, j: int) -> dict[int, Fraction]:
        return dict(self._mult.get((i, j), {}))

    def multiply(self, x: dict[int, Fraction], y: dict[int, Fraction]) -> dict[int, Fraction]:
        """Bilinear extension of the structure constants: x * y = "y then x"."""
        out: dict[int, Fraction] = {}
        for i, ci in x.items():
            if ci == 0:
                continue
            for j, cj in y.items():
                if cj == 0:
                    continue
                tab = self._mult.get((i, j))
                if not tab:
                    continue
                c = ci * cj
                for k, ck in tab.items():
                    out[k] = out.get(k, Fraction(0)) + c * ck
        return {k: v for k, v in out.items() if v != 0}

    def unit(self) -> dict[int, Fraction]:
        return {self.trivial_index(v): Fraction(1) for v in self.vertices}

    def _check_relations_vanish(self):
        for rel in self.relations:
            acc: dict[int, Fraction] = {}
            for coeff, arrows in rel.terms:
                src = self.quiver.arrow(arrows[0]).source
                for k, v in self.path_class(Path(src, arrows)).items():
                    acc[k] = acc.get(k, Fraction(0)) + coeff * v
            if any(v != 0 for v in acc.values()):
                raise RelationIllFormed("relation does not vanish after reduction")

    def _check_associative(self):
        """(x * y) * z == x * (y * z) for all basis triples x, y, z.

        A product of basis paths is zero unless they compose, so only the
        triples with (x, y) a key of the table and z ending where y
        starts are checked; every other triple is zero on both sides.
        The table is built in (x, y) order, so the triple named on failure
        is the first one in lexicographic order.
        """
        ending_at: dict[str, list[int]] = {v: [] for v in self.vertices}
        for k, t in enumerate(self._targets):
            ending_at[t].append(k)
        for (i, j), ij in self._mult.items():
            for k in ending_at[self.basis[j].source]:
                jk = self._mult.get((j, k))
                left: dict[int, Fraction] = {}
                for t, c in ij.items():
                    for u, cu in self._mult.get((t, k), {}).items():
                        left[u] = left.get(u, Fraction(0)) + c * cu
                right: dict[int, Fraction] = {}
                if jk:
                    for t, c in jk.items():
                        for u, cu in self._mult.get((i, t), {}).items():
                            right[u] = right.get(u, Fraction(0)) + c * cu
                diff = {u: left.get(u, Fraction(0)) - right.get(u, Fraction(0))
                        for u in set(left) | set(right)}
                if any(v != 0 for v in diff.values()):
                    raise RectiltError(f"product table not associative at ({i},{j},{k})")

    # -- opposite --------------------------------------------------------

    def opposite(self) -> "BoundQuiverAlgebra":
        """Arrows reversed, relation paths reversed; dimension preserved."""
        if self._opposite is None:
            opp = build_algebra(self.quiver.opposite(),
                                [r.reversed() for r in self.relations],
                                self.length_cap)
            if opp.dimension != self.dimension:
                raise RelationIllFormed("opposite algebra has different dimension")
            opp._opposite = self
            self._opposite = opp
        return self._opposite

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [{"name": a.name, "source": a.source, "target": a.target}
                       for a in self.arrows],
            "relations": [r.to_json() for r in self.relations],
        }

    def rename_arrows(self, mapping: dict[str, str]) -> "BoundQuiverAlgebra":
        quiver = Quiver(self.vertices,
                        [(mapping.get(a.name, a.name), a.source, a.target) for a in self.arrows])
        rels = [Relation([(c, tuple(mapping.get(n, n) for n in p)) for c, p in r.terms])
                for r in self.relations]
        return build_algebra(quiver, rels, self.length_cap)


def build_algebra(quiver: Quiver, relations, length_cap: int = DEFAULT_LENGTH_CAP) -> BoundQuiverAlgebra:
    """Construct the bound quiver algebra with basis of normal-form paths.

    Enumerates all paths of length <= ``length_cap`` (stopping earlier if
    the quiver runs out of paths), spans the two-sided ideal by all
    products u * r * v of relation generators with paths, and reduces.
    Raises :class:`CapExceeded` if a path of length exactly
    ``length_cap`` survives, i.e. finite-dimensionality is unverified.
    """
    if length_cap < 1:
        raise ValueError("length_cap must be >= 1")
    relations = list(relations)
    for rel in relations:
        rel.validate(quiver)

    # paths by length, in deterministic enumeration order
    by_length: list[list[Path]] = [[Path(v, ()) for v in quiver.vertices]]
    while len(by_length) - 1 < length_cap:
        prev = by_length[-1]
        nxt = [Path(p.source, p.arrows + (a.name,))
               for p in prev for a in quiver.arrows
               if a.source == quiver.path_target(p)]
        if not nxt:
            break
        by_length.append(nxt)
    max_len = len(by_length) - 1
    all_paths = [p for level in by_length for p in level]
    col_of = {(p.source, p.arrows): i for i, p in enumerate(all_paths)}
    ncols = len(all_paths)

    # ideal generators u * r * v, all terms within the enumerated range
    gen_rows = []
    ends_at: dict[str, list[Path]] = {v: [] for v in quiver.vertices}
    starts_at: dict[str, list[Path]] = {v: [] for v in quiver.vertices}
    for p in all_paths:
        ends_at[quiver.path_target(p)].append(p)
        starts_at[p.source].append(p)
    for rel in relations:
        src, tgt = rel.validate(quiver)
        min_term = min(len(p) for _, p in rel.terms)
        max_term = max(len(p) for _, p in rel.terms)
        for v_path in ends_at[src]:
            if len(v_path) + min_term > max_len:
                continue
            for u_path in starts_at[tgt]:
                if len(v_path) + max_term + len(u_path) > max_len:
                    continue
                row = [Fraction(0)] * ncols
                for coeff, arrows in rel.terms:
                    full = (v_path.source, v_path.arrows + arrows + u_path.arrows)
                    row[col_of[full]] += coeff
                if any(x != 0 for x in row):
                    gen_rows.append(row)

    if gen_rows:
        reduced, pivots = rref(Mat.from_rows(gen_rows))
    else:
        reduced, pivots = Mat.zeros(0, ncols), []
    pivot_set = set(pivots)

    basis_cols = [i for i in range(ncols) if i not in pivot_set]
    basis = [all_paths[i] for i in basis_cols]
    new_index = {c: k for k, c in enumerate(basis_cols)}

    if max_len == length_cap and any(len(p) == length_cap for p in basis):
        raise CapExceeded(
            f"a path class of length {length_cap} survives reduction; "
            "raise length_cap or fix the relations")

    reduce_table: dict[tuple[str, tuple[str, ...]], dict[int, Fraction]] = {}
    for k, c in enumerate(basis_cols):
        p = all_paths[c]
        reduce_table[(p.source, p.arrows)] = {k: Fraction(1)}
    for r, c in enumerate(pivots):
        p = all_paths[c]
        expansion = {new_index[j]: -reduced.entries[r][j]
                     for j in range(ncols)
                     if j not in pivot_set and reduced.entries[r][j] != 0}
        reduce_table[(p.source, p.arrows)] = expansion

    return BoundQuiverAlgebra(quiver, relations, basis, reduce_table, length_cap, max_len)


# -- JSON round trip ----------------------------------------------------


def algebra_from_json(data, length_cap: int | None = None) -> BoundQuiverAlgebra:
    quiver = Quiver(data["vertices"],
                    [(a["name"], a["source"], a["target"]) for a in data["arrows"]])
    rels = [Relation.from_json(r) for r in data.get("relations", [])]
    cap = length_cap if length_cap is not None else data.get("length_cap", DEFAULT_LENGTH_CAP)
    return build_algebra(quiver, rels, cap)
