"""An outside tracer: spans around every public ``rectilt`` function.

Nothing inside the library changes.  :meth:`Tracer.install` replaces
each public function of the seven layers in *every* ``rectilt.*``
namespace that binds it (``from .rep import hom_basis`` copies the
binding, so patching the defining module alone would miss calls), plus
``Mat.__init__`` as ``linalg.mat_new`` and the elimination kernel
``reduce_rows`` of whichever backend is loaded.  :meth:`Tracer.uninstall`
puts every original back.

Spans stay in memory as columns (name, start, end, parent, verdict) and
are written out once, when the run ends.  Self time is derived from them
afterwards: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

LAYERS = ("linalg", "algebra", "rep", "homology", "tilting", "recollement", "gluing")

# defining module -> layer; the elimination kernels belong to linalg
_MODULE_LAYER = {f"rectilt.{name}": name for name in LAYERS}
_KERNEL_MODULES = ("rectilt._rowred_py", "rectilt._rowred_c")

_MARK = "__perfbench_wrapper__"

COUNTERS = ("linalg.mat_new.cells", "linalg.rref.cells", "linalg.solve.cells",
            "linalg.kernel_basis.cells", "linalg.quotient.cells", "rep.hom_basis.unknowns",
            "rep.split_off_summand.hits", "rep.is_isomorphic.hits", "rep.projective.repeats")
_NO_PARENT = -1


class Tracer:
    """Records spans and size/outcome counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.verdict = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")        # 1 when the same function is already open
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.verdict_id = -1
        self._stack = [_NO_PARENT]
        self._open: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._seen_projective: set = set()
        self._keep_alive: list = []      # algebras keyed by id() must outlive the run

    # -- installation -------------------------------------------------------

    def install(self):
        """Swap every binding of a traced function, and Mat.__init__, for a wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        for module in _rectilt_modules().values():
            for attr, obj in list(vars(module).items()):
                qualname = _traced_name(obj)
                if qualname is None:
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(obj, qualname)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrapper)
        mat = sys.modules["rectilt.linalg"].Mat
        self._patched.append((mat, "__init__", mat.__init__))
        mat.__init__ = self._wrap(mat.__init__, "linalg.mat_new")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._keep_alive.clear()
        self._seen_projective.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, qualname: str):
        if qualname not in self.names:
            self.names.append(qualname)
        ix = self.names.index(qualname)
        observe = _OBSERVERS.get(qualname)
        clock = time.perf_counter_ns
        stack = self._stack
        open_count = self._open
        names, parents, verdicts = self.name, self.parent, self.verdict
        starts, ends, nested = self.start, self.end, self.nested

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            depth = open_count.get(ix, 0)
            names.append(ix)
            parents.append(stack[-1])
            verdicts.append(self.verdict_id)
            nested.append(1 if depth else 0)
            starts.append(0)
            ends.append(0)
            open_count[ix] = depth + 1
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                open_count[ix] = depth
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- analysis ---------------------------------------------------------------

    def function_stats(self) -> dict[str, dict[str, float]]:
        """calls, incl_s and self_s per traced function.

        ``incl_s`` skips spans nested inside an open span of the same
        function, so recursion is not counted twice.
        """
        n = len(self.name)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p != _NO_PARENT:
                child[p] += self.end[sid] - self.start[sid]
        stats = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            entry = stats[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            entry["calls"] += 1
            entry["self_s"] += (dur - child[sid]) / 1e9
            if not self.nested[sid]:
                entry["incl_s"] += dur / 1e9
        return stats

    def write(self, path):
        """Dump every span as gzipped JSON columns, times in ns from the first start."""
        t0 = self.start[0] if len(self.start) else 0
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "parent": self.parent.tolist(),
            "verdict": self.verdict.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(payload, f, separators=(",", ":"))


def _rectilt_modules() -> dict:
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "rectilt" or name.startswith("rectilt."))}


def _traced_name(obj) -> str | None:
    """``layer.function`` for a public layer function, else None."""
    name = getattr(obj, "__name__", "")
    if not name or name.startswith("_"):
        return None
    module = getattr(obj, "__module__", None)
    if module in _MODULE_LAYER and inspect.isfunction(obj):
        return f"{_MODULE_LAYER[module]}.{name}"
    if module in _KERNEL_MODULES and name == "reduce_rows":
        return "linalg.reduce_rows"
    return None


def installed_wrappers() -> list[str]:
    """``module.attr`` of every binding that is still a tracer wrapper."""
    found = [f"{modname}.{attr}"
             for modname, module in _rectilt_modules().items()
             for attr, obj in vars(module).items() if getattr(obj, _MARK, False)]
    if getattr(sys.modules["rectilt.linalg"].Mat.__init__, _MARK, False):
        found.append("rectilt.linalg.Mat.__init__")
    return found


# -- size and outcome counters, observed from arguments and results ----------
# Every observed function is called positionally throughout the library.


def _cells(m) -> int:
    return m.rows * m.cols


def _hom_unknowns(tr, args, _):
    m, n = args[0], args[1]
    tr.count("rep.hom_basis.unknowns", sum(m.dims[v] * n.dims[v] for v in m.dims))


def _projective_repeat(tr, args, _):
    key = (id(args[0]), args[1])
    if key in tr._seen_projective:
        tr.count("rep.projective.repeats")
    else:
        tr._seen_projective.add(key)
        tr._keep_alive.append(args[0])


_OBSERVERS = {
    "linalg.mat_new": lambda tr, args, _: tr.count("linalg.mat_new.cells", args[1] * args[2]),
    "linalg.rref": lambda tr, args, _: tr.count("linalg.rref.cells", _cells(args[0])),
    "linalg.kernel_basis": lambda tr, args, _: tr.count("linalg.kernel_basis.cells",
                                                        _cells(args[0])),
    "linalg.solve": lambda tr, args, _: tr.count(
        "linalg.solve.cells", args[0].rows * (args[0].cols + args[1].cols)),
    "linalg.quotient": lambda tr, args, _: tr.count("linalg.quotient.cells", _cells(args[1])),
    "rep.hom_basis": _hom_unknowns,
    "rep.split_off_summand": lambda tr, _, result: tr.count(
        "rep.split_off_summand.hits", result is not None),
    "rep.is_isomorphic": lambda tr, _, result: tr.count(
        "rep.is_isomorphic.hits", bool(result[0])),
    "rep.projective": _projective_repeat,
}
