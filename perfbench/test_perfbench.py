"""The benchmark's own tests: references, determinism and the tracer.

Slow (about a minute); not part of the library's test suite.  Run from
the repository root with ``python -m pytest perfbench``.
"""

import gzip
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import reference as ref
import run
import workloads as wl
from rectilt.algebra import build_algebra
from rectilt.homology import enumerate_roster, ext1_dim
from rectilt.rep import direct_sum
from rectilt.tilting import is_tilting
from tracer import LAYERS, Tracer, installed_wrappers

HERE = Path(__file__).resolve().parent


# -- references agree with the library -------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_linear_reference_matches_every_n_subset(n):
    alg = wl.linear_algebra(n)
    subsets = list(combinations(ref.intervals(n), n))
    tilting = 0
    for s in subsets:
        cert = is_tilting(direct_sum(alg, [wl.interval_module(alg, n, iv) for iv in s]))
        want = ref.linear_verdict(n, s)
        assert wl._tilting_ok(cert, want), (s, cert.to_json(), want)
        tilting += want["tilting"]
    # Catalan numbers count the tilting modules of linear A_n
    assert tilting == {3: 5, 4: 14}[n]


def test_linear_ext1_formula_matches_library():
    n = 4
    alg = wl.linear_algebra(n)
    mods = {iv: wl.interval_module(alg, n, iv) for iv in ref.intervals(n)}
    for x in mods:
        for y in mods:
            assert ext1_dim(mods[x], mods[y]) == ref.linear_ext1(n, x, y), (x, y)


def test_a5_anchors_are_one_tilting_one_not():
    verdicts = [ref.linear_verdict(5, s)["tilting"] for s in wl.A5_ANCHORS]
    assert verdicts == [True, False]


@pytest.mark.parametrize("seed", range(4))
def test_roster_reference_matches_library(seed):
    rng = random.Random(seed)
    for n in (3, 4, 5, 6, 7):
        spec = wl.type_a_spec(rng, n)
        quiver, relations = wl.type_a_algebra_inputs(spec)
        roster = enumerate_roster(build_algebra(quiver, relations))
        assert wl._sorted_dims(roster.modules) == \
            ref.roster_dim_vectors(n, spec["relations"]), spec


# -- determinism ------------------------------------------------------------------------


def certificate_json(result):
    """JSON of what ``run_verdict`` returned: certificates or a failure."""
    if isinstance(result, tuple):
        return [certificate_json(r) for r in result]
    if isinstance(result, dict):
        return result
    return result.to_json()


def _specs(workload_cls, seed, units=3):
    w = workload_cls(seed)
    if workload_cls is wl.TiltingTypeA:
        return [w.block_specs() for _ in range(units)]
    if workload_cls is wl.ArRoster:
        return [w.round_specs() for _ in range(units)]
    gen = w.units()
    return [[v.kind for v in next(gen)] for _ in range(units)]


@pytest.mark.parametrize("cls", [wl.TiltingTypeA, wl.ArRoster, wl.PaperCases])
def test_same_seed_gives_same_inputs(cls):
    assert _specs(cls, 7) == _specs(cls, 7)
    assert _specs(cls, 7) != _specs(cls, 8)


_CERT_SCRIPT = """
import json
import workloads as wl
from test_perfbench import certificate_json
out = {}
for v in wl.PaperCases(0).verdicts():
    _, _, ok, result = wl.run_verdict(v)
    assert ok, v.kind
    out[v.kind] = certificate_json(result)
print(json.dumps(out, sort_keys=True))
"""


def test_paper_certificates_do_not_depend_on_hash_seed():
    outputs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
        proc = subprocess.run([sys.executable, "-c", _CERT_SCRIPT], env=env,
                              capture_output=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert set(json.loads(outputs[0])) == {
        "glue_case1", "glue_case2", "restrict_case3", "restrict_case4",
        "product_glue_restrict_left", "mutated_glue"}


# -- the tracer -----------------------------------------------------------------------------


def _bindings():
    return {(name, attr): obj
            for name, mod in sys.modules.items()
            if name == "rectilt" or name.startswith("rectilt.")
            for attr, obj in vars(mod).items() if callable(obj)}


def _small_verdicts():
    """Cheap verdicts that between them reach all seven layers."""
    vs = wl.ArRoster(3).units()
    out = list(next(vs))
    a3 = wl.linear_algebra(3)
    out += [wl.tilting_verdict(a3, 3, s) for s in combinations(ref.intervals(3), 3)][:4]
    paper = wl.PaperCases(0)
    out += [v for v in paper.verdicts()
            if v.kind in ("mutated_glue", "product_glue_restrict_left")]
    return out


def _run(verdicts, tracer=None):
    out = []
    for i, v in enumerate(verdicts):
        if tracer is not None:
            tracer.verdict_id = i
        _, _, ok, result = wl.run_verdict(v)
        assert ok, v.kind
        out.append(json.dumps(certificate_json(result), sort_keys=True))
    return out


def test_tracing_changes_no_verdict_and_leaves_no_wrapper():
    from rectilt.linalg import Mat

    verdicts = _small_verdicts()
    before = _bindings()
    init_before = Mat.__init__
    plain = _run(verdicts)
    tracer = Tracer()
    with tracer:
        import rectilt.homology
        import rectilt.rep

        # the copied binding is patched too, with the same wrapper
        assert rectilt.homology.hom_basis is rectilt.rep.hom_basis
        assert rectilt.homology.hom_basis is not before[("rectilt.rep", "hom_basis")]
        assert installed_wrappers()
        traced = _run(verdicts, tracer)
    assert traced == plain
    assert installed_wrappers() == []
    assert _bindings() == before
    assert Mat.__init__ is init_before

    stats = tracer.function_stats()
    for layer in LAYERS:
        assert any(s["calls"] for fn, s in stats.items() if fn.startswith(layer + ".")), layer
    assert stats["linalg.mat_new"]["calls"] > 0
    assert tracer.counters["linalg.mat_new.cells"] > 0
    assert set(tracer.verdict) <= set(range(len(verdicts)))


def test_self_times_partition_the_root_spans():
    tracer = Tracer()
    with tracer:
        _run(_small_verdicts()[:5], tracer)
    roots = sum(tracer.end[i] - tracer.start[i]
                for i in range(len(tracer.name)) if tracer.parent[i] == -1)
    total_self = sum(s["self_s"] for s in tracer.function_stats().values())
    assert total_self == pytest.approx(roots / 1e9, rel=1e-9)


def test_ar_roster_bypasses_add_membership_and_the_recollement():
    tracer = Tracer()
    with tracer:
        _run(next(wl.ArRoster(5).units()), tracer)
    stats = tracer.function_stats()
    for fn in ("rep.in_add_of", "rep.split_off_summand", "rep.decompose"):
        assert stats[fn]["calls"] == 0, fn
    for fn, s in stats.items():
        if fn.startswith(("gluing.", "recollement.")):
            assert s["calls"] == 0, fn
    assert stats["homology.enumerate_roster"]["calls"] == 5
    assert stats["algebra.build_algebra"]["calls"] >= 5


def test_runner_computes_every_listed_metric(tmp_path):
    spec = run.load_spec()
    tracer = Tracer()
    with tracer:
        _run(_small_verdicts()[:5], tracer)
    values, _ = run.per_layer(tracer, traced_s=1.0, overhead_ratio=1.0)
    assert run.select(values, spec["per_layer"]).keys() == \
        {m["name"] for m in spec["per_layer"]}
    e2e, tail = run.end_to_end([{"ns": 10 ** 6 * k} for k in range(1, 21)], 0.5,
                               [1.0, 2.0, 3.0], 50.0)
    assert run.select(e2e, spec["end_to_end"]).keys() == \
        {m["name"] for m in spec["end_to_end"]}
    assert e2e["verdict_tail_ms"] == 10.0 and tail["samples_beyond"] == 10
    path = tmp_path / "spans.json.gz"
    tracer.write(path)
    with gzip.open(path, "rt") as f:
        data = json.load(f)
    assert len(data["name"]) == len(data["start_ns"]) == len(data["parent"])
