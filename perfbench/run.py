"""Benchmark runner for rectilt: one closed-loop caller, certified verdicts.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_cases --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``; the metric names, units and
bounds in ``BENCHMARK.json`` at the repository root.  One process runs
whole units of verdicts back to back (no threads, no pool) for about
``--seconds``, checking every verdict against ``reference.py``.

Times are normalised to machine speed (see ``speed.py``): a shared host
runs the same code up to 30% faster or slower from second to second, so a
fixed probe samples the speed every 10 ms and each verdict's time is
stated at the speed where the probe takes ``speed.PROBE_REF_NS``.  The raw
wall times go to the record too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs units
for a quarter of ``--seconds`` to fill the library's caches, repeats the
same units untraced and then under the outside tracer, and reports the
per-layer metrics; the spans go to ``.perfbench_out/``.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and a fuller
record (environment, tail percentile, per-kind timings, failures) is
written next to the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedSampler
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_CHILDREN = 2          # extra fresh-process set-ups; setup_s is the median
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up the workload, print the set-up time and exit")
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def setup(args):
    """Import rectilt and build the workload's inputs; returns (workload, units, first, s)."""
    with SpeedSampler() as speed:
        begin = time.perf_counter_ns()
        sys.path.insert(0, str(ROOT / "src"))
        import workloads  # noqa: PLC0415 - importing rectilt is part of the set-up time

        if args.workload not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload](args.seed)
        units = workload.units()
        first = next(units)
        end = time.perf_counter_ns()
    return workloads, workload, units, first, speed.normalise(begin, end) / 1e9


def measure(workloads, unit_lists, seconds, tracer=None, sample_s=0.01):
    """Run whole units while another one is expected to end near ``seconds``.

    Another unit starts while the run, after it, is expected to last no
    more than ``seconds`` plus half a unit (by the mean unit time so far),
    so a run lasts ``seconds`` give or take half a unit.
    ``unit_lists`` yields lists of verdicts; the units actually run are
    returned so a traced pass can repeat exactly the same work.  The
    speed probe runs every ``sample_s`` seconds.
    """
    records, done = [], []
    begin = time.perf_counter()
    with SpeedSampler(sample_s) as speed:
        for unit in unit_lists:
            for v in unit:
                if tracer is not None:
                    tracer.verdict_id = len(records)
                start, end, ok, result = workloads.run_verdict(v)
                records.append({
                    "kind": v.kind, "unit": len(done), "raw_ns": end - start,
                    "ns": speed.normalise(start, end), "ok": ok,
                    "error": result.get("error") if isinstance(result, dict) else None})
            done.append(unit)
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(done) / 2 > seconds:
                break
    return records, done


def end_to_end(records, tail_q, setups, peak_rss_mb):
    """The end-to-end metrics of a run, and where its tail percentile sits.

    The tail is the nearest-rank ``tail_q`` percentile.  Each workload
    fixes ``tail_q`` so that at least ten verdicts lie beyond it in a
    run of the benchmark's length; the record states how many did.
    """
    times_ms = sorted(r["ns"] / 1e6 for r in records)
    n = len(times_ms)
    tail_rank = max(1, math.ceil(tail_q * n))
    values = {
        "verdicts_per_s": n / (sum(times_ms) / 1e3),
        "verdict_p50_ms": statistics.median(times_ms),
        "verdict_tail_ms": times_ms[tail_rank - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    tail = {"percentile": round(100 * tail_q, 2), "samples": n,
            "samples_beyond": n - tail_rank}
    return values, tail


def per_layer(tracer, traced_s, overhead_ratio):
    """Per-function and per-layer figures of a traced pass.

    ``traced_s`` is the raw time of the traced verdicts, the base of each
    layer's self share; ``overhead_ratio`` compares the traced pass with
    the same verdicts untraced.
    """
    stats = tracer.function_stats()
    values = {f"{fn}.{stat}": v for fn, s in stats.items() for stat, v in s.items()}
    values.update(tracer.counters)
    for ratio, fn, counter in (("hit_ratio", "rep.split_off_summand", "hits"),
                               ("hit_ratio", "rep.is_isomorphic", "hits"),
                               ("repeat_ratio", "rep.projective", "repeats")):
        calls = stats[fn]["calls"]
        values[f"{fn}.{ratio}"] = tracer.counters[f"{fn}.{counter}"] / calls if calls else 0.0
    for layer in LAYERS:
        mine = [s for fn, s in stats.items() if fn.split(".", 1)[0] == layer]
        values[f"{layer}.calls"] = sum(s["calls"] for s in mine)
        values[f"{layer}.self_s"] = sum(s["self_s"] for s in mine)
        values[f"{layer}.self_share"] = values[f"{layer}.self_s"] / traced_s
    values["trace.overhead_ratio"] = overhead_ratio
    return values, stats


def git_revision(root: Path) -> str | None:
    """HEAD's commit, read from ``root/.git`` alone; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import rectilt  # noqa: PLC0415 - already imported by the set-up

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rectilt").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "git_rev": git_revision(ROOT),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "backend": rectilt.BACKEND,
        "platform": platform.platform(),
    }


def child_setups(args) -> list[float]:
    """Set the workload up in fresh interpreters, one after another."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def select(values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    workloads, workload, units, first, setup_s = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 caller, whole units"}
    if args.trace == 0:
        records, done = measure(workloads, itertools.chain([first], units), args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [setup_s] + child_setups(args)
        values, tail = end_to_end(records, workload.tail_quantile, setups, peak_rss_mb)
        metrics = select(values, spec["end_to_end"])
        record.update(tail=tail, setup_samples_s=setups,
                      unit_ms=[sum(r["ns"] for r in records if r["unit"] == u) / 1e6
                               for u in range(len(done))],
                      raw_unit_ms=[sum(r["raw_ns"] for r in records if r["unit"] == u) / 1e6
                                   for u in range(len(done))])
    else:
        # The first pass fills the library's caches; the overhead compares
        # two warm passes over the same units, untraced and then traced.
        # Probing every 100 ms keeps probe time out of all but ~0.5% of spans.
        records, done = measure(workloads, itertools.chain([first], units), args.seconds / 4)
        untraced, _ = measure(workloads, iter(done), math.inf, sample_s=0.1)
        tracer = Tracer()
        with tracer:
            traced, _ = measure(workloads, iter(done), math.inf, tracer, sample_s=0.1)
        records += untraced + traced
        overhead = sum(r["ns"] for r in traced) / sum(r["ns"] for r in untraced)
        values, stats = per_layer(tracer, sum(r["raw_ns"] for r in traced) / 1e9, overhead)
        metrics = select(values, spec["per_layer"])
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_path)
        record.update(functions=stats, counters=tracer.counters,
                      spans=spans_path.relative_to(ROOT).as_posix(),
                      span_count=len(tracer.name))

    failed = [r for r in records if not r["ok"]]
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["ns"] / 1e6)
    record.update(
        env=environment(), units=len(done), metrics=metrics,
        per_kind_ms={k: {"n": len(v), "median": statistics.median(v)}
                     for k, v in sorted(kinds.items())},
        failures=[{"verdict": i, "kind": r["kind"], "error": r["error"]}
                  for i, r in enumerate(records) if not r["ok"]],
    )
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    env = record["env"]
    print(f"# {args.workload} seed={args.seed} units={len(done)} verdicts={len(records)} "
          f"backend={env['backend']} python={env['python']} nproc={env['nproc']} "
          f"rev={env['git_rev'] or env['source_sha256'][:12]}")
    if "tail" in record:
        t = record["tail"]
        print(f"# verdict_tail_ms is p{t['percentile']} of {t['samples']} verdicts, "
              f"{t['samples_beyond']} beyond it")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
