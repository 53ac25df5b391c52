"""Print the SHA-256 digests that pin the benchmark's certificates byte for byte.

Usage, from the repository root:

    python tests/certificate_digest.py [--check]

The digests run over 156 verdicts: two units each of paper_cases (seeds
0 and 3), tilting_type_a (0 and 5) and ar_roster (0 and 1), built by
``perfbench/workloads.py``.  Each verdict contributes its result's
``to_json``: a certificate, a restriction result (with the dims of its
``restricted_classes``), a roster, or the culprit of an expected
``HypothesisFailed``.  The first digest also covers each certificate's
``module.to_json()``; the second leaves it out, for a change that alters
a module's basis on purpose.  Two checkouts whose outputs agree print the
same two lines.  ``--check`` also compares both lines with the values
pinned below, names each line that differs, and exits 1 if one does.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

RUNS = (("paper_cases", (0, 3)), ("tilting_type_a", (0, 5)), ("ar_roster", (0, 1)))
UNITS = 2
PINNED = {"with modules": "f892ddd9f646297a1b9ea8ffdfe0b9757b37e4b51bce03ca29dae06024a8203c",
          "without modules": "167beddbc90ad863fd700624ae5c02bba577b6c73956160f57cb4e3245ae8f1a"}


def _dims(mods):
    return [m.to_json()["dims"] for m in mods]


def _record(result):
    """The JSON of one verdict's result, each certificate's module included."""
    if isinstance(result, tuple):
        return [_record(r) for r in result]
    if isinstance(result, dict):
        return result
    out = {"json": result.to_json()}
    if getattr(result, "restricted_classes", None) is not None:
        out["restricted_classes"] = [_dims(c) for c in result.restricted_classes]
    if hasattr(result, "module"):
        out["module"] = result.module.to_json()
    return out


def _without_modules(record):
    """``record`` with each certificate's module left out."""
    if isinstance(record, list):
        return [_without_modules(r) for r in record]
    return {key: value for key, value in record.items() if key != "module"}


def verdict_records() -> list:
    """One record per verdict, in run order."""
    records = []
    for name, seeds in RUNS:
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed)
            for unit in itertools.islice(workload.units(), UNITS):
                for verdict in unit:
                    _, _, ok, result = workloads.run_verdict(verdict)
                    if not ok:
                        raise SystemExit(f"{name} seed {seed}: {verdict.kind} failed its check")
                    records.append([verdict.kind, _record(result)])
    return records


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless both lines equal the pinned digests")
    check = parser.parse_args(argv).check
    records = verdict_records()
    lines = {"with modules": digest(records),
             "without modules": digest([[kind, _without_modules(r)] for kind, r in records])}
    print(f"{len(records)} verdicts")
    for label, value in lines.items():
        print(f"{label + ':':<17}{value}")
    differ = [label for label, value in lines.items() if check and value != PINNED[label]]
    for label in differ:
        print(f"{label}: differs from the pinned {PINNED[label]}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
