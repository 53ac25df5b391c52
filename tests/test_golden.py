"""The worked example's certificates against a checked-in golden file.

``golden/paper_certificates.json`` holds ``paper_certificates()`` written
with ``json.dumps(payload, indent=1, sort_keys=True) + "\\n"``.  It was
written once, from the code before gluing, tilting and recollement were
simplified, and checked in; the test recomputes the payload and compares
the text byte for byte.
"""

import json
import subprocess
import sys
from pathlib import Path

from rectilt.fixtures import corpus
from rectilt.gluing import GluedPairSpec, glue_tilting, restrict_left, restrict_right
from rectilt.recollement import check_exactness, split_context
from rectilt.rep import direct_sum, projective, simple

GOLDEN = Path(__file__).resolve().parent / "golden" / "paper_certificates.json"
DIGEST = Path(__file__).resolve().parent / "certificate_digest.py"


def _restriction(res):
    payload = res.to_json()
    if res.restricted_classes is not None:
        payload["restricted_classes"] = [[m.to_json()["dims"] for m in cls]
                                         for cls in res.restricted_classes]
    return payload


def paper_certificates() -> dict:
    data = corpus()
    ctx, roster, mods = data["ctx"], data["roster"], data["modules"]
    case1 = glue_tilting(GluedPairSpec(ctx, mods["T_inner"], mods["T_outer_case1"]), roster)
    case2 = glue_tilting(GluedPairSpec(ctx, mods["T_inner"], mods["T_outer_case2"]), roster)
    pctx = split_context(data["algebras"]["product"], ["3", "4", "5"])
    inn, out = pctx.inner_algebra, pctx.outer_algebra
    product = glue_tilting(GluedPairSpec(
        pctx, direct_sum(inn, [projective(inn, "1"), simple(inn, "1")]),
        direct_sum(out, [projective(out, v) for v in out.vertices])))
    return {
        "glue_case1": case1.to_json(),
        "glue_case2": case2.to_json(),
        "restrict_right_case3": _restriction(restrict_right(ctx, mods["T_case3"], roster)),
        "restrict_right_case4": _restriction(restrict_right(ctx, mods["T_case4"], roster)),
        "product_glue": product.to_json(),
        "product_restrict_left": _restriction(restrict_left(pctx, product.module)),
        "glued_restrict_left_case4": _restriction(
            restrict_left(ctx, mods["T_case4"], roster)),
        "glued_exactness": check_exactness(ctx).to_json(),
        "product_exactness": check_exactness(pctx).to_json(),
    }


def test_paper_certificates_match_golden_file():
    text = json.dumps(paper_certificates(), indent=1, sort_keys=True) + "\n"
    assert text == GOLDEN.read_text()


def test_benchmark_certificates_match_their_pinned_digests():
    # the benchmark's 156 verdicts, byte for byte; the script sets its own import path
    proc = subprocess.run([sys.executable, str(DIGEST), "--check"], cwd=DIGEST.parent.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
