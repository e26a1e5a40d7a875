"""Check that the benchmark's correctness gate fires.

Run from the root of a checkout:

  python3 perfbench/selfcheck.py

It feeds the gate a malformed scenario document (the run must be counted
as failed) and a real identity_deep result compared against a reference
whose eps_high is one ulp off (the differing field must be named). Exits
0 when both fire as expected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    references = json.loads(run.REFERENCE.read_text())["references"]
    args = argparse.Namespace(workload="identity_deep", seed=0, seconds=1.0)
    ctx = run.Context(args, root, references["identity_deep"])
    ok = True

    # A scenario document whose "ms" entry is not an object.
    malformed = ctx.work / "malformed.scn"
    malformed.write_text(json.dumps({
        "param_box": [[0, 1], [0, 1]],
        "noise_box": [[-0.1, 0.1], [-0.1, 0.1]],
        "ms": 5,
    }))
    good_scenario, ctx.scenario = ctx.scenario, malformed
    ctx.attempt("validate", lambda r: run.gate(ctx.workload, r, ctx.reference))
    if (ctx.attempted, ctx.failed) != (1, 1):
        print(f"malformed scenario: attempted={ctx.attempted} failed={ctx.failed}, "
              "expected 1 and 1")
        ok = False
    else:
        print("malformed scenario: counted as 1 failed of 1 attempted")

    ctx.scenario = good_scenario
    result = ctx.attempt("validate", lambda r: run.gate(ctx.workload, r, ctx.reference))
    altered = dict(ctx.reference)
    altered["eps_high"] = math.nextafter(altered["eps_high"], math.inf)
    problems = run.gate(ctx.workload, result, altered)
    if ctx.failed != 1 or not any(p.startswith("eps_high differs") for p in problems):
        print(f"altered reference: gate said {problems!r}, expected eps_high to differ")
        ok = False
    else:
        print(f"altered reference: {problems[0]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
