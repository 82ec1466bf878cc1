"""Self-test of the benchmark at tiny sizes (N=16, quadrature 32); takes about 15 s.

    python3 perfbench/selftest.py

For each op kind: records a reference from one run, runs the op again
through the benchmark (traced) and requires it to pass the gate with the
same artifact digest, then requires the gate to reject the first artifact
against a deliberately perturbed reference (for verify: an artifact with one
check marked failed). Also checks that the self times of each traced op add
up to its root span and that the work counts come out of the spans.
"""

import copy
import hashlib
import os
import sys
import tempfile

import gate
import run
import tracer
from workloads import Op

TINY = [
    Op("verify", "gpswf", 0.0, 1.0, 16, quad=32),
    Op("verify", "cpswf", 0.5, 1.0, 16, quad=32),
    Op("sweep", "gpswf", 0.5, 1.0, 16, quad=32, p=2.0, fn="runge", r_count=4),
    Op("basis", "gpswf", 1.0, 4.0, 16, quad=32),
    Op("basis", "cpswf", 0.5, 1.0, 16, quad=32, fmt="csv"),
    Op("kernel", "cpswf", 1.5, 4.0, 16, quad=32, grid_points=8),
]


def perturb(op, art: dict, ref: dict | None) -> tuple[dict, dict | None]:
    art, ref = copy.deepcopy(art), copy.deepcopy(ref)
    if op.kind == "verify":
        art["checks"][0]["pass"] = False
    elif op.kind == "basis":
        ref["chi"][1] *= 1 + 1e-8
    elif op.kind == "kernel":
        ref["entries"][0] += 1e-6 * abs(ref["entries"][0])
    else:
        ref["errors"][2] *= 1 + 1e-6
    return art, ref


def selftest(op, i: int, work: str) -> list[str]:
    os.makedirs(os.path.join(work, "ref"), exist_ok=True)
    out_path = os.path.join(work, "ref", f"op{i}.{op.fmt}")
    first = run.run_worker(op, out_path, timeout=60)
    if first["problems"]:
        return [f"reference run: {first['problems']}"]
    art = gate.read_artifact(op, out_path)
    with open(out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    ref = None if op.kind == "verify" else gate.reference_values(op, art)
    res = run.run_op(op, i, work, {op.ref_key: ref}, traced=True, timeout=60)
    problems = list(res["problems"])
    if res.get("sha256") != digest:
        problems.append("artifact differs between two runs")
    bad_art, bad_ref = perturb(op, art, ref)
    if not gate.check(op, bad_art, bad_ref):
        problems.append("gate accepted a perturbed reference")
    spans = res.get("spans", [])
    roots = [s for s in spans if s["parent"] is None]
    if [s["name"] for s in roots] != ["cli.main"]:
        problems.append(f"root spans {[s['name'] for s in roots]}, expected cli.main")
    else:
        m = tracer.layer_metrics([spans], res["trace_header"]["wrapped"])
        self_sum = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "riesz.dyadic.self_s")
        if abs(self_sum - (roots[0]["end"] - roots[0]["start"])) > 1e-6:
            problems.append("self times do not add up to the root span")
        if m["specfun.symtridiag_eigen.rows"] < op.N:
            problems.append(f"eigensolve rows {m['specfun.symtridiag_eigen.rows']} below N={op.N}")
    print(f"{'PASS' if not problems else 'FAIL'} {op.label()}" + "".join(f"\n    {p}" for p in problems))
    return problems


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT_DIR) as work:
        failures = sum(bool(selftest(op, i, work)) for i, op in enumerate(TINY))
    print(f"selftest: {len(TINY) - failures}/{len(TINY)} op kinds pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
