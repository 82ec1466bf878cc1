"""prolatesum benchmark: one client runs a workload's op list in a closed loop.

    python3 perfbench/run.py --workload verify-n128 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. Each op is one `prolatesum` CLI command in a fresh worker process,
so no in-memory cache carries over between ops, as for a CLI user. The op
list (see workloads.py) is run in passes, op after op, while the next op
still fits in --seconds; every output is checked by gate.py.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  wall_s       time to solution of the op list: the sum over its ops of
               each op's median time
  op_p50_s     median over the op list of each op's median time
  peak_rss_mb  largest worker max RSS
  setup_s      median worker time to import prolatesum, numpy and scipy
--trace 1 alternates untraced and traced passes (at least one whole pass of
each) and prints the per-layer metrics of the whole traced passes (see
tracer.py), `cli.output_bytes`, and `trace.overhead_s` (traced minus
untraced wall_s). Spans are written as JSON lines under .perfbench_out/.

The last line of standard output is the result as one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# One BLAS thread: the eigensolver (LAPACK stev) is serial anyway, and a
# single thread keeps timings steady on a small shared machine.
BLAS_THREADS = 1
RUN_LIMIT_S = 170

sys.path.insert(0, HERE)
import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, op_list  # noqa: E402


def environment() -> dict:
    """What the timings depend on: cores, BLAS threads and library versions."""
    import numpy
    import scipy

    def blas(cfg, key):
        return cfg["Build Dependencies"][key].get("version", "unknown")

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config(mode="dicts"), "blas"),
        "scipy_openblas": blas(scipy.show_config(mode="dicts"), "lapack"),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(op, out_path: str, timeout: float, spans_path: str | None = None,
               op_id: int = 0) -> dict:
    """Run one op in a fresh worker process; returns the worker's report,
    with a list of `problems` when it did not exit cleanly."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")]
    if spans_path:
        cmd += ["--trace", spans_path, "--op-id", str(op_id)]
    cmd += ["--", *op.argv(os.path.basename(out_path))]  # artifacts embed the path
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=os.path.dirname(out_path),
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"problems": ["timed out"]}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"problems": [f"worker failed: {proc.stderr.strip()[-500:]}"]}
    report["problems"] = []
    if not report["package"].startswith(os.path.join(ROOT, "src")):
        report["problems"].append(f"imported prolatesum from {report['package']}")
    if report["rc"] != 0:
        report["problems"].append(f"exit code {report['rc']}: {proc.stderr.strip()[-300:]}")
    return report


def run_op(op, op_id: int, work: str, refs: dict, traced: bool, timeout: float) -> dict:
    """Run one op, gate its artifact and record its digest."""
    out_path = os.path.join(work, f"op{op_id}.{op.fmt}")
    spans_path = os.path.join(work, f"op{op_id}.spans.jsonl") if traced else None
    res = run_worker(op, out_path, timeout, spans_path, op_id)
    res["op"] = op
    if not res["problems"]:
        try:
            with open(out_path, "rb") as fh:
                data = fh.read()
            res["sha256"] = hashlib.sha256(data).hexdigest()
            res["output_bytes"] = len(data)
            res["problems"] += gate.check(op, gate.read_artifact(op, out_path), refs.get(op.ref_key))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            res["problems"].append(f"unreadable artifact: {exc!r}")
        if traced:
            res["trace_header"], res["spans"] = tracer.read_spans(spans_path)
    if os.path.exists(out_path):
        os.remove(out_path)
    res["ok"] = not res["problems"]
    return res


def report_op(r: dict) -> None:
    status = "ok" if r["ok"] else "FAILED " + "; ".join(r["problems"])
    if "op_s" in r:
        print(f"  {'T' if r['traced'] else 'U'} {r['op'].label():44s} op {r['op_s']:7.3f} s  "
              f"import {r['import_s']:.3f} s  rss {r['maxrss_kb'] / 1024:6.1f} MB  "
              f"sha256 {r.get('sha256', '-')[:16]}  {status}", flush=True)
    else:
        print(f"  {r['op'].label()}: {status}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "prolatesum", "cli.py")):
        print(f"error: no prolatesum source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        refs = json.load(fh)

    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    ops = op_list(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} ops per pass  "
          f"trace {args.trace}  environment {json.dumps(environment())}", flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    # passes[p][i] is the result of op i in pass p; with --trace 1 odd passes are traced
    passes: list[list[dict]] = []
    try:
        for k in itertools.count(1):
            if len(passes) == 0 or len(passes[-1]) == len(ops):
                passes.append([])
            traced = bool(args.trace) and len(passes) % 2 == 0
            r = run_op(ops[len(passes[-1])], len(passes[-1]), work, refs, traced,
                       deadline - time.monotonic())
            r["traced"] = traced
            report_op(r)
            passes[-1].append(r)
            if k < len(ops) * (1 + args.trace):
                continue  # one whole untraced pass, and with --trace 1 a traced one
            elapsed = time.monotonic() - t_begin
            if elapsed + elapsed / k > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for rs in passes for r in rs]
    failed = sum(not r["ok"] for r in results)
    correct = failed == 0
    # byte-for-byte reproducibility: each op's artifact is the same in every pass
    for i, op in enumerate(ops):
        digests = {rs[i]["sha256"] for rs in passes if i < len(rs) and rs[i]["ok"]}
        if len(digests) > 1:
            print(f"artifact of op {i} ({op.label()}) differs between passes", flush=True)
            correct = False
    untraced = [r for r in results if not r["traced"] and "op_s" in r]
    per_op = [[r["op_s"] for r in untraced if r["op"] is op] for op in ops]
    digest = hashlib.sha256("".join(r.get("sha256", "-") for r in passes[0]).encode()).hexdigest()
    print(f"passes {len(passes)} ({sum(len(rs) == len(ops) for rs in passes)} whole)  "
          f"ops attempted {len(results)}  failed_op_share = {failed / len(results):.4g} "
          f"({failed}/{len(results)})  op-list artifact sha256 {digest}", flush=True)
    print(f"untraced samples per op {[len(t) for t in per_op]}: op_p50_s over the {len(ops)} "
          f"per-op medians, setup_s over {len(untraced)} workers", flush=True)
    if not all(per_op):
        print("error: an op never completed", file=sys.stderr)
        return 1
    op_medians = [statistics.median(t) for t in per_op]
    wall = sum(op_medians)

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced_passes = [rs for rs in passes if rs[0]["traced"] and len(rs) == len(ops)
                         and all(r["ok"] for r in rs)]
        if not traced_passes:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        metrics, correct = traced_metrics(traced_passes, wall, spec, correct, spans_path)
    else:
        values = {
            "wall_s": wall,
            "op_p50_s": statistics.median(op_medians),
            "peak_rss_mb": max(r["maxrss_kb"] for r in untraced) / 1024,
            "setup_s": statistics.median(r["import_s"] for r in untraced),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def traced_metrics(traced: list[list[dict]], untraced_wall: float, spec: dict,
                   correct: bool, spans_path: str) -> tuple[dict, bool]:
    """Per-layer metrics averaged over whole, passing traced passes; counts
    must repeat exactly between them."""
    per_pass = []
    for rs in traced:
        values = tracer.layer_metrics([r["spans"] for r in rs], rs[0]["trace_header"]["wrapped"])
        values["cli.output_bytes"] = sum(r.get("output_bytes", 0) for r in rs)
        per_pass.append(values)
        drivers = sorted({d for r in rs for d in r["trace_header"]["lapack_drivers"]})
        print(f"eigh_tridiagonal drivers seen: {drivers}")
    counts = [{k: v for k, v in p.items() if not k.endswith("_s")} for p in per_pass]
    if any(c != counts[0] for c in counts):
        print("work counts differ between traced passes", flush=True)
        correct = False
    count_digest = hashlib.sha256(json.dumps(counts[0], sort_keys=True).encode()).hexdigest()
    print(f"work-count sha256 {count_digest}")
    traced_wall = sum(statistics.median(rs[i]["op_s"] for rs in traced) for i in range(len(traced[0])))
    with open(spans_path, "w") as fh:
        for k, rs in enumerate(traced):
            for r in rs:
                for s in r.get("spans", []):
                    fh.write(json.dumps({"pass": k, **s}) + "\n")
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    values = {k: statistics.fmean(p[k] for p in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = traced_wall - untraced_wall
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    top = sorted((v, k) for k, v in values.items() if k.endswith(".self_s") and k != "riesz.dyadic.self_s")
    print("largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in top[::-1][:6]))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}, correct


if __name__ == "__main__":
    sys.exit(main())
