"""Record the reference values the correctness gate compares with.

    python3 perfbench/record.py

Runs every op of the reference grid (workloads.reference_ops) once through
the same worker as the benchmark, two at a time, and rewrites
perfbench/reference.json. Re-record only when a change to prolatesum is meant
to change its results, and say so where the change is described.
"""

import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import run
from gate import read_artifact, reference_values
from workloads import reference_ops


def record(op, work: str) -> tuple[str, dict]:
    out_path = os.path.join(work, op.ref_key.replace("/", "_") + "." + op.fmt)
    report = run.run_worker(op, out_path, timeout=run.RUN_LIMIT_S)
    if report["problems"]:
        raise RuntimeError(f"{op.label()}: {report['problems']}")
    values = reference_values(op, read_artifact(op, out_path))
    os.remove(out_path)
    print(f"{op.label():48s} {report['op_s']:6.2f} s", flush=True)
    return op.ref_key, values


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="record-", dir=run.OUT_DIR) as work:
        with ThreadPoolExecutor(max_workers=2) as pool:
            refs = dict(pool.map(lambda op: record(op, work), reference_ops()))
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
