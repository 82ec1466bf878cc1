"""The benchmark's tracer binds prolatesum names and argument names
(`EigenSystem.mode_matrix(x, check_domain)`, the transforms' `f`): run a tiny
traced op of each traced kind so that a rename fails here, not at benchmark time.
The verify spans also show that the transforms are read in closed form,
once per run, and that Q_c's kernel is evaluated once per unordered node pair."""

import json
import os
import subprocess
import sys

import pytest

import prolatesum

SRC = os.path.dirname(os.path.dirname(prolatesum.__file__))
WORKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "worker.py")
QUAD = 32
SMALL = ["--n", "16", "--quad-size", str(QUAD)]


@pytest.mark.parametrize("args,expected", [
    (["verify", "--c", "2"], {"prolate.rule_modes", "transforms.mode_transforms"}),
    (["sweep", "--family", "cpswf", "--alpha", "0.5", "--p", "1.5", "--r-count", "3"],
     {"prolate.rule_modes", "analysis.calibrate_lemma1"}),
    (["kernel", "--grid-points", "4"], {"riesz.riesz_kernel_table"}),
    (["verify", "--family", "cpswf", "--alpha", "0.5", "--c", "2"],
     {"prolate.rule_modes", "transforms.mode_transforms"}),
])
def test_traced_worker_op(args, expected, tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, WORKER, "--trace", str(spans_path), "--op-id", "0", "--",
           *args, *SMALL, "--output", str(tmp_path / "out.json")]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1])["rc"] == 0
    with open(spans_path) as fh:
        fh.readline()  # header: the wrapped names
        spans = [json.loads(line) for line in fh]
    names = {s["name"] for s in spans}
    assert expected <= names
    assert all("flops" in s for s in spans if s["name"] == "prolate.mode_matrix")
    assert any(s["name"] == "prolate.mode_matrix" for s in spans)
    if args[0] == "verify":
        # the closed-form transforms once, to the block of modes; Q_c's kernel
        # (gpswf only) is the one transform kernel
        counts = {n: sum(s["name"] == f"transforms.{n}" for s in spans)
                  for n in ("mode_transforms", "finite_fourier", "finite_hankel", "apply_Qc")}
        gpswf = "cpswf" not in args
        assert counts == {"mode_transforms": 1, "finite_fourier": 0, "finite_hankel": 0,
                          "apply_Qc": int(gpswf)}
        assert [s["kernel_entries"] for s in spans if "kernel_entries" in s] == [QUAD**2] * int(gpswf)
        # the Q_c kernel's normalised Bessel function calls bessel_j only past
        # its series regime, which c = 2 does not reach (and at alpha = 0 it is
        # sin(t) / t); the closed form runs its own Miller pass: no bessel_j
        points = sum(s.get("points", 0) for s in spans if s["name"] == "specfun.bessel_j")
        assert points == 0
