"""Sweep artifacts are held to the benchmark gate's tolerances against its
recorded reference (perfbench/gate.py, perfbench/reference.json), not to
their bytes: one reference op per (family, p), run in process."""

import importlib.util
import json
import os
import sys

import pytest

from prolatesum.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
workloads = _load("workloads")
with open(os.path.join(PERFBENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)

# (family, alpha, c, p, fn): each family once at every p, with every fn and both c
CASES = [("gpswf", 0.5, 4.0, 1.5, "runge"), ("gpswf", 1.0, 1.0, 2.0, "sin"),
         ("gpswf", 0.0, 4.0, 4.0, "exp"), ("cpswf", 0.5, 1.0, 1.5, "sin"),
         ("cpswf", 1.5, 4.0, 2.0, "runge"), ("cpswf", 0.5, 4.0, 4.0, "exp")]


@pytest.mark.parametrize("family,alpha,c,p,fn", CASES)
def test_sweep_passes_the_gate(family, alpha, c, p, fn, tmp_path):
    op = workloads.Op("sweep", family, alpha, c, 512, p=p, fn=fn)
    out = tmp_path / "sweep.json"
    assert main(op.argv(str(out))) == 0
    assert gate.check(op, gate.read_artifact(op, str(out)), REFERENCE[op.ref_key]) == []
