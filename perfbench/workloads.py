"""The benchmark's workloads: each is a fixed list of prolatesum CLI ops drawn from a seed.

Sizes are fixed per workload. The seed draws only parameters from the grids
below, so every op has a reference recorded in reference.json. Each op list
holds every stratum that sets an op's cost (family, p, output kind, and c
for the large eigensolves) a fixed number of times, so the cost of a list
changes little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (family, alpha) pairs: alpha inside each family's convergence-theorem range
FAMILIES = (("gpswf", 0.0), ("gpswf", 0.5), ("gpswf", 1.0), ("cpswf", 0.5), ("cpswf", 1.5))

VERIFY_C = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
SWEEP_C = (1.0, 4.0)
SWEEP_P = (1.5, 2.0, 4.0)
SWEEP_FN = ("exp", "sin", "runge")
SOLVE_C = (1.0, 4.0, 16.0)
# both sizes give tridiagonal blocks of 1024 rows (gpswf splits by parity)
SOLVE_N = {"gpswf": 2048, "cpswf": 1024}


@dataclass(frozen=True)
class Op:
    """One CLI command: `kind` is verify, sweep, basis or kernel."""

    kind: str
    family: str
    alpha: float
    c: float
    N: int
    fmt: str = "json"
    quad: int = 512
    p: float = 2.0
    fn: str = "exp"
    r_count: int = 16
    grid_points: int = 64

    def argv(self, output: str) -> list[str]:
        args = [self.kind, "--family", self.family, "--alpha", repr(self.alpha),
                "--c", repr(self.c), "--n", str(self.N), "--quad-size", str(self.quad),
                "--format", self.fmt, "--output", output]
        if self.kind == "sweep":
            args += ["--p", repr(self.p), "--fn", self.fn, "--r-count", str(self.r_count)]
        elif self.kind == "kernel":
            args += ["--grid-points", str(self.grid_points)]
        return args

    @property
    def ref_key(self) -> str:
        """Reference-table key; basis JSON and CSV share one (same chi)."""
        key = f"{self.kind}/{self.family}/a={self.alpha}/c={self.c}/N={self.N}"
        if self.kind == "sweep":
            key += f"/quad={self.quad}/p={self.p}/fn={self.fn}/r={self.r_count}"
        elif self.kind == "kernel":
            key += f"/grid={self.grid_points}"
        return key

    def label(self) -> str:
        text = f"{self.kind} {self.family} a={self.alpha:g} c={self.c:g} N={self.N}"
        if self.kind == "sweep":
            text += f" p={self.p:g} fn={self.fn}"
        elif self.kind == "basis":
            text += f" {self.fmt}"
        return text


def _verify_n128(rng: random.Random) -> list[Op]:
    ops = [Op("verify", fam, a, rng.choice(VERIFY_C), 128) for fam, a in FAMILIES]
    rng.shuffle(ops)
    return ops


def _sweep_n512(rng: random.Random) -> list[Op]:
    fams = ["gpswf", "gpswf", "cpswf"]
    rng.shuffle(fams)
    ops = []
    for fam, p in zip(fams, SWEEP_P):
        alpha = rng.choice([a for f, a in FAMILIES if f == fam])
        ops.append(Op("sweep", fam, alpha, rng.choice(SWEEP_C), 512, p=p, fn=rng.choice(SWEEP_FN)))
    rng.shuffle(ops)
    return ops


def _solve_n2048(rng: random.Random) -> list[Op]:
    ops = []
    for fam in ("gpswf", "cpswf"):
        cs = list(SOLVE_C)  # stev slows by up to 1.6x from c=1 to c=16: each c once per family
        rng.shuffle(cs)
        for (kind, fmt), c in zip((("basis", "json"), ("basis", "csv"), ("kernel", "json")), cs):
            alpha = rng.choice([a for f, a in FAMILIES if f == fam])
            ops.append(Op(kind, fam, alpha, c, SOLVE_N[fam], fmt=fmt))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "verify-n128": _verify_n128,
    "sweep-n512": _sweep_n512,
    "solve-n2048": _solve_n2048,
}


def op_list(workload: str, seed: int) -> list[Op]:
    """The workload's fixed op list for this seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def reference_ops() -> list[Op]:
    """One op per reference key over the whole parameter grid (verify needs none)."""
    ops = [Op("sweep", fam, a, c, 512, p=p, fn=fn)
           for fam, a in FAMILIES for c in SWEEP_C for p in SWEEP_P for fn in SWEEP_FN]
    for fam, a in FAMILIES:
        for c in SOLVE_C:
            ops.append(Op("basis", fam, a, c, SOLVE_N[fam], fmt="csv"))
            ops.append(Op("kernel", fam, a, c, SOLVE_N[fam]))
    return ops
