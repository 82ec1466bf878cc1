"""Correctness gate: reads one op's artifact and checks it.

Every op kind gets structural checks computed here from the mathematics
(eigenvalue sandwich, orthonormal coefficients, exact kernel symmetry), and
basis, sweep and kernel ops are compared with reference values recorded at
the commit that introduced the benchmark (see record.py), at these tolerances:
"""

from __future__ import annotations

import json

import numpy as np

CHI_RTOL = 1e-10         # |chi - ref| <= CHI_RTOL * max(1, |ref|)
ORTHO_TOL = 1e-12        # max |C^T C - I| over sampled coefficient columns
SANDWICH_SLACK = 1e-8    # times (1 + c^2), as the library's own check
SWEEP_RTOL = 1e-8        # |error - ref| <= SWEEP_RTOL * ref + SWEEP_ATOL
SWEEP_ATOL = 1e-14
PARSEVAL_TOL = 1e-10     # quadrature vs coefficient-space error at p = 2
KERNEL_RTOL = 1e-9       # |K - ref| <= KERNEL_RTOL * max |K_ref|
N_CHI_SAMPLES = 16
N_ORTHO_COLUMNS = 32


def read_artifact(op, path: str) -> dict:
    """Parse the artifact into {'config', 'results', 'checks'}; a CSV basis
    becomes results {'chi', 'lower', 'upper'}."""
    with open(path) as fh:
        if op.fmt == "json":
            return json.load(fh)
        header = fh.readline()
        if not header.startswith("# config: "):
            raise ValueError("CSV artifact lacks its config header")
        config = json.loads(header[len("# config: "):])
        if fh.readline().strip() != "n,chi,lower_bound,upper_bound":
            raise ValueError("unexpected CSV columns")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not np.array_equal(rows[:, 0], np.arange(rows.shape[0])):
        raise ValueError("CSV rows are not n = 0, 1, ...")
    return {"config": config, "checks": [],
            "results": {"chi": rows[:, 1], "lower": rows[:, 2], "upper": rows[:, 3]}}


def _chi_samples(chi: np.ndarray) -> np.ndarray:
    return np.unique(np.linspace(0, chi.size - 1, N_CHI_SAMPLES).round().astype(int))


def _kernel_samples(n: int) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(n)
    return i, (7 * i + 3) % n


def _lower_bounds(op, m: int) -> np.ndarray:
    n = np.arange(m, dtype=float)
    if op.family == "gpswf":
        return n * (n + 2 * op.alpha + 1)
    return (2 * n + op.alpha + 0.5) * (2 * n + op.alpha + 1.5)


def reference_values(op, art: dict) -> dict:
    """The values of an artifact that later runs are compared with."""
    res = art["results"]
    if op.kind == "basis":
        chi = np.asarray(res["chi"], dtype=float)
        return {"chi": chi[_chi_samples(chi)].tolist()}
    if op.kind == "kernel":
        K = np.asarray(res["kernel"], dtype=float)
        return {"R": res["R"], "entries": K[_kernel_samples(K.shape[0])].tolist()}
    if op.kind == "sweep":
        return {k: res[k] for k in ("R_grid", "errors", "weight_counts", "passed")}
    raise ValueError(f"no reference for {op.kind}")


def _config_problems(op, cfg: dict) -> list[str]:
    want = {"command": op.kind, "family": op.family, "alpha": op.alpha, "c": op.c,
            "N": op.N, "quad_size": op.quad, "fmt": op.fmt}
    if op.kind == "sweep":
        want.update(p=op.p, fn=op.fn, r_count=op.r_count)
    if op.kind == "kernel":
        want["grid_points"] = op.grid_points
    return [f"config {k}={cfg.get(k)!r}, expected {v!r}" for k, v in want.items() if cfg.get(k) != v]


def _check_basis(op, res: dict, ref: dict) -> list[str]:
    out = []
    chi = np.asarray(res["chi"], dtype=float)
    m = op.N // 2
    if chi.shape != (m,):
        return [f"chi has shape {chi.shape}, expected ({m},)"]
    if not np.all(np.diff(chi) > 0):
        out.append("chi not strictly increasing")
    lo = _lower_bounds(op, m)
    slack = SANDWICH_SLACK * (1 + op.c**2)
    if np.any(chi < lo - slack) or np.any(chi > lo + op.c**2 + slack):
        out.append("eigenvalue sandwich violated")
    got = chi[_chi_samples(chi)]
    want = np.asarray(ref["chi"])
    if got.shape != want.shape or np.any(np.abs(got - want) > CHI_RTOL * np.maximum(1, np.abs(want))):
        out.append("chi differs from reference")
    if "lower" in res and not (np.allclose(res["lower"], lo, rtol=1e-12, atol=1e-12)
                               and np.allclose(res["upper"], lo + op.c**2, rtol=1e-12, atol=1e-12)):
        out.append("CSV bound columns differ from the sandwich formula")
    if "coeffs" in res:
        C = np.asarray(res["coeffs"], dtype=float)
        if C.shape != (op.N, m):
            return out + [f"coeffs have shape {C.shape}, expected ({op.N}, {m})"]
        if np.max(np.abs(np.sum(C * C, axis=0) - 1)) > ORTHO_TOL:
            out.append("coefficient columns not unit norm")
        cols = np.random.default_rng(0).choice(m, size=min(m, N_ORTHO_COLUMNS), replace=False)
        S = C[:, cols]
        if np.max(np.abs(S.T @ S - np.eye(cols.size))) > ORTHO_TOL:
            out.append("coefficient columns not orthonormal")
    return out


def _check_kernel(op, res: dict, ref: dict) -> list[str]:
    out = []
    K = np.asarray(res["kernel"], dtype=float)
    n = op.grid_points
    if K.shape != (n, n):
        return [f"kernel has shape {K.shape}, expected ({n}, {n})"]
    lo, hi = (-1.0, 1.0) if op.family == "gpswf" else (0.0, 1.0)
    pts = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    if not np.allclose(res["points"], pts, rtol=1e-15, atol=0):
        out.append("kernel grid points differ from the midpoint grid")
    if not np.array_equal(K, K.T):
        out.append("kernel not exactly symmetric")
    if np.any(np.diag(K) < 0):
        out.append("kernel diagonal negative")
    if abs(res["R"] - ref["R"]) > CHI_RTOL * abs(ref["R"]):
        out.append("kernel R differs from reference")
    want = np.asarray(ref["entries"])
    if np.max(np.abs(K[_kernel_samples(n)] - want)) > KERNEL_RTOL * np.max(np.abs(want)):
        out.append("kernel values differ from reference")
    return out


def _check_sweep(op, res: dict, ref: dict) -> list[str]:
    out = []
    R = np.asarray(res["R_grid"], dtype=float)
    err = np.asarray(res["errors"], dtype=float)
    if R.shape != (op.r_count,) or err.shape != R.shape:
        return ["sweep grid has the wrong length"]
    if not (np.all(np.diff(R) > 0) and np.all(np.isfinite(err)) and np.all(err >= 0)):
        out.append("sweep grid not ascending or errors not finite and >= 0")
    if np.any(np.diff(res["weight_counts"]) < 0):
        out.append("weight counts decrease with R")
    if np.any(np.abs(R - ref["R_grid"]) > CHI_RTOL * np.asarray(ref["R_grid"])):
        out.append("R grid differs from reference")
    want = np.asarray(ref["errors"])
    if np.any(np.abs(err - want) > SWEEP_RTOL * want + SWEEP_ATOL):
        out.append("sweep errors differ from reference")
    if res["weight_counts"] != ref["weight_counts"] or res["passed"] != ref["passed"]:
        out.append("weight counts or pass flag differ from reference")
    if op.p == 2 and not res["parseval_gap"] <= PARSEVAL_TOL:
        out.append(f"Parseval gap {res['parseval_gap']} above {PARSEVAL_TOL}")
    return out


def _check_verify(res: dict, checks: list[dict]) -> list[str]:
    failed = [c["name"] for c in checks if not c["pass"]]
    if res["n_checks"] != len(checks) or res["n_pass"] != res["n_checks"] or failed:
        return [f"verify passed {res['n_pass']}/{res['n_checks']} checks; failed: {failed}"]
    return []


def check(op, art: dict, ref: dict | None) -> list[str]:
    """Problems found in one op's parsed artifact; empty when it passes."""
    out = _config_problems(op, art["config"])
    if op.kind == "verify":
        return out + _check_verify(art["results"], art["checks"])
    if ref is None:
        return out + [f"no reference recorded for {op.ref_key}"]
    checker = {"basis": _check_basis, "kernel": _check_kernel, "sweep": _check_sweep}[op.kind]
    return out + checker(op, art["results"], ref)
