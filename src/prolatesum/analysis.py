"""Empirical verification harness: norm growth, eigenvalue counting, spectral
clusters, and convergence sweeps of the summation operator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
# numpy loads it on first use: import it with the package, not inside an op
import numpy.random  # noqa: F401

from .prolate import EigenSystem, Family, _support_rows
from .riesz import (
    ExponentTable,
    RieszConfig,
    delta_threshold,
    dual_exponent,
    expansion_coeffs,
    riesz_means,
    riesz_weight,
)
from .specfun import QuadratureRule
from .transforms import SampledFunction


def _lp_norms(values: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    # weighted L^p norm of every sample row of values, over the last axis
    if not p >= 1:
        raise ValueError("p must be >= 1")
    a = np.abs(values)
    if p == math.inf:
        return np.max(a, axis=-1)
    return np.sum(weights * a**p, axis=-1) ** (1.0 / p)


def lp_norm(f: SampledFunction, p: float) -> float:
    """Weighted L^p norm on the sample grid: (sum w_j |f_j|^p)^(1/p),
    max |f_j| for p = inf.  f must hold one function, not a block."""
    if f.values.ndim != 1:
        raise ValueError(f"lp_norm takes one function, got a block of shape {f.values.shape}")
    return float(_lp_norms(f.values, f.rule.weights, p))


def _dense_interior_grid(es: EigenSystem, size: int = 4096) -> np.ndarray:
    # endpoint-resolving interior grid (uniform in the angle variable)
    theta = (np.arange(size) + 0.5) * np.pi / size
    if es.spec.family is Family.GPSWF:
        return np.cos(theta)
    return np.cos(theta / 2.0)


def norm_growth_fit(es: EigenSystem, p: float, n_range: tuple[int, int]) -> float:
    """Least-squares slope of log ||phi_n||_p against log n over n_range.

    For p = inf the sup is taken on a dense interior grid that resolves the
    endpoint growth; finite p uses the family quadrature.
    """
    lo, hi = n_range
    if not (0 < lo < hi < es.n_retained):
        raise ValueError("n_range must lie inside the retained indices")
    if hi - lo + 1 < 10:
        raise ValueError("need at least 10 modes for a slope fit")
    ns = np.arange(lo, hi + 1)
    if p == math.inf:
        # only the fitted modes are evaluated, on the basis rows that carry them
        C = es.coeffs[:, lo:hi + 1]
        C = C[:_support_rows(C)]
        modes = C.T @ es.basis_matrix(_dense_interior_grid(es), rows=len(C))
        vals = np.max(np.abs(modes), axis=1)
    else:
        rule = es.default_rule()
        vals = _lp_norms(es.rule_modes(rule)[ns], rule.weights, p)
    return float(np.polyfit(np.log(ns), np.log(vals), 1)[0])


def eigenvalue_count(es: EigenSystem, m: float, M: float) -> int:
    """Number of retained eigenvalues in the open window (m, M)."""
    if not 0 <= m < M:
        raise ValueError("need 0 <= m < M")
    if M > es.certified_max * (1 + 1e-12):
        raise ValueError("window exceeds the certified spectral range")
    return int(np.sum((es.chi > m) & (es.chi < M)))


def calibrate_b1(es: EigenSystem, min_width: float = 2.0) -> float:
    """Sharp window-counting constant: max over eigenvalue runs of
    count / max(min_width, span).  <= 1 certifies count <= (M - m) for every
    window of width >= min_width."""
    if not min_width > 0:
        raise ValueError("min_width must be positive")
    chi = es.chi
    counts = np.arange(1, chi.size + 1)
    best = 0.0
    for i in range(chi.size):
        # runs chi[i..j] for every j >= i, one pass per start index: O(m) memory
        ratios = counts[: chi.size - i] / np.maximum(min_width, chi[i:] - chi[i])
        best = max(best, float(np.max(ratios)))
    return best


def _cluster_ratios(a: np.ndarray, chi: np.ndarray, m: float, M: float, g: float, norms):
    # ||sum_{chi_n in (m,M)} a_n phi_n||_2 / (M^(g/2) (M-m)^(1/2) ||f||_p) for
    # each coefficient column of a and its norm; zero for an empty window
    mask = (chi > m) & (chi < M)
    num = np.sqrt(np.sum(np.abs(a[mask]) ** 2, axis=0))
    return num / (M ** (g / 2.0) * (M - m) ** 0.5 * norms)


def calibrate_lemma1(es: EigenSystem, rule: QuadratureRule, p: float, table: ExponentTable,
                     n_probes: int = 50, seed: int = 0) -> tuple[float, np.ndarray]:
    """Cluster-bound constant over random polynomial probes of degree 1..20,
    sampled on rule, and sliding windows.

    Returns (C, per_probe) where per_probe[i] is probe i's largest ratio over
    all windows and C = max(per_probe) is the calibrated constant.
    """
    rng = np.random.default_rng(seed)
    x = rule.nodes
    probes = np.empty((n_probes, x.size))
    for i in range(n_probes):
        deg = int(rng.integers(1, 21))
        probes[i] = np.polyval(rng.standard_normal(deg + 1)[::-1], x)
    coeffs = expansion_coeffs(SampledFunction(rule=rule, values=probes), es).T  # (m, n_probes)
    pnorms = _lp_norms(probes, rule.weights, p)
    g = table.gamma(dual_exponent(p))
    windows = []
    chi_max = es.certified_max
    w = 2.0
    while w < chi_max:
        starts = np.linspace(0.0, chi_max - w, 8)
        windows.extend((s, s + w) for s in starts)
        w *= 2.0
    per_probe = np.zeros(n_probes)
    for m, M in windows:
        per_probe = np.maximum(per_probe, _cluster_ratios(coeffs, es.chi, m, M, g, pnorms))
    return float(np.max(per_probe)), per_probe


class JacobiApproxResult(NamedTuple):
    residual: float
    amplitude: float


def jacobi_approx_residual(es: EigenSystem, n: int) -> JacobiApproxResult:
    """Sup-norm distance of eigenfunction n from its single-Jacobi-mode
    approximation A_n J~_n, with A_n the exact basis projection (the n-th
    coefficient of column n).  At c = 0 the residual is identically zero."""
    if es.spec.family is not Family.GPSWF:
        raise ValueError("the Jacobi approximation diagnostic applies to the weighted family")
    if not es.spec.theorem_range_ok:
        raise ValueError("diagnostic valid for 0 <= alpha < 3/2")
    if not 0 <= n < es.n_retained:
        raise ValueError(f"mode {n} is not retained")
    # the basis rows that carry mode n's coefficients, and J~_n
    rows = max(_support_rows(es.coeffs[:, n:n + 1]), n + 1)
    B = es.basis_matrix(_dense_interior_grid(es), rows=rows)
    amp = float(es.coeffs[n, n])
    diff = es.coeffs[: len(B), n] @ B - amp * B[n]
    return JacobiApproxResult(residual=float(np.max(np.abs(diff))), amplitude=amp)


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Per-radius errors of the summation operator plus fitted decay slope,
    counting/cluster calibration constants, and the pass flag."""

    family: str
    alpha: float
    c: float
    p: float
    delta: float
    R_grid: np.ndarray
    errors: np.ndarray            # L^p norms ||f - Psi_R f||_p
    error_integrals: np.ndarray | None  # int |f - Psi_R f|^p w dx (finite p)
    weight_counts: np.ndarray
    slope: float
    slope_so_far: np.ndarray
    threshold: float
    threshold_critical: bool
    passed: bool | None
    parseval_gap: float | None = None
    b1_constant: float | None = None
    lemma1_constant: float | None = None
    probe_growth: float | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def convergence_sweep(f: SampledFunction, es: EigenSystem, p: float, delta: float,
                      R_grid) -> ConvergenceReport:
    """Errors ||f - Psi_R^delta f||_p over an ascending R grid.

    Also records the convergence functional int |f - Psi_R f|^p w dx (whose
    decay is the theorems' convergence statement), the per-R active-mode
    count, prefix slopes, and for p = 2 the gap between the quadrature
    pipeline and the exact coefficient-space (Parseval) expression.
    """
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.ndim != 1 or R_grid.size < 2 or np.any(np.diff(R_grid) <= 0):
        raise ValueError("R_grid must be an ascending sequence of >= 2 radii")
    spec = es.spec
    table = ExponentTable(spec.family, spec.alpha, allow_extended_range=True)
    thr = delta_threshold(table, p)
    means = riesz_means(f.values[None, :], f.rule, es, R_grid, delta)[:, 0]
    errors = _lp_norms(f.values - means, f.rule.weights, p)
    counts = np.searchsorted(es.chi, R_grid)  # the count of chi_n < R
    parseval_gap = None
    if p == 2:
        a2 = np.abs(expansion_coeffs(f, es)) ** 2
        f2 = np.sum(f.rule.weights * np.abs(f.values) ** 2)
        for i, R in enumerate(R_grid):
            w = riesz_weight(es.chi, RieszConfig(R=R, delta=delta))
            oracle_sq = f2 - 2 * np.sum(w * a2) + np.sum(w**2 * a2)
            gap = abs(errors[i] ** 2 - oracle_sq)
            parseval_gap = gap if parseval_gap is None else max(parseval_gap, gap)
    integrals = errors**p if p != math.inf else None
    pos = errors > 0
    slope = float(np.polyfit(np.log(R_grid[pos]), np.log(errors[pos]), 1)[0]) if np.sum(pos) >= 2 else float("nan")
    slope_so_far = np.full(R_grid.size, np.nan)
    for i in range(1, R_grid.size):
        seg = errors[: i + 1]
        if np.all(seg > 0):
            slope_so_far[i] = np.polyfit(np.log(R_grid[: i + 1]), np.log(seg), 1)[0]
    passed = bool(errors[0] / errors[-1] >= 10.0) if delta > thr.value else None
    lemma1 = None
    if 1 < p <= 2:
        lemma1 = calibrate_lemma1(es, f.rule, p, table)[0]
    return ConvergenceReport(
        family=spec.family.value,
        alpha=spec.alpha,
        c=spec.c,
        p=p,
        delta=delta,
        R_grid=R_grid,
        errors=errors,
        error_integrals=integrals,
        weight_counts=counts,
        slope=slope,
        slope_so_far=slope_so_far,
        threshold=thr.value,
        threshold_critical=thr.critical,
        passed=passed,
        parseval_gap=parseval_gap,
        b1_constant=calibrate_b1(es),
        lemma1_constant=lemma1,
    )


def boundary_probes(es: EigenSystem, rule: QuadratureRule, seed: int = 0) -> SampledFunction:
    """Probe block for operator-norm estimates, shape (12, Q) on rule: four
    truncated-kernel bumps centered near the right endpoint, point masses at
    the four outermost quadrature nodes, and four random coefficient vectors.
    Every row is normalized in the grid L^2 norm."""
    lo, hi = rule.interval
    modes = es.rule_modes(rule)
    kernel_cols = es.mode_matrix(hi - (hi - lo) * np.geomspace(1e-6, 0.25, 4))
    rng = np.random.default_rng(seed)
    bumps = kernel_cols.T @ modes
    randoms = rng.standard_normal((4, es.n_retained)) @ modes
    j = np.arange(1, 5)
    masses = np.zeros((4, rule.size))
    masses[j - 1, -j] = 1.0 / rule.weights[-j]
    probes = np.vstack([bumps, masses, randoms])
    scale = _lp_norms(probes, rule.weights, 2.0)
    return SampledFunction(rule=rule, values=probes / scale[:, None])


def operator_norm_probe(es: EigenSystem, p: float, delta: float, R_grid,
                        probes: SampledFunction) -> np.ndarray:
    """Per-R empirical lower bound sup_probes ||Psi_R^delta f||_p / ||f||_p
    over the rows f of the probe block; all radii and probes go through one
    batched synthesis."""
    values, rule = probes.values, probes.rule
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("need a nonempty block of probes, shape (k, Q)")
    denoms = _lp_norms(values, rule.weights, p)
    if np.any(denoms == 0):
        raise ValueError("probes must be nonzero")
    means = riesz_means(values, rule, es, R_grid, delta)
    return np.max(_lp_norms(means, rule.weights, p) / denoms, axis=1)
