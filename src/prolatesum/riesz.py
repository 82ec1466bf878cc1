"""Summation with spectral weight (1 - chi/R)_+^delta, its Littlewood-Paley
style dyadic decomposition, and the critical-exponent tables of the two
convergence theorems."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .prolate import EigenSystem, Family, require_family_grid
from .transforms import SampledFunction


@dataclass(frozen=True)
class RieszConfig:
    """Summation radius R and smoothness index delta."""

    R: float
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.R) and self.R > 0):
            raise ValueError("R must be finite and positive")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and positive")


def riesz_weight(chi, cfg: RieszConfig):
    """(1 - chi/R)^delta for chi < R, zero beyond; values in [0, 1]."""
    chi_arr = np.asarray(chi, dtype=float)
    t = 1.0 - chi_arr / cfg.R
    out = np.where(t > 0, np.maximum(t, 0.0) ** cfg.delta, 0.0)
    return float(out) if np.ndim(chi) == 0 else out


# ---------------------------------------------------------------------------
# smooth dyadic partition of unity
# ---------------------------------------------------------------------------

def _smooth_step(u):
    """C^inf step: 0 for u <= 0, 1 for u >= 1, e(u)/(e(u)+e(1-u)) between,
    with e(u) = exp(-1/u)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        eu = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
        ev = np.where(1 - u > 0, np.exp(-1.0 / np.where(1 - u > 0, 1 - u, 1.0)), 0.0)
    return eu / (eu + ev)


def bump(t):
    """Smooth bump supported exactly on [1/2, 2] with bump(1) = 1.

    Built so that bump(t) + bump(2t) = 1 holds bit-for-bit on [1/2, 1],
    which makes sum_k bump(2^k t) = 1 exact for every t > 0.
    """
    t_arr = np.asarray(t, dtype=float)
    rising = (t_arr >= 0.5) & (t_arr <= 1.0)
    falling = (t_arr > 1.0) & (t_arr <= 2.0)
    out = np.zeros_like(t_arr)
    out[rising] = _smooth_step(2.0 * t_arr[rising] - 1.0)
    out[falling] = 1.0 - _smooth_step(t_arr[falling] - 1.0)
    return float(out) if np.ndim(t) == 0 else out


def bump_zero(t):
    """phi_0(t) = 1 - sum_{k>=1} bump(2^k t) for t > 0 (0 for t <= 0).

    Equals 1 for t >= 1 and vanishes for t <= 1/4.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    if np.any(pos):
        tp = t_arr[pos]
        acc = np.ones_like(tp)
        kmax = int(np.ceil(1.0 - np.log2(np.min(tp)))) if np.min(tp) < 2 else 0
        with np.errstate(over="ignore"):
            for k in range(1, max(kmax, 0) + 1):
                acc = acc - bump(np.ldexp(tp, k))
        out[pos] = acc
    return float(out[0]) if np.ndim(t) == 0 else out


def dyadic_cutoff(cfg: RieszConfig) -> int:
    """Number of dyadic pieces kept in the decomposition: floor(log R / log 2)."""
    return int(math.floor(math.log(cfg.R) / math.log(2.0)))


def dyadic_piece(chi, cfg: RieszConfig, k: int):
    """Localized multiplier (1 - chi/R)_+^delta * bump(2^k (1 - chi/R)).

    Supported in chi inside (R(1 - 2^{1-k}), R(1 - 2^{-k-1})) and bounded by
    2^delta 2^{-k delta}.
    """
    if k < 1:
        raise ValueError("dyadic index k must be >= 1")
    chi_arr = np.asarray(chi, dtype=float)
    t = np.maximum(1.0 - chi_arr / cfg.R, 0.0)
    with np.errstate(over="ignore"):
        scaled = np.ldexp(t, min(k, 2100))  # overflow to inf lands outside the bump support
    out = np.where(t > 0, t**cfg.delta * bump(scaled), 0.0)
    return float(out) if np.ndim(chi) == 0 else out


def bump_zero_piece(chi, cfg: RieszConfig):
    """Head of the decomposition: phi_0(1 - chi/R) (1 - chi/R)_+^delta."""
    chi_arr = np.asarray(chi, dtype=float)
    t = 1.0 - chi_arr / cfg.R
    out = np.where(t > 0, np.maximum(t, 0.0) ** cfg.delta * bump_zero(np.maximum(t, 0.0)), 0.0)
    return float(out) if np.ndim(chi) == 0 else out


def dyadic_tail(chi, cfg: RieszConfig):
    """Sum of the dyadic pieces beyond the cutoff k = floor(log2 R)."""
    chi_arr = np.atleast_1d(np.asarray(chi, dtype=float))
    t = 1.0 - chi_arr / cfg.R
    out = np.zeros_like(chi_arr)
    pos = t > 0
    if np.any(pos):
        tmin = np.min(t[pos])
        k_hi = int(np.ceil(1.0 - np.log2(tmin))) if tmin < 2 else 0
        acc = np.zeros(int(np.sum(pos)))
        for k in range(dyadic_cutoff(cfg) + 1, max(k_hi, dyadic_cutoff(cfg)) + 1):
            acc = acc + dyadic_piece(chi_arr[pos], cfg, k)
        out[pos] = acc
    return float(out[0]) if np.ndim(chi) == 0 else out


# ---------------------------------------------------------------------------
# expansion, synthesis, kernel
# ---------------------------------------------------------------------------

def expansion_coeffs(f: SampledFunction, es: EigenSystem) -> np.ndarray:
    """Coefficients a_n = sum_j w_j f(y_j) phi_n(y_j) for every retained n."""
    require_family_grid(f.rule, es.spec.family, es.spec.alpha, "expansion_coeffs")
    modes = es.mode_matrix(f.rule.nodes)
    return modes @ (f.rule.weights * f.values)


def riesz_mean(f: SampledFunction, es: EigenSystem, cfg: RieszConfig) -> SampledFunction:
    """Synthesis sum_n (1 - chi_n/R)_+^delta a_n(f) phi_n on the sample grid.

    R may not exceed the certified spectral range: truncating the sum beyond
    the retained modes would silently bias the result.
    """
    es.check_radius(cfg.R)
    require_family_grid(f.rule, es.spec.family, es.spec.alpha, "riesz_mean")
    modes = es.mode_matrix(f.rule.nodes)
    a = modes @ (f.rule.weights * f.values)
    w = riesz_weight(es.chi, cfg)
    return SampledFunction(rule=f.rule, values=(w * a) @ modes)


def riesz_kernel(es: EigenSystem, cfg: RieszConfig, x, y) -> float:
    """K_R^delta(x, y) = sum_n (1 - chi_n/R)_+^delta phi_n(x) phi_n(y)."""
    es.check_radius(cfg.R)
    w = riesz_weight(es.chi, cfg)
    px = es.mode_matrix(np.atleast_1d(float(x)))[:, 0]
    py = es.mode_matrix(np.atleast_1d(float(y)))[:, 0]
    # px*py first so the value is exactly symmetric in (x, y)
    return float(np.sum(w * (px * py)))


# ---------------------------------------------------------------------------
# critical exponents (convergence theorems)
# ---------------------------------------------------------------------------

def dual_exponent(p: float) -> float:
    """p' = p/(p-1), with the conventions 1' = inf and inf' = 1."""
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _near(p: float, q: float) -> bool:
    # branch detection on the measure-zero lines, tolerant to float rounding
    return math.isclose(p, q, rel_tol=1e-12)


def gamma_gpswf(alpha: float, p: float, eps_choice: float = 0.01,
                allow_extended_range: bool = False) -> float:
    """Norm-growth exponent gamma_alpha(p) of the weighted-family theorem.

    Piecewise: alpha+1 at p=1, 0 below the dual critical exponent p'_0,
    the arbitrary positive eps_choice on the critical line p = p'_0, and
    2(alpha+1)(1/2 - 1/p) - 1/2 above it, with p'_0 dual to
    p_0 = 2 - 1/(alpha + 3/2).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if eps_choice <= 0:
        raise ValueError("eps_choice must be positive")
    if not allow_extended_range and not 0.0 <= alpha < 1.5:
        raise ValueError(
            "alpha outside [0, 3/2); pass allow_extended_range=True to use the "
            "sufficiency-only range alpha > -1/2"
        )
    if alpha <= -0.5:
        raise ValueError("alpha must be > -1/2")
    p0 = 2.0 - 1.0 / (alpha + 1.5)
    p0_dual = dual_exponent(p0)
    if p == 1:
        return alpha + 1.0
    if _near(p, p0_dual):
        return eps_choice
    if p < p0_dual:
        return 0.0
    inv_p = 0.0 if p == math.inf else 1.0 / p
    return 2.0 * (alpha + 1.0) * (0.5 - inv_p) - 0.5


def gamma_cpswf(p: float, eps_choice: float = 0.01) -> float:
    """Norm-growth exponent gamma(p) of the circular-family theorem:
    1 at p=1, 1/p - 1/2 for 1 < p < 4, eps_choice - 1/4 at p = 4, and
    (1/3)(1/p - 1) for p > 4, implemented verbatim from the stated table."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if eps_choice <= 0:
        raise ValueError("eps_choice must be positive")
    if p == 1:
        return 1.0
    if _near(p, 4.0):
        return eps_choice - 0.25
    inv_p = 0.0 if p == math.inf else 1.0 / p
    if p < 4.0:
        return inv_p - 0.5
    return (inv_p - 1.0) / 3.0


@dataclass(frozen=True)
class ExponentTable:
    """Family exponents: gamma(p), the critical pair (p_0, p'_0), and the
    eigenvalue growth exponent (chi_n >= C n^epsilon with epsilon = 2)."""

    family: Family
    alpha: float
    eps_choice: float = 0.01
    allow_extended_range: bool = False

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.eps_choice <= 0:
            raise ValueError("eps_choice must be positive")

    @property
    def epsilon(self) -> float:
        return 2.0

    @property
    def p0(self) -> float:
        if self.family is Family.GPSWF:
            return 2.0 - 1.0 / (self.alpha + 1.5)
        return 4.0 / 3.0

    @property
    def p0_dual(self) -> float:
        return dual_exponent(self.p0)

    def gamma(self, p: float) -> float:
        if self.family is Family.GPSWF:
            return gamma_gpswf(self.alpha, p, eps_choice=self.eps_choice,
                               allow_extended_range=self.allow_extended_range)
        return gamma_cpswf(p, eps_choice=self.eps_choice)


class DeltaThreshold(NamedTuple):
    value: float
    critical: bool


def delta_threshold(table: ExponentTable, p: float) -> DeltaThreshold:
    """Critical smoothness max(gamma(p')/2, 0) for convergence in L^p.

    `critical` flags the weighted family's excluded exponent p = p_0
    (equivalently p' = p'_0), where the threshold involves the arbitrary
    eps_choice; the circular family's theorem excludes no exponent.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    p_dual = dual_exponent(p)
    crit = (table.family is Family.GPSWF and p_dual != math.inf
            and _near(p_dual, table.p0_dual))
    return DeltaThreshold(value=max(table.gamma(p_dual) / 2.0, 0.0), critical=crit)
