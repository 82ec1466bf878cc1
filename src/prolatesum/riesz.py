"""Summation with spectral weight (1 - chi/R)_+^delta, its Littlewood-Paley
style dyadic decomposition, and the critical-exponent tables of the two
convergence theorems."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .prolate import EigenSystem, Family, require_family_grid
from .specfun import QuadratureRule
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
    t = 1.0 - np.asarray(chi, dtype=float) / cfg.R
    out = np.maximum(t, 0.0) ** cfg.delta
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

    Built so that bump(t) + bump(2t) = 1 holds exactly in floating point on
    [1/2, 1], which makes sum_k bump(2^k t) = 1 exact for every t > 0.
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

    The sum is 1 for t <= 1/2 and 0 for t >= 1, and on (1/2, 1) only its
    k = 1 term is nonzero, so phi_0 is 0 for t <= 1/2, 1 - bump(2t) on
    (1/2, 1) and 1 for t >= 1.
    """
    t_arr = np.asarray(t, dtype=float)
    out = np.where(t_arr >= 1.0, 1.0, 0.0)
    mid = (t_arr > 0.5) & (t_arr < 1.0)
    out[mid] = 1.0 - bump(2.0 * t_arr[mid])
    return float(out) if np.ndim(t) == 0 else out


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
    out = t**cfg.delta * bump(scaled)
    return float(out) if np.ndim(chi) == 0 else out


def bump_zero_piece(chi, cfg: RieszConfig):
    """Head of the decomposition: phi_0(1 - chi/R) (1 - chi/R)_+^delta."""
    t = np.maximum(1.0 - np.asarray(chi, dtype=float) / cfg.R, 0.0)
    out = t**cfg.delta * bump_zero(t)
    return float(out) if np.ndim(chi) == 0 else out


def dyadic_tail(chi, cfg: RieszConfig):
    """Sum of the dyadic pieces beyond the cutoff k = floor(log2 R).

    Piece k vanishes unless 2^k t < 2 for t = 1 - chi/R, so the sum stops
    at the smallest positive t.
    """
    chi_arr = np.asarray(chi, dtype=float)
    t = 1.0 - chi_arr / cfg.R
    k_hi = int(np.ceil(1.0 - np.log2(np.min(t, where=t > 0, initial=2.0))))
    out = np.zeros_like(t)
    for k in range(dyadic_cutoff(cfg) + 1, k_hi + 1):
        out = out + dyadic_piece(chi_arr, cfg, k)
    return float(out) if np.ndim(chi) == 0 else out


# ---------------------------------------------------------------------------
# expansion, synthesis, kernel
# ---------------------------------------------------------------------------

def expansion_coeffs(f: SampledFunction, es: EigenSystem) -> np.ndarray:
    """Coefficients a_n = sum_j w_j f(y_j) phi_n(y_j) for every retained n:
    shape (m,) for one function, (k, m) for a block of k."""
    require_family_grid(f.rule, es.spec.family, es.spec.alpha, "expansion_coeffs")
    return f.apply(es.rule_modes(f.rule))


def riesz_means(values, rule: QuadratureRule, es: EigenSystem, R_grid,
                delta: float) -> np.ndarray:
    """Synthesis sum_n (1 - chi_n/R)_+^delta a_n(f) phi_n for every radius R
    in R_grid and every row f of values (shape (P, Q), sampled on rule).

    Returns shape (len(R_grid), P, Q).  expansion_coeffs projects every
    input, a_f = Phi (w * f) with Phi = es.rule_modes(rule) (m x Q), and one
    matrix product synthesises every (R, f) pair from the weight matrix W
    (m x |R|).  No R may exceed the certified spectral range: truncating the
    sum beyond the retained modes would silently bias the result.
    """
    f = SampledFunction(rule=rule, values=values)
    R_grid = np.asarray(R_grid, dtype=float)
    if f.values.ndim != 2:
        raise ValueError("values must have shape (P, rule.size)")
    if R_grid.ndim != 1 or R_grid.size < 1:
        raise ValueError("R_grid must be a nonempty 1-d sequence")
    W = np.stack([riesz_weight(es.chi, RieszConfig(R=R, delta=delta)) for R in R_grid], axis=1)
    es.check_radius(float(np.max(R_grid)))
    A = expansion_coeffs(f, es)  # (P, m)
    means = (W.T[:, None, :] * A).reshape(-1, es.n_retained) @ es.rule_modes(rule)
    return means.reshape(R_grid.size, A.shape[0], rule.size)


def riesz_mean(f: SampledFunction, es: EigenSystem, cfg: RieszConfig) -> SampledFunction:
    """Synthesis at one radius for one function: riesz_means with |R| = P = 1."""
    values = riesz_means(f.values[None, :], f.rule, es, [cfg.R], cfg.delta)[0, 0]
    return SampledFunction(rule=f.rule, values=values)


def riesz_kernel_table(es: EigenSystem, cfg: RieszConfig, points) -> np.ndarray:
    """K_R^delta(x_i, x_j) = sum_n (1 - chi_n/R)_+^delta phi_n(x_i) phi_n(x_j)
    for every pair of points, exactly symmetric: the upper triangle mirrored."""
    es.check_radius(cfg.R)
    w = riesz_weight(es.chi, cfg)
    modes = es.mode_matrix(points)
    K = (modes * w[:, None]).T @ modes
    return np.triu(K) + np.triu(K, 1).T


def riesz_kernel(es: EigenSystem, cfg: RieszConfig, x, y) -> float:
    """K_R^delta(x, y): the table on the sorted pair, so exactly symmetric."""
    lo, hi = sorted((float(x), float(y)))
    return float(riesz_kernel_table(es, cfg, np.array([lo, hi]))[0, 1])


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


@dataclass(frozen=True)
class ExponentTable:
    """Exponents of one family's convergence theorem: the norm-growth
    exponent gamma(p), the critical pair (p_0, p'_0), and the eigenvalue
    growth exponent (chi_n >= C n^epsilon with epsilon = 2).

    GPSWF (weighted family), with p_0 = 2 - 1/(alpha + 3/2):

        gamma(p) = alpha + 1                        p = 1
                   0                                1 < p < p'_0
                   eps_choice                       p = p'_0
                   2(alpha + 1)(1/2 - 1/p) - 1/2    p > p'_0

    for 0 <= alpha < 3/2, or any alpha > -1/2 with allow_extended_range
    (where the theorem gives sufficiency only).

    CPSWF (circular family), with p_0 = 4/3 and so p'_0 = 4:

        gamma(p) = 1                   p = 1
                   1/p - 1/2           1 < p < 4
                   eps_choice - 1/4    p = 4
                   (1/3)(1/p - 1)      p > 4

    eps_choice is the theorems' arbitrary positive epsilon on the critical
    line.  Both tables are implemented verbatim from the stated theorems.
    """

    family: Family
    alpha: float
    eps_choice: float = 0.01
    allow_extended_range: bool = False

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not np.isfinite(self.alpha) or self.alpha <= -0.5:
            raise ValueError("alpha must be finite and > -1/2")
        if not self.eps_choice > 0:
            raise ValueError("eps_choice must be positive")
        if (self.family is Family.GPSWF and not self.allow_extended_range
                and not 0.0 <= self.alpha < 1.5):
            raise ValueError(
                "alpha outside [0, 3/2); pass allow_extended_range=True to use the "
                "sufficiency-only range alpha > -1/2"
            )

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
        """gamma(p) from the family's table; p = inf is allowed."""
        if not p >= 1:
            raise ValueError("p must be >= 1")
        inv_p = 0.0 if p == math.inf else 1.0 / p
        if self.family is Family.GPSWF:
            if p == 1:
                return self.alpha + 1.0
            if _near(p, self.p0_dual):
                return self.eps_choice
            if p < self.p0_dual:
                return 0.0
            return 2.0 * (self.alpha + 1.0) * (0.5 - inv_p) - 0.5
        if p == 1:
            return 1.0
        if _near(p, 4.0):
            return self.eps_choice - 0.25
        if p < 4.0:
            return inv_p - 0.5
        return (inv_p - 1.0) / 3.0


class DeltaThreshold(NamedTuple):
    value: float
    critical: bool


def delta_threshold(table: ExponentTable, p: float) -> DeltaThreshold:
    """Critical smoothness max(gamma(p')/2, 0) for convergence in L^p.

    `critical` flags the weighted family's excluded exponent p = p_0
    (equivalently p' = p'_0), where the threshold involves the arbitrary
    eps_choice; the circular family's theorem excludes no exponent.
    """
    if not p >= 1:  # gamma(p') alone would pass p = -1e300, whose p' rounds to 1
        raise ValueError("p must be >= 1")
    p_dual = dual_exponent(p)
    crit = (table.family is Family.GPSWF and p_dual != math.inf
            and _near(p_dual, table.p0_dual))
    return DeltaThreshold(value=max(table.gamma(p_dual) / 2.0, 0.0), critical=crit)
