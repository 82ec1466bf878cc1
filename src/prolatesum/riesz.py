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


def _gap(chi, cfg: RieszConfig) -> np.ndarray:
    """t = 1 - chi/R clipped to [0, 1], the variable of the weight and of its
    dyadic pieces."""
    return np.clip(1.0 - np.asarray(chi, dtype=float) / cfg.R, 0.0, 1.0)


def riesz_weight(chi, cfg: RieszConfig):
    """(1 - chi/R)^delta for 0 <= chi < R, 1 below and zero beyond; values in
    [0, 1]."""
    out = _gap(chi, cfg) ** cfg.delta
    return float(out) if np.ndim(chi) == 0 else out


# ---------------------------------------------------------------------------
# smooth dyadic partition of unity, all from the one cutoff phi_0
# ---------------------------------------------------------------------------

def bump_zero(t):
    """phi_0(t) = S(2t - 1), with S(u) = e(u)/(e(u) + e(1-u)) and
    e(u) = exp(-1/u): 0 for t <= 1/2, 1 for t >= 1, NaN for NaN.

    The exps are taken only where 0 < 2t - 1 < 1, so the two calls in bump
    spend them on disjoint halves of its support.  Every step runs in place:
    besides the output it holds at most two arrays the size of t.
    """
    u = np.array(t, dtype=float)  # a copy, which becomes the output
    u *= 2.0
    u -= 1.0
    mid = (u > 0.0) & (u < 1.0)
    eu = u[mid]
    ev = np.subtract(1.0, eu)
    np.clip(u, 0.0, 1.0, out=u)  # 0 for u <= 0, 1 for u >= 1; NaN stays NaN
    np.exp(np.divide(-1.0, eu, out=eu), out=eu)
    np.exp(np.divide(-1.0, ev, out=ev), out=ev)
    ev += eu
    u[mid] = np.divide(eu, ev, out=eu)
    return float(u) if np.ndim(t) == 0 else u


def bump(t):
    """psi(t) = phi_0(t) - phi_0(t/2): smooth, supported on [1/2, 2], with
    psi(1) = 1.

    For t in [1/2, 1] the only nonzero terms of sum_k bump(2^k t) are
    bump(t) = phi_0(t) and bump(2t) = 1 - phi_0(t), so the sum is 1 to
    rounding for every t > 0.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.5) & (t < 2.0)  # the open support; +0.0 elsewhere
    ti = t[inside]
    out[inside] = bump_zero(ti) - bump_zero(ti / 2.0)
    return float(out) if np.ndim(t) == 0 else out


def dyadic_cutoff(cfg: RieszConfig) -> int:
    """Number K of dyadic pieces kept in the decomposition:
    max(floor(log R / log 2), 0)."""
    return max(int(math.floor(math.log(cfg.R) / math.log(2.0))), 0)


# dyadic_split's index for t = 0 (chi >= R) and NaN: past every piece, as a
# positive t is at least 2^-1074, so k <= 1073 and pieces past 1074 are +0.0
_PAST = np.iinfo(np.intc).max


def dyadic_split(chi, cfg: RieszConfig):
    """Every dyadic piece at every point from one phi_0 evaluation.

    Write t = 1 - chi/R, clipped to [0, 1], as m 2^e with m in [1/2, 1).
    Then 2^j t lies in bump's open support (1/2, 2) only for j = -e (when
    m > 1/2) and for j = 1 - e, where bump(m) = phi_0(m) and
    bump(2m) = 1 - phi_0(m).  Returns (k, lower, upper) with k = -e,
    lower = t^delta phi_0(m) and upper = t^delta (1 - phi_0(m)):
    dyadic_piece(chi, cfg, j) is lower where k == j, upper where
    k == j - 1, and +0.0 elsewhere.  t = 0 and NaN get an index past every
    piece, so k does not decrease along an ascending chi.  Scalars for a
    scalar chi.
    """
    t = np.atleast_1d(_gap(chi, cfg))
    m, k = np.frexp(t)
    np.negative(k, out=k)
    k[~(m > 0.0)] = _PAST
    t **= cfg.delta
    lower = bump_zero(m)
    upper = np.subtract(1.0, lower, out=m)
    upper *= t
    lower *= t
    if np.ndim(chi) == 0:
        return int(k[0]), float(lower[0]), float(upper[0])
    return k, lower, upper


def dyadic_piece(chi, cfg: RieszConfig, k: int):
    """Localized multiplier t^delta * bump(2^k t), t = 1 - chi/R clipped to
    [0, 1], bounded by 2^delta 2^{-k delta}; read from dyadic_split.

    Piece k = 0 is the head t^delta phi_0(t), since bump = phi_0 on t <= 1.
    Piece k >= 1 is supported in chi inside (R(1 - 2^{1-k}), R(1 - 2^{-k-1})).
    """
    if k < 0:
        raise ValueError("dyadic index k must be >= 0")
    index, lower, upper = dyadic_split(chi, cfg)
    j = min(k, _PAST - 1)  # selects no point: every piece past 1074 is +0.0
    out = np.where(index == j, lower, np.where(index == j - 1, upper, 0.0))
    return float(out) if np.ndim(chi) == 0 else out


def dyadic_tail(chi, cfg: RieszConfig):
    """Sum of the dyadic pieces k > K = dyadic_cutoff(cfg), in closed form:
    sum_{k>K} bump(2^k t) = 1 - phi_0(2^K t)."""
    t = _gap(chi, cfg)
    with np.errstate(over="ignore"):  # K = 1024 only for R near the float max; phi_0(inf) = 1
        out = t**cfg.delta * (1.0 - bump_zero(np.ldexp(t, dyadic_cutoff(cfg))))
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
