"""Finite weighted Fourier and finite Hankel operators applied by quadrature.

The operators are the compact integral transforms whose eigenfunctions are
the two prolate families; applying them to computed eigenfunctions and
projecting back gives the transform eigenvalues mu_n and a direct numerical
witness that the integral and differential routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np
from scipy.special import gamma

from .prolate import EigenSystem, Family, require_family_grid
from .specfun import QuadratureRule, bessel_j

# |mu_n| below this is pure rounding noise in double precision; such modes are
# reported as below the noise floor and excluded from relative residual checks
MU_NOISE_FLOOR = 1e-13


@dataclass
class SampledFunction:
    """Function values aligned with the nodes of a quadrature rule."""

    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.rule.size,):
            raise ValueError("values must align with the rule nodes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def to_csv(self) -> str:
        vals = np.asarray(self.values, dtype=complex)
        lines = ["node,re,im"]
        for x, v in zip(self.rule.nodes, vals):
            lines.append(f"{x:.17g},{v.real:.17g},{v.imag:.17g}")
        return "\n".join(lines) + "\n"


def sample_mode(es: EigenSystem, n: int, rule: QuadratureRule | None = None,
                size: int = 512) -> SampledFunction:
    """Eigenfunction n sampled on the family quadrature grid."""
    if rule is None:
        rule = es.default_rule(size)
    return SampledFunction(rule=rule, values=es.eval(n, rule.nodes))


def finite_fourier(alpha: float, c: float, f: SampledFunction) -> SampledFunction:
    """Weighted finite Fourier transform: x -> sum_j w_j e^{i c x y_j} f(y_j)."""
    require_family_grid(f.rule, Family.GPSWF, alpha, "finite_fourier")
    x = f.rule.nodes
    kernel = np.exp(1j * c * np.outer(x, x))
    return SampledFunction(rule=f.rule, values=kernel @ (f.rule.weights * f.values))


def bandlimit_kernel(alpha: float, t) -> np.ndarray:
    """sqrt(pi) 2^(a+1/2) Gamma(a+1) J_{a+1/2}(t) / t^(a+1/2), even in t.

    At alpha = 0 this is 2 sin(t)/t with value 2 at t = 0.
    """
    t = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    out = np.empty_like(t)
    tiny = t < 1e-8
    out[tiny] = np.sqrt(pi) * gamma(alpha + 1) / gamma(alpha + 1.5)
    if np.any(~tiny):
        ts = t[~tiny]
        out[~tiny] = (np.sqrt(pi) * 2 ** (alpha + 0.5) * gamma(alpha + 1)
                      * bessel_j(alpha + 0.5, ts) / ts ** (alpha + 0.5))
    return out


def apply_Qc(alpha: float, c: float, f: SampledFunction) -> SampledFunction:
    """Apply the positive operator with kernel (c/2pi) K_alpha(c(x-y)).

    Self-adjoint on L^2 of the weight; equals (c/2pi) F* F on that space.
    """
    require_family_grid(f.rule, Family.GPSWF, alpha, "apply_Qc")
    x = f.rule.nodes
    K = bandlimit_kernel(alpha, c * (x[:, None] - x[None, :]))
    return SampledFunction(
        rule=f.rule,
        values=(c / (2 * pi)) * K @ (f.rule.weights * f.values),
    )


def finite_hankel(alpha: float, c: float, f: SampledFunction) -> SampledFunction:
    """Finite Hankel transform with symmetric kernel sqrt(c x y) J_alpha(c x y)."""
    if alpha < -0.5:
        raise ValueError("alpha must be >= -1/2")
    if c <= 0:
        raise ValueError("finite_hankel requires c > 0")
    require_family_grid(f.rule, Family.CPSWF, alpha, "finite_hankel")
    x = f.rule.nodes
    arg = c * np.outer(x, x)
    K = np.sqrt(arg) * bessel_j(alpha, arg)
    return SampledFunction(rule=f.rule, values=K @ (f.rule.weights * f.values))


def family_transform(es: EigenSystem, f: SampledFunction) -> SampledFunction:
    """The integral transform whose eigenfunctions are es's modes: finite
    Fourier for GPSWF, finite Hankel for CPSWF, at the system's alpha and c."""
    if es.spec.family is Family.GPSWF:
        return finite_fourier(es.spec.alpha, es.spec.c, f)
    return finite_hankel(es.spec.alpha, es.spec.c, f)


def rayleigh(g: SampledFunction, f: SampledFunction) -> complex:
    """Quadrature projection sum_j w_j g(y_j) f(y_j) of g onto the real mode f."""
    return complex(np.sum(f.rule.weights * g.values * f.values))


def estimate_mu(alpha: float, c: float, es: EigenSystem, n: int,
                size: int = 512) -> complex:
    """Transform eigenvalue mu_n by Rayleigh projection <T phi_n, phi_n>.

    The projection is robust where phi_n has zeros; for GPSWF the phase of
    mu_n follows the i^n pattern up to the basis sign convention.
    """
    if alpha != es.spec.alpha or c != es.spec.c:
        raise ValueError("alpha/c must match the eigensystem parameters")
    if not 0 <= n < es.n_retained:
        raise ValueError(f"mode {n} is not retained")
    f = sample_mode(es, n, size=size)
    return rayleigh(family_transform(es, f), f)
