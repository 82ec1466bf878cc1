"""Finite weighted Fourier and finite Hankel operators applied by quadrature.

The operators are the compact integral transforms whose eigenfunctions are
the two prolate families; applying them to computed eigenfunctions and
projecting back gives the transform eigenvalues mu_n and a direct numerical
witness that the integral and differential routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, pi

import numpy as np

from .prolate import EigenSystem, Family, _support_rows, require_family_grid
from .specfun import QuadratureRule, _bessel_miller, _bessel_normalised, bessel_j


@dataclass
class SampledFunction:
    """One function, shape (Q,), or a block of k functions, shape (k, Q),
    sampled at the Q nodes of one quadrature rule."""

    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.rule.size:
            raise ValueError("values must have shape (Q,) or (k, Q) on the rule's Q nodes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def apply(self, A: np.ndarray) -> np.ndarray:
        """The quadrature product sum_j A_ij w_j f(y_j) for every function f:
        shape (..., rows of A).  A stack of matrix-vector products, so a block
        is rounded exactly as each of its rows alone."""
        return (A @ (self.rule.weights * self.values)[..., None])[..., 0]


def sample_mode(es: EigenSystem, n: int, rule: QuadratureRule | None = None) -> SampledFunction:
    """Eigenfunction n sampled on rule (default es.default_rule()): row n of
    the rule's mode table."""
    if not 0 <= n < es.n_retained:
        raise ValueError(f"mode {n} is not retained (have {es.n_retained})")
    if rule is None:
        rule = es.default_rule()
    return SampledFunction(rule=rule, values=es.rule_modes(rule)[n])


def _symmetric_kernel(x: np.ndarray, kernel) -> np.ndarray:
    """The Q x Q matrix kernel(x_i, x_j) of a kernel symmetric in (x, y),
    evaluated once per unordered pair i <= j and mirrored.

    kernel takes the pairs' nodes as two flat arrays, the upper triangle in
    row-major order.  Each transform kernel rounds a pair's argument the same
    either way (x_i x_j = x_j x_i and |x_i - x_j| = |x_j - x_i| exactly).  A
    bessel_j value depends on the rest of its batch only through Miller's
    starting order, set by the largest argument in that regime, which is the
    same on the pairs as on all Q^2: the matrix is bit for bit the one from
    all Q^2 evaluations.
    """
    q = x.size
    upper = np.triu(np.ones((q, q), dtype=bool))
    grid = np.broadcast_to(x, (q, q))  # grid[i, j] = x_j, grid.T[i, j] = x_i
    values = kernel(grid.T[upper], grid[upper])
    K = np.empty((q, q), dtype=values.dtype)
    K[upper] = values
    K.T[upper] = values
    return K


def finite_fourier(alpha: float, c: float, f: SampledFunction) -> SampledFunction:
    """Weighted finite Fourier transform: x -> sum_j w_j e^{i c x y_j} f(y_j)."""
    require_family_grid(f.rule, Family.GPSWF, alpha, "finite_fourier")
    K = _symmetric_kernel(f.rule.nodes, lambda x, y: np.exp(1j * c * (x * y)))
    return SampledFunction(rule=f.rule, values=f.apply(K))


def bandlimit_kernel(alpha: float, t) -> np.ndarray:
    """sqrt(pi) 2^(a+1/2) Gamma(a+1) J_{a+1/2}(t) / t^(a+1/2), even in t: the
    Gamma ratio sqrt(pi) Gamma(a+1) / Gamma(a+3/2), taken in log space, times
    Gamma(nu+1) (2/t)^nu J_nu(t), nu = a + 1/2, which is 1 at t = 0.  At
    alpha = 0 this is 2 sin(t)/t with value 2 at t = 0.
    """
    t = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    return np.sqrt(pi) * exp(lgamma(alpha + 1.0) - lgamma(alpha + 1.5)) * _bessel_normalised(alpha + 0.5, t)


def apply_Qc(alpha: float, c: float, f: SampledFunction) -> SampledFunction:
    """Apply the positive operator with kernel (c/2pi) K_alpha(c(x-y)).

    Self-adjoint on L^2 of the weight; equals (c/2pi) F* F on that space.
    """
    require_family_grid(f.rule, Family.GPSWF, alpha, "apply_Qc")
    K = _symmetric_kernel(f.rule.nodes, lambda x, y: bandlimit_kernel(alpha, c * (x - y)))
    return SampledFunction(rule=f.rule, values=f.apply((c / (2 * pi)) * K))


def finite_hankel(alpha: float, c: float, f: SampledFunction) -> SampledFunction:
    """Finite Hankel transform with symmetric kernel sqrt(c x y) J_alpha(c x y)."""
    if alpha < -0.5:
        raise ValueError("alpha must be >= -1/2")
    if c <= 0:
        raise ValueError("finite_hankel requires c > 0")
    require_family_grid(f.rule, Family.CPSWF, alpha, "finite_hankel")

    def kernel(x, y):
        arg = c * (x * y)
        return np.sqrt(arg) * bessel_j(alpha, arg)

    K = _symmetric_kernel(f.rule.nodes, kernel)
    return SampledFunction(rule=f.rule, values=f.apply(K))


def family_transform(es: EigenSystem, f: SampledFunction) -> SampledFunction:
    """The integral transform whose eigenfunctions are es's modes: finite
    Fourier for GPSWF, finite Hankel for CPSWF, at the system's alpha and c."""
    if es.spec.family is Family.GPSWF:
        return finite_fourier(es.spec.alpha, es.spec.c, f)
    return finite_hankel(es.spec.alpha, es.spec.c, f)


# 2^(alpha+1/2) Gamma(alpha+3/2), which mode_transforms forms for GPSWF, is
# e^700 at alpha = 148 and past the float range from 149.6
GPSWF_ALPHA_MAX = 148.0


def mode_transforms(es: EigenSystem, rule: QuadratureRule, count: int) -> SampledFunction:
    """family_transform of modes 0..count-1, in closed form on rule's nodes.

    Each reference basis function's transform is a Bessel function:
      GPSWF  int e^{icxy} p_k(y) (1-y^2)^a dy = f_k sign(x)^k J_{k+a+1/2}(c|x|) / (c|x|)^{a+1/2},
             f_k = i^k sqrt(pi) sqrt((2k+2a+1) Gamma(k+2a+1) / k!)  (Gegenbauer),
      CPSWF  int_0^1 sqrt(cxy) J_a(cxy) T~_k(y) dy = sqrt(2(2k+a+1)) J_{a+2k+1}(cx) / sqrt(cx)
             (the Zernike-Hankel pair).
    So the modes' transforms are (C diag(f_k)) @ J, C the K + 1 rows of
    coeffs the modes span and J every order at every node from one Miller
    pass (specfun._bessel_miller): O(K Q) work, no Q x Q kernel.  At x = 0
    (an odd Gauss-Jacobi rule) J takes its limit.
    """
    require_family_grid(rule, es.spec.family, es.spec.alpha, "mode_transforms")
    if not 1 <= count <= es.n_retained:
        raise ValueError(f"count must lie in 1..{es.n_retained}")
    a, c, x = es.spec.alpha, es.spec.c, rule.nodes
    C = es.coeffs[:, :count]
    C = C[:_support_rows(C)]
    k = np.arange(C.shape[0])
    if es.spec.family is Family.GPSWF:
        nu = a + 0.5
        if a > GPSWF_ALPHA_MAX:
            raise ValueError(f"alpha={a} is too large: 2^(alpha+1/2) Gamma(alpha+3/2) overflows")
        # J times S = 2^nu Gamma(nu + 1) and f_k over S: f_k overflows at large alpha
        scale = lgamma(nu + 1.0) + nu * log(2.0)
        J = _bessel_miller(nu, c * np.abs(x), k.size, power=nu)
        J *= exp(scale)
        J[1::2] *= np.sign(x)
        f = np.sqrt(pi * (2 * k + 2 * a + 1)) * np.exp(
            np.array([0.5 * (lgamma(j + 2 * a + 1) - lgamma(j + 1.0)) - scale for j in k]))
        f[2::4] *= -1.0  # i^k: 1, i, -1, -i
        f[3::4] *= -1.0
        # even rows carry the real part, odd rows the imaginary one
        real = (C[0::2] * f[0::2, None]).T @ J[0::2]
        imag = (C[1::2] * f[1::2, None]).T @ J[1::2]
        return SampledFunction(rule=rule, values=real + 1j * imag)
    J = _bessel_miller(a + 1.0, c * x, 2 * k.size - 1, power=0.5)[0::2]
    f = np.sqrt(2.0 * (2 * k + a + 1))
    return SampledFunction(rule=rule, values=(C * f[:, None]).T @ J)


def rayleigh(g: SampledFunction, f: SampledFunction):
    """Quadrature projection sum_j w_j g(y_j) f(y_j) of g onto the real mode f,
    row by row for blocks: a scalar for one function, shape (k,) for k."""
    return np.sum(f.rule.weights * g.values * f.values, axis=-1)


def estimate_mu(alpha: float, c: float, es: EigenSystem, n: int) -> complex:
    """Transform eigenvalue mu_n of one mode: rayleigh(family_transform(es, f), f)
    for f row n of the default rule's mode table.

    Each call forms its own Q x Q kernel; for several modes pass a block of
    rule_modes rows to family_transform and rayleigh instead, one kernel for
    the block.  For GPSWF the phase of mu_n follows the i^n pattern up to the
    basis sign convention.
    """
    if alpha != es.spec.alpha or c != es.spec.c:
        raise ValueError("alpha/c must match the eigensystem parameters")
    f = sample_mode(es, n)
    return complex(rayleigh(family_transform(es, f), f))
