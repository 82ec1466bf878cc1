"""Galerkin eigenproblems for the two prolate Sturm-Liouville operators.

The generalized family (GPSWF) lives on (-1, 1) with weight (1-x^2)^alpha and
is expanded in orthonormal Jacobi polynomials J~_k^(alpha,alpha); the circular
family (CPSWF) lives on (0, 1) with Lebesgue measure and is expanded in the
radial basis T~_k(x) = sqrt(2(2k+alpha+1)) x^(alpha+1/2) P_k^(alpha,0)(1-2x^2).
Both bases diagonalize the bandwidth-free part of the operator, so the c^2 x^2
term is the only coupling and the Galerkin matrices are banded.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .specfun import (
    QuadratureRule,
    NumericsError,
    gauss_jacobi,
    gauss_legendre_01,
    jacobi_orthonormal_table,
    jacobi_recurrence,
    symtridiag_eigen,
)


class Family(str, Enum):
    GPSWF = "gpswf"
    CPSWF = "cpswf"


class FamilyGrid(NamedTuple):
    """Open domain of a family and the Jacobi weight (1-x)^a (1+x)^b of its
    quadrature rule, before the rule is mapped onto the domain."""

    rule: str
    interval: tuple[float, float]
    a: float
    b: float


def family_grid(family: Family, alpha: float) -> FamilyGrid:
    """GPSWF lives on (-1, 1) with weight (alpha, alpha); CPSWF on (0, 1)
    with Lebesgue weight (0, 0)."""
    if Family(family) is Family.GPSWF:
        return FamilyGrid("Gauss-Jacobi", (-1.0, 1.0), alpha, alpha)
    return FamilyGrid("Gauss-Legendre", (0.0, 1.0), 0.0, 0.0)


def require_family_grid(rule: QuadratureRule, family: Family, alpha: float, what: str):
    """Reject samples that do not sit on the family quadrature grid."""
    g = family_grid(family, alpha)
    if (rule.interval, rule.a, rule.b) != (g.interval, g.a, g.b):
        raise ValueError(
            f"{what}: sample grid does not match the family quadrature "
            f"({g.rule} for weight (1-x)^{g.a} (1+x)^{g.b} on {g.interval})"
        )


@dataclass(frozen=True)
class ProlateSpec:
    """Parameters of one prolate family: weight exponent alpha, bandwidth c,
    Galerkin truncation N, and the fraction of eigenpairs kept as converged."""

    family: Family
    alpha: float
    c: float
    N: int
    keep_fraction: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not np.isfinite(self.alpha) or self.alpha <= -0.5:
            raise ValueError("alpha must be finite and > -1/2")
        if not np.isfinite(self.c) or self.c < 0:
            raise ValueError("bandwidth c must be finite and >= 0")
        if int(self.N) != self.N or self.N < 4:
            raise ValueError("truncation order N must be an integer >= 4")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must lie in (0, 1]")
        if self.N * self.keep_fraction < 1:
            raise ValueError("N * keep_fraction must be >= 1")

    @property
    def theorem_range_ok(self) -> bool:
        """True when alpha sits in the range the convergence theorems cover
        (GPSWF: 0 <= alpha < 3/2, CPSWF: alpha >= 1/2).  Outside it the
        eigenproblem is still well posed and is solved behind a warning."""
        if self.family is Family.GPSWF:
            return 0.0 <= self.alpha < 1.5
        return self.alpha >= 0.5

    @property
    def n_retained(self) -> int:
        return int(np.floor(self.N * self.keep_fraction))


class GalerkinBlocks(NamedTuple):
    """Symmetric tridiagonal blocks (diag, offdiag) of the Galerkin matrix.

    GPSWF couples only basis indices of equal parity, giving an even and an
    odd block; CPSWF is tridiagonal in a single block (odd block empty).
    """

    even: tuple[np.ndarray, np.ndarray]
    odd: tuple[np.ndarray, np.ndarray]


def x2_jacobi_couplings(alpha: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """<x^2 J~_k, J~_j> for the symmetric Jacobi basis: diagonal (j = k) and
    second superdiagonal (j = k+2), from the three-term recurrence."""
    _, beta = jacobi_recurrence(N + 2, alpha, alpha)
    k = np.arange(N)
    diag = beta[k + 1] + np.where(k >= 1, beta[k], 0.0)
    off2 = np.sqrt(beta[k[:-2] + 1] * beta[k[:-2] + 2])
    return diag, off2


def build_galerkin(spec: ProlateSpec) -> GalerkinBlocks:
    """Assemble the banded Galerkin matrix of the Sturm-Liouville operator.

    GPSWF: M_kj = k(k+2a+1) delta_kj + c^2 <x^2 J~_k, J~_j>, nonzero only for
    |k-j| in {0, 2}.  CPSWF: M_kj = (2k+a+1/2)(2k+a+3/2) delta_kj
    + c^2 <x^2 T~_k, T~_j>, nonzero only for |k-j| in {0, 1}.
    """
    a, c2, N = spec.alpha, spec.c**2, spec.N
    if spec.family is Family.GPSWF:
        k = np.arange(N, dtype=float)
        x2d, x2o = x2_jacobi_couplings(a, N)
        diag = k * (k + 2 * a + 1) + c2 * x2d
        off = c2 * x2o  # couples k and k+2
        even = (diag[0::2], off[0::2])
        odd = (diag[1::2], off[1::2])
        return GalerkinBlocks(even=even, odd=odd)
    # CPSWF: in the T~ basis, <x^2 T~_k, T~_j> = (1 - alpha_k)/2 on the
    # diagonal and -sqrt(beta_{k+1})/2 on the first off-diagonal, with
    # alpha_k, beta_k the (a, 0) Jacobi recurrence coefficients in u = 1-2x^2.
    rec_a, rec_b = jacobi_recurrence(N + 1, a, 0.0)
    k = np.arange(N, dtype=float)
    diag = (2 * k + a + 0.5) * (2 * k + a + 1.5) + c2 * (1.0 - rec_a[:N]) / 2.0
    off = -c2 * np.sqrt(rec_b[1:N]) / 2.0
    empty = (np.empty(0), np.empty(0))
    return GalerkinBlocks(even=(diag, off), odd=empty)


@dataclass
class EigenSystem:
    """Retained eigenpairs of one prolate family.

    chi is strictly ascending; column n of coeffs expands the n-th
    eigenfunction in the reference basis.  Columns are orthonormal and carry
    the sign convention that their largest-magnitude entry is positive.
    """

    spec: ProlateSpec
    chi: np.ndarray
    coeffs: np.ndarray
    parity: np.ndarray | None = field(default=None)

    @property
    def n_retained(self) -> int:
        return self.chi.size

    @property
    def certified_max(self) -> float:
        """Largest eigenvalue of the retained (converged) range; summation
        radii must stay at or below it."""
        return float(self.chi[-1])

    def check_radius(self, R: float):
        """Reject a summation radius beyond the certified spectral range:
        truncating the sum there would silently bias the result."""
        if R > self.certified_max:
            raise ValueError(
                f"R exceeds certified spectrum (R={R}, certified max={self.certified_max})"
            )

    def default_rule(self, size: int = 512) -> QuadratureRule:
        """The family quadrature: Gauss-Jacobi for the GPSWF weight on
        (-1, 1), Gauss-Legendre mapped to (0, 1) for CPSWF."""
        if self.spec.family is Family.GPSWF:
            return gauss_jacobi(size, self.spec.alpha, self.spec.alpha)
        return gauss_legendre_01(size)

    def _check_domain(self, x: np.ndarray):
        lo, hi = family_grid(self.spec.family, self.spec.alpha).interval
        if np.any(x <= lo) or np.any(x >= hi):
            raise ValueError(f"evaluation points must lie in the open interval ({lo}, {hi})")

    def basis_matrix(self, x, check_domain: bool = True) -> np.ndarray:
        """Reference-basis values, shape (N, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if check_domain:
            self._check_domain(x)
        a, N = self.spec.alpha, self.spec.N
        if self.spec.family is Family.GPSWF:
            return jacobi_orthonormal_table(N, a, a, x)
        u = 1.0 - 2.0 * x * x
        envelope = 2 ** ((a + 2) / 2.0) * x ** (a + 0.5)
        return jacobi_orthonormal_table(N, a, 0.0, u) * envelope

    def mode_matrix(self, x, check_domain: bool = True) -> np.ndarray:
        """All retained eigenfunctions at x, shape (n_retained, len(x))."""
        return self.coeffs.T @ self.basis_matrix(x, check_domain=check_domain)

    def eval(self, n: int, x):
        """Eigenfunction n by synthesis of its coefficient column."""
        if not 0 <= n < self.n_retained:
            raise ValueError(f"mode {n} is not retained (have {self.n_retained})")
        scalar = np.isscalar(x) or np.ndim(x) == 0
        vals = self.coeffs[:, n] @ self.basis_matrix(x)
        return float(vals[0]) if scalar else vals

    def lower_bounds(self) -> np.ndarray:
        n = np.arange(self.n_retained, dtype=float)
        a = self.spec.alpha
        if self.spec.family is Family.GPSWF:
            return n * (n + 2 * a + 1)
        return (2 * n + a + 0.5) * (2 * n + a + 1.5)

    def upper_bounds(self) -> np.ndarray:
        return self.lower_bounds() + self.spec.c**2

    def to_dict(self) -> dict:
        return {
            "family": self.spec.family.value,
            "alpha": self.spec.alpha,
            "c": self.spec.c,
            "N": self.spec.N,
            "chi": self.chi.tolist(),
            "coeffs": self.coeffs.tolist(),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """One row per retained n: n, chi, lower_bound, upper_bound."""
        lo, hi = self.lower_bounds(), self.upper_bounds()
        lines = ["n,chi,lower_bound,upper_bound"]
        for n in range(self.n_retained):
            lines.append(f"{n},{self.chi[n]:.17g},{lo[n]:.17g},{hi[n]:.17g}")
        return "\n".join(lines) + "\n"


def solve(spec: ProlateSpec) -> EigenSystem:
    """Solve the Galerkin eigenproblem and keep the converged leading pairs.

    Block spectra are merged and sorted ascending; the first
    floor(N * keep_fraction) pairs are retained, each column gets the
    positive-leading-coefficient sign convention and (GPSWF) a parity tag.
    """
    if not spec.theorem_range_ok:
        warnings.warn(
            f"alpha={spec.alpha} lies outside the convergence-theorem range for "
            f"{spec.family.value}; eigensystem is computed but theorem-based "
            "thresholds are not asserted there",
            stacklevel=2,
        )
    blocks = build_galerkin(spec)
    N = spec.N
    chi_parts, col_parts, parity_parts = [], [], []
    for offset, (diag, off) in ((0, blocks.even), (1, blocks.odd)):
        if diag.size == 0:
            continue
        w, v = symtridiag_eigen(diag, off)
        cols = np.zeros((N, w.size))
        if spec.family is Family.GPSWF:
            cols[offset::2] = v
        else:
            cols[:, :] = v
        chi_parts.append(w)
        col_parts.append(cols)
        parity_parts.append(np.full(w.size, offset))
    chi = np.concatenate(chi_parts)
    cols = np.concatenate(col_parts, axis=1)
    parity = np.concatenate(parity_parts)
    order = np.argsort(chi)
    m = spec.n_retained
    chi, cols, parity = chi[order][:m], cols[:, order][:, :m], parity[order][:m]
    if np.any(np.diff(chi) <= 0):
        raise NumericsError("merged spectrum is not strictly increasing")
    lead = np.argmax(np.abs(cols), axis=0)
    flip = cols[lead, np.arange(m)] < 0
    cols[:, flip] = -cols[:, flip]
    return EigenSystem(
        spec=spec,
        chi=chi,
        coeffs=cols,
        parity=parity if spec.family is Family.GPSWF else None,
    )


def check_bounds(es: EigenSystem, slack: float | None = None) -> np.ndarray:
    """Per-n flags for the eigenvalue sandwich
    lower(n) <= chi_n <= lower(n) + c^2, with floating-point slack."""
    if slack is None:
        slack = 1e-8 * (1.0 + es.spec.c**2)
    lo, hi = es.lower_bounds(), es.upper_bounds()
    return (es.chi >= lo - slack) & (es.chi <= hi + slack)
