"""Galerkin eigenproblems for the two prolate Sturm-Liouville operators.

The generalized family (GPSWF) lives on (-1, 1) with weight (1-x^2)^alpha and
is expanded in orthonormal Jacobi polynomials J~_k^(alpha,alpha); the circular
family (CPSWF) lives on (0, 1) with Lebesgue measure and is expanded in the
radial basis T~_k(x) = sqrt(2(2k+alpha+1)) x^(alpha+1/2) P_k^(alpha,0)(1-2x^2).
Both bases diagonalize the bandwidth-free part of the operator, so the c^2 x^2
term is the only coupling and the Galerkin matrices are banded.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=16)
def _family_rule(grid: FamilyGrid, size: int) -> QuadratureRule:
    # each rule is built once per process (the 16 latest are kept) and shared
    if grid.interval == (-1.0, 1.0):
        return gauss_jacobi(size, grid.a, grid.b)
    return gauss_legendre_01(size)


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
        # c * c enters every Galerkin block, so it must be finite too (c <= 1.34e154)
        if not (np.isfinite(float(self.c) * float(self.c)) and self.c >= 0):
            raise ValueError("bandwidth c must be >= 0 with a finite square c*c")
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


class GalerkinBlock(NamedTuple):
    """One symmetric tridiagonal block (diag, off) of the Galerkin matrix, the
    basis rows it couples, so that its eigenvectors fill coeffs[rows], and
    tail, the untruncated operator's coupling of its last row to the next."""

    rows: slice
    diag: np.ndarray
    off: np.ndarray
    tail: float


def _free_spectrum(spec: ProlateSpec, size: int) -> np.ndarray:
    """Eigenvalues k = 0..size-1 of the operator at c = 0, which the reference
    basis diagonalizes: k(k+2a+1) for GPSWF, (2k+a+1/2)(2k+a+3/2) for CPSWF."""
    k = np.arange(size, dtype=float)
    a = spec.alpha
    if spec.family is Family.GPSWF:
        return k * (k + 2 * a + 1)
    return (2 * k + a + 0.5) * (2 * k + a + 1.5)


def build_galerkin(spec: ProlateSpec) -> tuple[GalerkinBlock, ...]:
    """Assemble the banded Galerkin matrix of the Sturm-Liouville operator.

    GPSWF: M_kj = k(k+2a+1) delta_kj + c^2 <x^2 J~_k, J~_j>, nonzero only for
    |k-j| in {0, 2}, so even and odd k form two blocks (rows 0::2 and 1::2).
    CPSWF: M_kj = (2k+a+1/2)(2k+a+3/2) delta_kj + c^2 <x^2 T~_k, T~_j>,
    nonzero only for |k-j| in {0, 1}: one block over all rows.
    """
    a, c2, N = spec.alpha, spec.c**2, spec.N
    if spec.family is Family.GPSWF:
        # <x^2 J~_k, J~_j> from the (a, a) three-term recurrence:
        # beta_{k+1} + beta_k for j = k and sqrt(beta_{k+1} beta_{k+2}) for j = k+2
        _, beta = jacobi_recurrence(N + 2, a, a)
        k = np.arange(N)
        diag = _free_spectrum(spec, N) + c2 * (beta[k + 1] + np.where(k >= 1, beta[k], 0.0))
        off = c2 * np.sqrt(beta[k + 1] * beta[k + 2])  # row k to k + 2, the last two past N
        return tuple(GalerkinBlock(slice(r, None, 2), diag[r::2], off[r::2][:-1], float(off[r::2][-1]))
                     for r in (0, 1))
    # CPSWF: in the T~ basis, <x^2 T~_k, T~_j> = (1 - alpha_k)/2 on the
    # diagonal and -sqrt(beta_{k+1})/2 on the first off-diagonal, with
    # alpha_k, beta_k the (a, 0) Jacobi recurrence coefficients in u = 1-2x^2.
    rec_a, rec_b = jacobi_recurrence(N + 1, a, 0.0)
    diag = _free_spectrum(spec, N) + c2 * (1.0 - rec_a[:N]) / 2.0
    off = -c2 * np.sqrt(rec_b[1:]) / 2.0  # row k to k + 1, the last past N
    return (GalerkinBlock(slice(None), diag, off[:-1], float(off[-1])),)


# largest |sum_j w_j phi_n(y_j)^2 - 1| a rule may leave on the retained modes
RULE_NORM_TOL = 1e-8


def _support_rows(a: np.ndarray) -> int:
    """1 + the last row of the 2-d array a with an entry other than +-0.0
    (NaN counts), 0 for none: one pass over a, no temporary of its size."""
    rows = np.flatnonzero(np.any(a, axis=1))
    return int(rows[-1]) + 1 if rows.size else 0


@dataclass
class EigenSystem:
    """Retained eigenpairs of one prolate family.

    chi is strictly ascending; column n of coeffs expands the n-th
    eigenfunction in the reference basis.  Columns are orthonormal and carry
    the sign convention that their largest-magnitude entry is positive.
    support_rows is L + 1, L the last row of coeffs holding a nonzero entry
    (at least 1): every row past L is zero, so a mode table needs only the
    basis rows of degree <= L.  solve passes it; otherwise it is read from
    coeffs.  chi_error (from solve) bounds |chi_n - lambda_n|, lambda_n the
    untruncated operator's n-th eigenvalue, up to rounding.  It is a proof
    only along a prefix (Cauchy interlacing ties chi_n to lambda_n only while
    every lower chi is certified) and given the gaps read from neighbouring
    Ritz values, not from a Sturm count.
    """

    spec: ProlateSpec
    chi: np.ndarray
    coeffs: np.ndarray
    parity: np.ndarray | None = field(default=None)
    support_rows: int | None = field(default=None)
    chi_error: np.ndarray | None = field(default=None)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.support_rows is None:
            self.support_rows = max(1, _support_rows(self.coeffs))

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

    @property
    def bounds_slack(self) -> float:
        """Floating-point slack of the eigenvalue sandwich check."""
        return 1e-8 * (1.0 + self.spec.c**2)

    def default_rule(self, size: int | None = None) -> QuadratureRule:
        """The family quadrature: Gauss-Jacobi for the GPSWF weight on
        (-1, 1), Gauss-Legendre mapped to (0, 1) for CPSWF, of max(512, N)
        nodes unless size is given.  Built once per process and shared."""
        if size is None:
            size = max(512, self.spec.N)
        return _family_rule(family_grid(self.spec.family, self.spec.alpha), size)

    def rule_modes(self, rule: QuadratureRule) -> np.ndarray:
        """The mode table mode_matrix(rule.nodes) that every projection and
        synthesis on rule reads: evaluated once per rule object, read-only.

        Raises NumericsError when the rule cannot resolve the retained modes:
        the quadrature norm sum_j w_j phi_n(y_j)^2 of one of the top min(8, m)
        modes is off from 1 by more than RULE_NORM_TOL.  For GPSWF the message
        names the exact rule size L + 1, L the last nonzero row of any
        retained column: every retained mode is then a polynomial of degree
        <= L, so an (L + 1)-node Gauss-Jacobi rule integrates each product of
        two of them exactly.
        """
        if rule not in self._tables:
            table = self.mode_matrix(rule.nodes)
            table.flags.writeable = False
            top = table[-min(8, self.n_retained):]
            gap = float(np.max(np.abs(top**2 @ rule.weights - 1.0)))
            if not gap <= RULE_NORM_TOL:
                exact = ""
                if self.spec.family is Family.GPSWF:
                    exact = f" ({self.support_rows} nodes integrate every retained product exactly)"
                raise NumericsError(
                    f"a {rule.size}-node rule does not resolve the {self.n_retained} "
                    f"retained modes: their quadrature norms are off by {gap:.3g} "
                    f"(tolerance {RULE_NORM_TOL:g}); use more nodes{exact} or a smaller N"
                )
            self._tables[rule] = table
        return self._tables[rule]

    def _check_domain(self, x: np.ndarray):
        lo, hi = family_grid(self.spec.family, self.spec.alpha).interval
        # written so that NaN fails too
        if not np.all((x > lo) & (x < hi)):
            raise ValueError(f"evaluation points must lie in the open interval ({lo}, {hi})")

    def basis_matrix(self, x, check_domain: bool = True, rows: int | None = None) -> np.ndarray:
        """Reference-basis values of degree < rows (all N by default), shape
        (rows, len(x))."""
        rows = self.spec.N if rows is None else rows
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if check_domain:
            self._check_domain(x)
        a = self.spec.alpha
        if self.spec.family is Family.GPSWF:
            return jacobi_orthonormal_table(rows, a, a, x)
        table = jacobi_orthonormal_table(rows, a, 0.0, 1.0 - 2.0 * x * x)
        table *= 2 ** ((a + 2) / 2.0) * x ** (a + 0.5)
        return table

    def mode_matrix(self, x, check_domain: bool = True) -> np.ndarray:
        """All retained eigenfunctions at x, shape (n_retained, len(x)), from
        the support_rows basis rows that carry coefficients."""
        rows = self.support_rows
        return self.coeffs[:rows].T @ self.basis_matrix(x, check_domain, rows)

    def lower_bounds(self) -> np.ndarray:
        return _free_spectrum(self.spec, self.n_retained)

    def upper_bounds(self) -> np.ndarray:
        return self.lower_bounds() + self.spec.c**2

    def to_dict(self) -> dict:
        return {
            "family": self.spec.family.value,
            "alpha": self.spec.alpha,
            "c": self.spec.c,
            "N": self.spec.N,
            "chi": self.chi,
            "coeffs": self.coeffs,
        }


# rows a block's window carries past its k retainable rows: enough for the
# retained eigenvectors to decay below the certificate's residual before the
# window's last row, so that the first window nearly always certifies
WINDOW_PAD = 32
CHI_TOL = 1e-10  # largest chi_error(n) / max(1, chi_n) that solve returns


def _solve_leading(b: GalerkinBlock, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k + 1 leading eigenpairs of block b (fewer if it has fewer rows)
    on a leading window of w rows, and each one's residual r = |e v[w-1]| in
    the untruncated operator: e couples row w - 1 to the next, off[w-1] in
    the block and tail past it.  The window doubles, up to the whole block,
    until the first k residuals are at most eps * max|theta|, the window
    solve's own accuracy.  r shows only that some eigenvalue lies within r
    of theta; the (k + 1)-th pair, never retained, is the k-th's neighbour
    for solve's Kato-Temple bound.
    """
    n = b.diag.size
    size = min(n, k + WINDOW_PAD)
    while True:
        w, v = symtridiag_eigen(b.diag[:size], b.off[: size - 1])
        r = np.abs((b.off[size - 1] if size < n else b.tail) * v[-1, : k + 1])
        if size == n or np.all(r[:k] <= np.finfo(float).eps * np.max(np.abs(w))):
            return w[: k + 1], v[:, : k + 1], r
        size = min(n, 2 * size)


def _kato_temple(theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Kato-Temple bounds min(r, r^2 / (gap - r)) on |lambda - theta| for one
    block's ascending Ritz values theta with residuals r (Parlett 1998, ch.
    10), the gap to the neighbours' intervals theta_j +- r_j: none below the
    lowest (the spectrum is bounded below), none known above the last."""
    step = np.diff(theta)
    gap = np.minimum(np.concatenate(([np.inf], step - r[:-1])),
                     np.concatenate((step - r[1:], [0.0])))
    with np.errstate(divide="ignore", invalid="ignore"):
        # fmin drops the NaN of 0 / 0 (r = 0 with no gap)
        return np.fmin(r, r * r / np.maximum(gap - r, 0.0))


def solve(spec: ProlateSpec) -> EigenSystem:
    """Solve the Galerkin eigenproblem and keep the m = floor(N * keep_fraction)
    leading pairs of the merged block spectra (_solve_leading), each with the
    Kato-Temple bound of its block as chi_error.  Raises NumericsError unless
    every chi_error(n) <= CHI_TOL * max(1, chi_n).  Only the retained columns,
    each block's lowest pairs, are placed, at their block's rows, with the
    positive-leading-coefficient sign convention and (GPSWF) their block as
    parity tag: no (N, N) array is formed.
    """
    if not spec.theorem_range_ok:
        warnings.warn(
            f"alpha={spec.alpha} lies outside the convergence-theorem range for "
            f"{spec.family.value}; eigensystem is computed but theorem-based "
            "thresholds are not asserted there",
            stacklevel=2,
        )
    blocks = build_galerkin(spec)
    # The Galerkin matrix is D + c^2 X with 0 <= X <= I, so block eigenvalue j
    # is at least free(rows[j]) and chi_{m-1} at most free(m-1) + c^2: only
    # the k leading pairs of a block whose rows pass that bound can be kept.
    free = _free_spectrum(spec, spec.N)
    bound = free[spec.n_retained - 1] + spec.c**2
    solved = [_solve_leading(b, np.count_nonzero(free[b.rows] <= bound)) for b in blocks]
    theta = np.concatenate([w for w, _, _ in solved])
    block = np.concatenate([np.full(w.size, i) for i, (w, _, _) in enumerate(solved)])
    # stable, so that each block's retained pairs are the first of its window's
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    error = np.concatenate([_kato_temple(w, r) for w, _, r in solved])[order]
    m = spec.n_retained
    chi, error, block = theta[:m], error[:m], block[order[:m]]
    if np.any(np.diff(chi) <= 0):
        raise NumericsError("merged spectrum is not strictly increasing")
    # the certified prefix (see EigenSystem)
    certified = np.cumprod(error <= CHI_TOL * np.maximum(1.0, chi)).sum()
    if certified < m:
        raise NumericsError(
            f"the Galerkin truncation certifies only {certified} of the {m} retained "
            f"eigenvalues at N={spec.N}, c={spec.c:g} (chi error bound "
            f"{error[certified]:.3g} at n={certified}); use a larger N or a smaller keep fraction"
        )
    cols = np.zeros((spec.N, m))
    support = 1
    for i, b in enumerate(blocks):
        picked = block == i
        vecs = solved[i][1][:, : np.count_nonzero(picked)]  # a view: flipped in place
        # the sign convention: the other blocks' rows are zero, so the
        # largest entry of a column lies on its block's rows.  A flipped
        # column is 0.0 - v, which keeps its zeros at +0.0
        lead = np.argmax(np.abs(vecs), axis=0)
        flip = vecs[lead, np.arange(lead.size)] < 0
        vecs[:, flip] = 0.0 - vecs[:, flip]
        # cols[b.rows] is a view: the columns land on the window's rows
        cols[b.rows][: vecs.shape[0], picked] = vecs
        # the window's last nonzero row is the block's last in coeffs
        rows = _support_rows(vecs)
        if rows:
            support = max(support, range(spec.N)[b.rows][rows - 1] + 1)
    return EigenSystem(
        spec=spec,
        chi=chi,
        coeffs=cols,
        parity=block if spec.family is Family.GPSWF else None,
        support_rows=support,
        chi_error=error,
    )


def check_bounds(es: EigenSystem) -> np.ndarray:
    """Per-n flags for the eigenvalue sandwich
    lower(n) <= chi_n <= lower(n) + c^2, with slack es.bounds_slack."""
    slack = es.bounds_slack
    lo, hi = es.lower_bounds(), es.upper_bounds()
    return (es.chi >= lo - slack) & (es.chi <= hi + slack)
