"""Special functions and small linear-algebra kernels used by the rest of the package.

Everything here is self-contained numerics: orthonormal Jacobi polynomials by
three-term recurrence, Gauss-Jacobi rules from recurrence-matrix eigenvalues
polished by one Newton step (no eigenvectors), a symmetric tridiagonal
eigensolver (LAPACK divide and conquer *stevd*, its eigenvalues refined as
Rayleigh quotients through an LDL^T factor; *sterf* for eigenvalues alone),
and Bessel J of real order.

The three LAPACK routines come from scipy's compiled ``_flapack`` extension,
loaded from its file by _load_flapack.  Importing ``scipy.linalg`` for them
would more than double the package's import time: its ``__init__`` builds
scipy's array-API namespace, which imports numpy.f2py, numpy.testing,
numpy.ma and numpy.random.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from math import gamma, lgamma, log, pi

import numpy as np
import scipy
from numpy.linalg import LinAlgError


def _load_flapack():
    """scipy's f2py wrappers of LAPACK (scipy.linalg.lapack's routines), loaded
    from scipy/linalg without running the scipy.linalg package."""
    where = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {where} (scipy {scipy.__version__})")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()


class NumericsError(RuntimeError):
    """An internal numerical routine failed to converge or lost accuracy."""


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights exact for polynomials against a Jacobi weight.

    The weight is (1-x)^a (1+x)^b on interval=(-1, 1).  Rules mapped to other
    intervals (e.g. Gauss-Legendre on (0, 1)) keep a/b of the generating
    weight and record the mapped interval.  Nodes and weights are read-only
    copies, so tables evaluated on a rule cannot go stale.
    """

    a: float
    b: float
    interval: tuple[float, float]
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.nodes.size


def jacobi_recurrence(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """First n recurrence coefficients (alpha_k, beta_k) for monic Jacobi
    polynomials with weight (1-x)^a (1+x)^b on (-1, 1).

    beta_0 is the total mass of the weight.  The orthonormal family satisfies
    sqrt(beta_{k+1}) p_{k+1} = (x - alpha_k) p_k - sqrt(beta_k) p_{k-1}.
    """
    if a <= -1 or b <= -1:
        raise ValueError("Jacobi weight exponents must be > -1")
    k = np.arange(n, dtype=float)
    ab = a + b
    alpha = np.empty(n)
    beta = np.empty(n)
    alpha[0] = (b - a) / (ab + 2)
    if ab + 2 <= 171:  # every Gamma is finite: the ratio keeps full accuracy
        beta[0] = 2.0 ** (ab + 1) * (gamma(a + 1) / gamma(ab + 2) * gamma(b + 1))
    else:  # log-Gammas cancel here, losing digits as a + b grows
        beta[0] = np.exp((ab + 1) * log(2.0) + lgamma(a + 1) + lgamma(b + 1) - lgamma(ab + 2))
    if n > 1:
        kk = k[1:]
        alpha[1:] = (b * b - a * a) / ((2 * kk + ab) * (2 * kk + ab + 2))
        s = 2 * kk + ab
        with np.errstate(invalid="ignore"):  # 0/0 at k = 1 when a + b = -1
            beta[1:] = 4 * kk * (kk + a) * (kk + b) * (kk + ab) / (s * s * (s * s - 1))
        if abs(ab + 1) < 0.5:  # the k = 1 entry with s^2 - 1 = (a+b+1)(a+b+3) cancelled
            beta[1] = 4 * (1 + a) * (1 + b) / ((ab + 2) ** 2 * (ab + 3))
    return alpha, beta


def jacobi_orthonormal_table(nmax: int, a: float, b: float, x) -> np.ndarray:
    """Table p_k(x) for k = 0..nmax-1, shape (nmax, len(x)), of the Jacobi
    polynomials orthonormal w.r.t. (1-x)^a (1+x)^b on (-1, 1).

    Runs the three-term recurrence on the orthonormal family directly, which
    stays well scaled up to degree ~ 2000; no Gamma ratios are formed.  The
    degree-n polynomial alone is row n of jacobi_orthonormal_table(n + 1, ...).
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    alpha, beta = jacobi_recurrence(nmax + 1, a, b)
    alpha, root = alpha.tolist(), np.sqrt(beta).tolist()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((nmax, x.size))
    table[0] = 1.0 / root[0]
    if nmax > 1:
        table[1] = (x - alpha[0]) * table[0] / root[1]
    scratch = np.empty_like(x)
    for k in range(2, nmax):
        # row k in place, in the order ((x - alpha) p_{k-1} - root p_{k-2}) / root
        row = np.subtract(x, alpha[k - 1], out=table[k])
        row *= table[k - 1]
        row -= np.multiply(root[k - 1], table[k - 2], out=scratch)
        row /= root[k]
    return table


def gauss_jacobi(size: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Jacobi rule of size nodes for the weight (1-x)^a (1+x)^b on (-1, 1).

    No eigenvector is formed.  The nodes start as eigenvalues of a recurrence
    matrix (Golub & Welsch): for a == b the rule is mirror-symmetric and its
    nonnegative nodes are sqrt((1+u)/2), u the eigenvalues of the size // 2
    row (a, -1/2) matrix for even size, of the (a, +1/2) matrix plus an exact
    0 node for odd size; for a != b the size-row (a, b) matrix is solved.
    One streaming pass of the orthonormal recurrence at those nodes
    (_newton_christoffel) then takes one Newton step on p_size and reads each
    weight from the Christoffel function 1 / sum_{k<size} p_k^2 at the
    polished node (Hale & Townsend 2013).  The nonnegative half of a
    symmetric rule is mirrored exactly.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > 100_000:
        raise ValueError("size larger than 1e5 not supported")
    if a == b:
        half, odd = divmod(size, 2)
        x = np.sqrt((1.0 + _recurrence_eigvals(half, a, 0.5 if odd else -0.5)) / 2.0)
        if odd:
            x = np.concatenate(([0.0], x))
    else:
        x = _recurrence_eigvals(size, a, b)
    x, w = _newton_christoffel(size, a, b, x)
    if a == b:  # the positive half mirrored, then the nonnegative one
        nodes = np.concatenate((-x[odd:][::-1], x))
        weights = np.concatenate((w[odd:][::-1], w))
    else:
        nodes, weights = x, w
    if not (np.all(weights > 0) and np.all(np.diff(nodes) > 0)):
        raise NumericsError("Gauss-Jacobi construction produced an invalid rule")
    if nodes[0] <= -1 or nodes[-1] >= 1:
        raise NumericsError("quadrature nodes escaped the open interval")
    return QuadratureRule(a=a, b=b, interval=(-1.0, 1.0), nodes=nodes, weights=weights)


def _recurrence_eigvals(n: int, a: float, b: float) -> np.ndarray:
    """Ascending eigenvalues of the n-row (a, b) Jacobi recurrence matrix,
    the zeros of p_n (none for n = 0)."""
    if n == 0:
        return np.empty(0)
    alpha, beta = jacobi_recurrence(n, a, b)
    return symtridiag_eigen(alpha, np.sqrt(beta[1:]), eigvals_only=True)


def _newton_christoffel(n: int, a: float, b: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step x - p_n(x) / p_n'(x) and the Christoffel weights
    1 / sum_{k<n} p_k^2 at the stepped nodes, to first order in the step,
    from one pass of the orthonormal (a, b) recurrence and its derivative:
    O(len(x)) memory, no table of the p_k."""
    alpha, beta = jacobi_recurrence(n + 1, a, b)
    root = np.sqrt(beta)
    p_prev, dp_prev = np.zeros_like(x), np.zeros_like(x)
    p, dp = np.full_like(x, 1.0 / root[0]), np.zeros_like(x)
    s, ds = np.zeros_like(x), np.zeros_like(x)  # sum p_k^2 and sum p_k p_k' over k < n
    for k in range(n):
        s += p * p
        ds += p * dp
        t = x - alpha[k]
        p, p_prev = (t * p - root[k] * p_prev) / root[k + 1], p
        dp, dp_prev = (p_prev + t * dp - root[k] * dp_prev) / root[k + 1], dp
    step = p / dp
    return x - step, 1.0 / (s - 2.0 * ds * step)


def gauss_legendre_01(size: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped to (0, 1) with Lebesgue weight."""
    base = gauss_jacobi(size, 0.0, 0.0)
    return QuadratureRule(
        a=0.0,
        b=0.0,
        interval=(0.0, 1.0),
        nodes=(base.nodes + 1.0) / 2.0,
        weights=base.weights / 2.0,
    )


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigensolver
# ---------------------------------------------------------------------------

def eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf"):
    """Eigenvalues of the symmetric tridiagonal matrix (d, e) from LAPACK
    *sterf*, ascending; scipy.linalg.eigh_tridiagonal's call and result for
    that driver, which is the only one accepted."""
    if not eigvals_only or lapack_driver != "sterf":
        raise ValueError("only eigvals_only=True with lapack_driver='sterf' is supported")
    w, info = lapack.dsterf(d, e)
    if info != 0:
        raise LinAlgError(f"sterf (eigh_tridiagonal) exited with info={info}")
    return w


def symtridiag_eigen(diag, offdiag, eigvals_only: bool = False):
    """Eigendecomposition of a symmetric tridiagonal matrix.

    Returns ascending eigenvalues and the orthonormal eigenvector matrix
    (columns), or, with eigvals_only (as in scipy), the eigenvalues alone.
    Eigenvectors come from LAPACK *stevd*, the divide-and-conquer algorithm
    of Cuppen and Gu & Eisenstat: strongly localized eigenvectors, such as
    the Galerkin blocks', deflate almost every merge, and the vectors are
    orthogonal to a few n * eps.  Its eigenvalues are accurate relative to
    ||T|| only, so for a positive definite matrix each one is replaced by
    the Rayleigh quotient of its vector through the factor T = L D L^T
    (_ldl_rayleigh), which keeps the small ones to a few ulp.  Eigenvalues
    alone come from *sterf* (Pal-Walker-Kahan QL/QR).  Deterministic for a
    given input.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if diag.ndim != 1 or diag.size < 1:
        raise ValueError("diag must be a nonempty 1-d sequence")
    if offdiag.size != diag.size - 1:
        raise ValueError("offdiag must have length n-1")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
        raise ValueError("matrix entries must be finite")
    if diag.size == 1:
        return diag.copy() if eigvals_only else (diag.copy(), np.ones((1, 1)))
    if eigvals_only:
        try:
            return eigh_tridiagonal(diag, offdiag, eigvals_only=True, lapack_driver="sterf")
        except LinAlgError as exc:
            raise NumericsError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    w, v, info = lapack.dstevd(diag, offdiag)
    if info != 0:
        raise NumericsError(f"tridiagonal eigensolver did not converge: stevd exited with info={info}")
    return _ldl_rayleigh(diag, offdiag, w, v)


def _ldl_rayleigh(diag, offdiag, w, v):
    """Eigenvalues w of T refined as Rayleigh quotients v^T T v / v^T v.

    When T is positive definite, *pttrf* factors T = L D L^T (D > 0, L unit
    lower bidiagonal with subdiagonal l), and v^T T v is the sum of the
    nonnegative terms D_i (v_i + l_i v_{i+1})^2: nothing cancels, so each
    quotient is accurate relative to itself, not to ||T||.  Otherwise w is
    kept.  Pairs the refinement reorders are sorted ascending again.
    """
    d, l, info = lapack.dpttrf(diag, offdiag)
    if info != 0:
        return w, v
    u = l[:, None] * v[1:]
    u += v[:-1]
    u *= u
    w = (d[:-1] @ u + d[-1] * (v[-1] * v[-1])) / np.einsum("ij,ij->j", v, v)
    if np.any(np.diff(w) < 0):
        order = np.argsort(w, kind="stable")
        w, v = w[order], v[:, order]
    return w, v


# ---------------------------------------------------------------------------
# Bessel function of the first kind, real order >= -1/2
# ---------------------------------------------------------------------------

_SERIES_CUT = 9.0
_ASYM_CUT = 18.5
_LOG_MAX = log(np.finfo(float).max)  # np.exp overflows exactly above this


def _bessel_series(order: float, x: np.ndarray) -> np.ndarray:
    # ascending series, summed until terms vanish relative to the partial sum
    q = 0.25 * x * x
    with np.errstate(divide="ignore"):
        lead = np.where(
            x > 0,
            np.exp(order * np.log(np.where(x > 0, 0.5 * x, 1.0)) - lgamma(order + 1)),
            1.0 if order == 0 else (0.0 if order > 0 else np.inf),
        )
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for m in range(1, 200):
        term = term * (-q) / (m * (m + order))
        acc = acc + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc) + 1e-300):
            break
    return lead * acc


def _bessel_asymptotic(order: float, x: np.ndarray) -> np.ndarray:
    # Hankel expansion; caller guarantees x >= max(18.5, order^2).  The series
    # is asymptotic, so each element stops at its smallest term.
    mu = 4.0 * order * order
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    prev_mag = np.full_like(x, np.inf)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, 200):
        term = term * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        mag = np.abs(term)
        active &= mag < prev_mag
        contrib = np.where(active, term, 0.0)
        if k % 2 == 1:
            q = q + ((-1.0) ** ((k - 1) // 2)) * contrib
        else:
            p = p + ((-1.0) ** (k // 2)) * contrib
        prev_mag = mag
        if np.all(mag[active] < 1e-17):
            break
    w = x - (0.5 * order + 0.25) * pi
    return np.sqrt(2.0 / (pi * x)) * (p * np.cos(w) - q * np.sin(w))


def _bessel_miller(order: float, x: np.ndarray) -> np.ndarray:
    """Downward recurrence normalized by the Neumann series
    (x/2)^f = sum_k (f+2k) Gamma(f+k)/k! J_{f+2k}(x), f = frac(order)."""
    neg = order < 0.0
    nint = 0 if neg else int(np.floor(order))
    frac = order - np.floor(order)
    top = int(np.max(x) + abs(order)) + 40 + int(6.0 * (np.max(x) + abs(order)) ** (1.0 / 3.0))
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    norm = np.zeros_like(x)
    target = np.zeros_like(x)
    t0 = np.zeros_like(x)
    t1 = np.zeros_like(x)
    for m in range(top, 0, -1):
        jp, jc = jc, 2.0 * (frac + m) / x * jc - jp
        if m - 1 == nint:
            target = jc.copy()
        if m - 1 == 0:
            t0 = jc.copy()
        if m - 1 == 1:
            t1 = jc.copy()
        if (m - 1) % 2 == 0:
            k = (m - 1) // 2
            if frac == 0.0:
                norm = norm + (2.0 if k > 0 else 1.0) * jc
            else:
                lg = lgamma(frac + k) - lgamma(k + 1.0)
                # exp(lg) = Gamma(frac) overflows at k = 0 once frac < 5.6e-309;
                # the term frac Gamma(frac) is Gamma(1 + frac) there
                weight = gamma(1.0 + frac) if lg > _LOG_MAX else (frac + 2 * k) * np.exp(lg)
                norm = norm + weight * jc
        big = np.abs(jc) > 1e250
        if np.any(big):
            for arr in (jp, jc, norm, target, t0, t1):
                arr[big] *= 1e-250
    scale = (np.exp(frac * np.log(0.5 * x)) if frac != 0.0 else 1.0) / norm
    if neg:
        return (2.0 * frac / x * t0 - t1) * scale
    return target * scale


def bessel_j(order: float, x):
    """J_order(x) for real order >= -1/2 and 0 <= x <= 1e6.

    Three regimes: ascending series for small x, Miller downward recurrence
    through the transition zone, Hankel asymptotics for large x.  Absolute
    error stays below 1e-12 for x <= 100 and order <= 50.
    """
    order = float(order)
    if not np.isfinite(order) or order < -0.5:
        raise ValueError("order must be finite and >= -1/2")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if np.any(x < 0):
        raise ValueError("negative x rejected")
    if np.any(x > 1e6):
        raise ValueError("x larger than 1e6 not supported")

    out = np.empty_like(x)
    if order == 0.5:
        # exact closed form sqrt(2/(pi x)) sin x;  J_{1/2}(0) = 0
        nz = x > 0
        out[~nz] = 0.0
        out[nz] = np.sqrt(2.0 / (pi * x[nz])) * np.sin(x[nz])
        return float(out[0]) if scalar else out

    series = x <= max(_SERIES_CUT, 0.5 * order)
    asym = ~series & (x >= max(_ASYM_CUT, order * order))
    middle = ~series & ~asym
    if np.any(series):
        out[series] = _bessel_series(order, x[series])
    if np.any(asym):
        out[asym] = _bessel_asymptotic(order, x[asym])
    if np.any(middle):
        out[middle] = _bessel_miller(order, x[middle])
    return float(out[0]) if scalar else out
