"""Special functions and small linear-algebra kernels used by the rest of the package.

Everything here is self-contained numerics: orthonormal Jacobi polynomials by
three-term recurrence, Gauss-Jacobi rules from recurrence-matrix eigenvalues
polished by one Newton step (no eigenvectors), a symmetric tridiagonal
eigensolver (LAPACK divide and conquer *stevd*, its eigenvalues refined as
Rayleigh quotients through an LDL^T factor; *sterf* for eigenvalues alone),
and Bessel J of real order, one order at a time or many consecutive orders
from one Miller recurrence.

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
from math import exp, gamma, lgamma, log, log2, pi

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
    with np.errstate(over="ignore", invalid="ignore"):
        # its sums overflow where the smallest weights near 1e-308: the check below fails
        x, w = _newton_christoffel(size, a, b, x)
    if a == b:  # the positive half mirrored, then the nonnegative one
        nodes = np.concatenate((-x[odd:][::-1], x))
        weights = np.concatenate((w[odd:][::-1], w))
    else:
        nodes, weights = x, w
    if not (np.all(weights > 0) and np.all(np.diff(nodes) > 0)):
        raise NumericsError(
            f"the {size}-node Gauss-Jacobi rule for the weight (1-x)^{a:g} (1+x)^{b:g} is invalid: its "
            "smallest weights reach the float range's lower end (about 1e-308); use fewer nodes")
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
_RESCALE = 600  # Miller's running values past 2^600 are scaled by 2^-600, exactly


def _series_coefficients(order: float) -> tuple[np.ndarray, float]:
    """The ascending series J_order(x) = (x/2)^order / Gamma(order+1) sum_m b_m u^m
    in u = q / q_e, q = x^2/4 and q_e its value at the series regime's edge
    x = max(9, order/2): b_m = (-q_e)^m / (m! (order+1)_m).

    The terms at the edge rise to a peak and then fall; the series stops at
    the first |b_m| <= 1e-18 max(1, the largest |b_j| before it).  So the
    term count depends on the order alone, and every u <= 1 is summed to
    rounding.
    """
    edge = max(_SERIES_CUT, 0.5 * order)
    q_edge = 0.25 * edge * edge
    coeffs = [1.0]
    term = peak = 1.0
    while abs(term) > 1e-18 * peak:
        m = len(coeffs)
        term *= -q_edge / (m * (m + order))
        peak = max(peak, abs(term))
        coeffs.append(term)
    return np.array(coeffs), q_edge


def _bessel_series_sum(order: float, x: np.ndarray) -> np.ndarray:
    # Gamma(order+1) (2/x)^order J_order(x) in the series regime: a Horner
    # polynomial of fixed length in u, so each value is independent of the batch
    coeffs, q_edge = _series_coefficients(order)
    u = (0.25 / q_edge) * (x * x)
    acc = np.full_like(x, coeffs[-1])
    for b in coeffs[-2::-1]:
        acc *= u
        acc += b
    return acc


def _bessel_normalised(order: float, x: np.ndarray) -> np.ndarray:
    """Gamma(order+1) (2/x)^order J_order(x), 1 at x = 0, for order >= 0: the
    series' sum in its regime, past it bessel_j times the factor taken in log
    space, so neither J_order nor x^order need be representable."""
    if order == 0.5:  # exact closed form sin(x) / x, as in bessel_j
        return np.where(x > 0, np.sin(x) / np.where(x > 0, x, 1.0), 1.0)
    edge = max(_SERIES_CUT, 0.5 * order)
    out, series = np.empty_like(x), x <= edge
    out[series] = _bessel_series_sum(order, x[series])
    if not np.all(series):
        # the factor is largest at the regime's edge, about e^(0.39 order)
        if lgamma(order + 1.0) + order * log(2.0 / edge) > 700.0:
            raise ValueError(f"order {order} is too large: Gamma(order+1) (2/x)^order overflows")
        rest = x[~series]
        out[~series] = bessel_j(order, rest) * np.exp(lgamma(order + 1.0) + order * np.log(2.0 / rest))
    return out


def _bessel_asymptotic(order: float, x: np.ndarray) -> np.ndarray:
    # Hankel expansion; caller guarantees x >= max(18.5, order^2).  The series
    # is asymptotic, so each element stops at its smallest term, or after its
    # first term below 1e-17: each value is independent of the batch.
    mu = 4.0 * order * order
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    prev_mag = np.full_like(x, np.inf)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, 200):
        term = term * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        mag = np.abs(term)
        active &= (mag < prev_mag) & (prev_mag >= 1e-17)
        if not np.any(active):
            break
        contrib = np.where(active, term, 0.0)
        if k % 2 == 1:
            q = q + ((-1.0) ** ((k - 1) // 2)) * contrib
        else:
            p = p + ((-1.0) ** (k // 2)) * contrib
        prev_mag = mag
    w = x - (0.5 * order + 0.25) * pi
    return np.sqrt(2.0 / (pi * x)) * (p * np.cos(w) - q * np.sin(w))


def _bessel_miller(order: float, x: np.ndarray, count: int = 1, power: float = 0.0) -> np.ndarray:
    """J_{order+k}(x) / x^power for k = 0..count-1, shape (count, len(x)),
    from one downward recurrence in the order at every x >= 0.

    The recurrence runs on v_nu = J_nu(x) / t^nu, t = min(x, 1):
    v_{nu-1} = (2 nu t / x) v_nu - t^2 v_{nu+1}, whose coefficients are at
    most 2 nu and 1, so nothing divides by x and x = 0 gives the limits
    J_nu(x) / x^nu -> 1 / (2^nu Gamma(nu+1)).  It starts past max(x) and the
    top order, so the batch's largest x sets the start, and is normalized
    by the Neumann series (x/2)^f = sum_j (f+2j) Gamma(f+j)/j! J_{f+2j}(x),
    f = frac(order), summed by Horner in t^2 on the way down: one recurrence
    for every x (t = 1 and t^2 = 1 exactly for x >= 1).  A node's running
    values past 2^600 are scaled by 2^-600, and the rows by 2^-e, norm's
    binary exponent e, at the end: both exact, so no scale factor underflows.
    order >= -1/2 (below 0 only for x > 0) and order >= power.
    """
    n0 = int(np.floor(order))  # -1 for a negative order: the last step is f -> f - 1
    frac = order - n0
    reach = float(np.max(x)) + abs(order + count - 1)
    top = int(reach) + 40 + int(6.0 * reach ** (1.0 / 3.0))
    # weights c_j = (f+2j) Gamma(f+j)/j! of J_{f+2j}; c_0 = f Gamma(f) is
    # Gamma(1+f), which stays finite when Gamma(f) overflows (f < 5.6e-309)
    weights = [gamma(1.0 + frac)] + [
        2.0 if frac == 0.0 else (frac + 2 * j) * exp(lgamma(frac + j) - lgamma(j + 1.0))
        for j in range(1, top // 2 + 1)]
    small = np.minimum(x, 1.0)
    tsq = small * small
    wide = np.maximum(x, 1.0)  # x / t
    band = np.empty((count, x.size))
    vp = np.zeros_like(x)
    v = np.full_like(x, 1e-30)
    norm = np.zeros_like(x)
    # between checks a value grows by at most (2 (f + top) + 1) per step
    every = max(1, int(400 / log2(2.0 * (frac + top) + 1.0)))
    for m in range(top, min(n0, 0), -1):
        nxt = 2.0 * (frac + m) / wide  # one rounding per step, not a repeated one
        nxt *= v
        nxt -= tsq * vp
        vp, v = v, nxt
        k = m - 1 - n0  # v is v_{order+k}
        if 0 <= k < count:
            band[k] = v
        if m % 2 == 1:  # v is v_{f+2j}, j = (m - 1) / 2
            norm *= tsq
            norm += weights[(m - 1) // 2] * v
        if m % every == 0:
            big = np.maximum(np.abs(v), np.abs(vp)) > 2.0 ** _RESCALE
            if np.any(big):
                for arr in (v, vp, norm):
                    arr[big] = np.ldexp(arr[big], -_RESCALE)
                if k < count:  # the rows stored so far, v's own included
                    stored = band[max(k, 0):]
                    stored[:, big] = np.ldexp(stored[:, big], -_RESCALE)
    # J_{order+k} / x^power = v (x / 2t)^f / norm * t^(order+k) / x^power, with
    # norm's binary exponent taken last: the scale before it stays a normal float
    mant, expo = np.frexp(norm)
    band *= np.exp2(-frac) * x ** np.where(x <= 1.0, order - power, frac - power) / mant
    band *= small ** np.arange(count)[:, None]
    return np.ldexp(band, -expo, band)


def bessel_j(order: float, x):
    """J_order(x) for real order >= -1/2 and 0 <= x <= 1e6.

    Three regimes: ascending series for small x, Miller downward recurrence
    through the transition zone, Hankel asymptotics for large x.  A value
    depends on the rest of x only through Miller's starting order, which the
    largest x of that regime sets.  Absolute error stays below 1e-12 for
    x <= 100 and order <= 50.
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
        # exact closed form sqrt(2/(pi x)) sin x;  J_{1/2}(0) = 0.  Dividing by
        # sqrt(x), not x, keeps a subnormal x from overflowing 2 / (pi x)
        nz = x > 0
        out[~nz] = 0.0
        out[nz] = np.sqrt(2.0 / pi) * (np.sin(x[nz]) / np.sqrt(x[nz]))
        return float(out[0]) if scalar else out

    series = x <= max(_SERIES_CUT, 0.5 * order)
    asym = ~series & (x >= max(_ASYM_CUT, order * order))
    middle = ~series & ~asym
    if np.any(series):
        xs = x[series]
        with np.errstate(divide="ignore"):  # the lead (x/2)^order / Gamma(order+1)
            lead = np.where(xs > 0, np.exp(order * np.log(np.where(xs > 0, 0.5 * xs, 1.0))
                                           - lgamma(order + 1)),
                            1.0 if order == 0 else (0.0 if order > 0 else np.inf))
        out[series] = lead * _bessel_series_sum(order, xs)
    if np.any(asym):
        out[asym] = _bessel_asymptotic(order, x[asym])
    if np.any(middle):
        out[middle] = _bessel_miller(order, x[middle])[0]
    return float(out[0]) if scalar else out
