import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError
from scipy.special import jv

from prolatesum import specfun
from prolatesum.prolate import ProlateSpec, _free_spectrum, _solve_leading, build_galerkin, solve
from prolatesum.specfun import (
    NumericsError,
    QuadratureRule,
    bessel_j,
    gauss_jacobi,
    gauss_legendre_01,
    jacobi_orthonormal_table,
    jacobi_recurrence,
    symtridiag_eigen,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def jacobi_moments(kmax, a, b):
    """Moments m_k = int x^k (1-x)^a (1+x)^b dx by the boundary-term
    recursion (a+b+k+1) m_k = (b-a) m_{k-1} + (k-1) m_{k-2}."""
    from scipy.special import beta

    m = np.empty(kmax + 1)
    m[0] = 2.0 ** (a + b + 1) * beta(a + 1, b + 1)
    for k in range(1, kmax + 1):
        prev2 = m[k - 2] if k >= 2 else 0.0
        m[k] = ((b - a) * m[k - 1] + (k - 1) * prev2) / (a + b + k + 1)
    return m


def sturm_count(diag, off, x):
    """Number of eigenvalues of the symmetric tridiagonal matrix below x."""
    count = 0
    d = 1.0
    for i in range(len(diag)):
        b2 = off[i - 1] ** 2 if i > 0 else 0.0
        d = (diag[i] - x) - (b2 / d if d != 0 else b2 / 1e-300)
        if d < 0:
            count += 1
    return count


def bisection_eigenvalues(diag, off, tol=1e-13):
    """All eigenvalues by bisection on the Sturm-sequence count."""
    n = len(diag)
    radius = np.max(np.abs(diag)) + 2 * np.max(np.abs(off), initial=0.0) + 1.0
    eigs = []
    for k in range(1, n + 1):
        lo, hi = -radius, radius
        while hi - lo > tol * radius:
            mid = 0.5 * (lo + hi)
            if sturm_count(diag, off, mid) >= k:
                hi = mid
            else:
                lo = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(eigs)


def j0_first_zero_series_oracle():
    """Root of the J_0 power series by 50-digit bisection."""
    import mpmath as mp

    with mp.workdps(50):
        def j0(x):
            acc = mp.mpf(1)
            term = mp.mpf(1)
            for m in range(1, 200):
                term = term * (-((mp.mpf(x) / 2) ** 2)) / (m * m)
                acc += term
                if abs(term) < mp.mpf(10) ** -60:
                    break
            return acc

        lo, hi = mp.mpf(2), mp.mpf(3)
        for _ in range(200):
            mid = (lo + hi) / 2
            if j0(lo) * j0(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


# ---------------------------------------------------------------------------
# bessel_j
# ---------------------------------------------------------------------------

class TestBesselJ:
    def test_value_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3.2, 0.0) == 0.0

    def test_half_order_closed_form(self):
        assert bessel_j(0.5, np.pi / 2) == pytest.approx(2 / np.pi, abs=1e-14)
        # at a subnormal x, 2 / (pi x) once overflowed (a RuntimeWarning fails the test)
        x = np.array([2.2250738585e-313, 1e-300])
        assert np.allclose(bessel_j(0.5, x), np.sqrt(2 / np.pi) * np.sqrt(x), rtol=1e-15, atol=0.0)

    def test_first_zero_against_series_oracle(self):
        z0 = j0_first_zero_series_oracle()
        assert z0 == pytest.approx(2.404825557695772768621632, abs=1e-14)
        assert abs(bessel_j(0, 2.404825557695773)) <= 1e-10
        assert abs(bessel_j(0, z0)) <= 1e-13

    def test_half_order_identity_invariant(self):
        x = np.linspace(1e-3, 50.0, 2001)
        lhs = bessel_j(0.5, x) * np.sqrt(np.pi * x / 2)
        assert np.max(np.abs(lhs - np.sin(x))) <= 1e-12

    @pytest.mark.parametrize("order", [0.0, 0.3, 0.7, 1.0, 1.5, 2.5, 5.0, 10.0,
                                       17.3, 25.0, 37.5, 50.0, -0.25, -0.49])
    def test_absolute_error_envelope(self, order):
        # regime seams included explicitly
        seams = np.array([max(9.0, 0.5 * order) + d for d in (-1e-6, 0.0, 1e-6)]
                         + [max(18.5, order * order) + d for d in (-1e-6, 0.0, 1e-6)])
        x = np.concatenate([np.linspace(1e-9, 20, 601), np.linspace(20, 100, 601), seams])
        x = x[(x > 0) & (x <= 100)]
        ref = jv(order, x)
        err = np.abs(bessel_j(order, x) - ref)
        # J diverges at 0 for negative orders; there the bound is relative
        assert np.max(err / np.maximum(1.0, np.abs(ref))) <= 1e-12

    def test_large_argument(self):
        for order in (0.0, 1.0, 5.0):
            for x in (1e3, 1e5, 1e6):
                assert bessel_j(order, x) == pytest.approx(jv(order, x), abs=1e-11)

    def test_miller_rescaling_against_mpmath(self):
        # order 400 at x in (200, 400) is Miller's regime, and there the
        # downward recurrence passes 1e250 and is rescaled (at m = 426 and 380)
        import mpmath as mp

        x = np.array([201.0, 230.0, 300.0])
        with mp.workdps(40):
            ref = np.array([float(mp.besselj(400, mp.mpf(v))) for v in x])
        assert np.max(np.abs(bessel_j(400, x) / ref - 1.0)) <= 1e-14

    @pytest.mark.parametrize("order", [5e-324, 2.2e-311, 1e-310, 5.5e-309, 1e-308, 1e-300])
    def test_miller_at_subnormal_orders_against_mpmath(self, order):
        # the Neumann series' k = 0 weight is Gamma(1 + frac); frac Gamma(frac)
        # overflows below frac = 5.6e-309 and once zeroed these values
        import mpmath as mp

        x = np.array([9.25, 12.0, 18.0])
        with mp.workdps(40):
            ref = np.array([float(mp.besselj(mp.mpf(order), mp.mpf(v))) for v in x])
        assert np.max(np.abs(bessel_j(order, x) - ref)) <= 1e-14

    @settings(max_examples=80, deadline=None)
    @given(order=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, -0.49, 2.2e-311, 400.0]),
                           st.floats(-0.5, 60.0)),
           data=st.data())
    def test_series_and_asymptotic_values_do_not_depend_on_the_batch(self, order, data):
        # the ascending series has a term count fixed by the order, and each
        # Hankel-asymptotic value stops at its own term: any subset of
        # arguments in those two regimes gets the same bits as the whole
        edge = max(9.0, 0.5 * order)
        series = st.floats(0.0, edge)
        asymptotic = st.floats(max(18.5, order * order, edge), 1e6)
        x = np.array(data.draw(st.lists(series | asymptotic, min_size=1, max_size=40)))
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
        assert np.array_equal(bessel_j(order, x[keep]), bessel_j(order, x)[keep])
        assert all(bessel_j(order, v) == w for v, w in zip(x, bessel_j(order, x)))

    def test_rejections(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(-0.6, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, 2e6)
        with pytest.raises(ValueError):
            bessel_j(0, np.nan)


class TestMillerOrders:
    """specfun._bessel_miller: every order nu0 + k, k <= K, at each node from
    one downward recurrence, against mpmath."""

    @staticmethod
    def _reference(nu0, orders, z, power=0.0):
        import mpmath as mp

        with mp.workdps(30):
            return np.array([[float(mp.besselj(mp.mpf(nu0) + k, mp.mpf(v)) / mp.mpf(v) ** power)
                              for v in z] for k in orders])

    @pytest.mark.parametrize("nu0", [0.2, 0.5, 1.0, 1.7, 2.5])
    def test_every_order_against_mpmath(self, nu0):
        z = np.array([1e-3, 0.3, 0.999, 1.0, 1.001, 4.5, 9.0, 17.0, 33.3, 60.0])
        out = specfun._bessel_miller(nu0, z, 301)
        assert out.shape == (301, z.size)
        assert np.max(np.abs(out - self._reference(nu0, range(301), z))) <= 2e-15

    def test_rescales_past_the_float_range(self, monkeypatch):
        # at z = 1e-3 each step down multiplies by about 2 nu: from order 340
        # down the running values pass 2^1024 many times over, and are rescaled
        # by 2^-_RESCALE (the last ldexp applies the normalization's exponent)
        scaled = []
        ldexp = np.ldexp
        monkeypatch.setattr(np, "ldexp", lambda *a: scaled.append(a[1]) or ldexp(*a))
        z = np.array([1e-3, 2e-3, 40.0])
        out = specfun._bessel_miller(1.7, z, 301)
        monkeypatch.undo()
        assert -specfun._RESCALE in scaled[:-1]
        assert np.max(np.abs(out - self._reference(1.7, range(301), z))) <= 2e-15

    @pytest.mark.parametrize("nu0", [0.5, 1.5, 40.5])
    def test_divided_by_a_power_with_its_limit_at_zero(self, nu0):
        # J_{nu0+k}(z) / z^nu0, which the closed-form transforms read: at z = 0
        # the limit 1 / (2^nu0 Gamma(nu0 + 1)) for k = 0 and 0 beyond, with no
        # division by 0 (a RuntimeWarning fails the test)
        z = np.array([0.0, 1e-9, 1e-3, 0.7, 3.0, 25.0])
        out = specfun._bessel_miller(nu0, z, 12, power=nu0)
        assert out[0, 0] == pytest.approx(1.0 / (2.0**nu0 * math.gamma(nu0 + 1.0)), rel=1e-14)
        assert np.all(out[1:, 0] == 0.0)
        ref = self._reference(nu0, range(12), z[1:], power=nu0)
        assert np.max(np.abs(out[:, 1:] - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("z", [19.9, 25.0])
    def test_large_order_scale_stays_normal(self, z):
        # at nu0 = 100.5 the normalizing sum passes 2^600 after the last
        # rescale; a scale 1 / norm would be subnormal and lose digits
        out = specfun._bessel_miller(100.5, np.array([z]), 40, power=100.5)
        ref = self._reference(100.5, range(40), [z], power=100.5)
        assert np.max(np.abs(out / ref - 1.0)) <= 1e-14


# ---------------------------------------------------------------------------
# jacobi polynomials
# ---------------------------------------------------------------------------

class TestJacobiPoly:
    def test_constant_mode(self):
        for x in (-0.9, 0.0, 0.77):
            assert jacobi_orthonormal_table(1, 0, 0, x)[0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_degree_one_legendre_at_one(self):
        assert jacobi_orthonormal_table(2, 0, 0, 1.0)[1, 0] == pytest.approx(np.sqrt(1.5), abs=1e-14)

    def test_gram_identity_degree5(self):
        rule = gauss_jacobi(64, 0.4, 0.4)
        p5 = jacobi_orthonormal_table(6, 0.4, 0.4, rule.nodes)[5]
        assert np.sum(rule.weights * p5 * p5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 0.5), (-0.3, 0.9), (2.0, 0.0)])
    def test_orthonormality_grid(self, a, b):
        rule = gauss_jacobi(128, a, b)
        table = jacobi_orthonormal_table(51, a, b, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(51))) <= 1e-10

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 0.5), (-0.3, 0.9), (2.0, 0.0), (1.3, -0.6)])
    def test_against_mpmath_oracle(self, a, b):
        # P_k^(a,b) / sqrt(h_k) with the closed-form norm
        # h_k = 2^(a+b+1) Gamma(k+a+1) Gamma(k+b+1) / ((2k+a+b+1) Gamma(k+a+b+1) k!)
        import mpmath as mp

        x = np.array([-0.97, -0.52, 0.05, 0.31, 0.8, 0.999])  # no exact zero of P_k
        table = jacobi_orthonormal_table(9, a, b, x)
        with mp.workdps(40):
            for k in range(9):
                h = (mp.mpf(2) ** (a + b + 1) * mp.gamma(k + a + 1) * mp.gamma(k + b + 1)
                     / ((2 * k + a + b + 1) * mp.gamma(k + a + b + 1) * mp.factorial(k)))
                ref = np.array([float(mp.jacobi(k, a, b, xi) / mp.sqrt(h)) for xi in x])
                # p_k(0.999) reaches ~70 at a = 2: the bound scales with |p_k| above 1
                err = np.abs(table[k] - ref) / np.maximum(1.0, np.abs(ref))
                assert np.max(err) <= 1e-13, k

    @settings(max_examples=80, deadline=None)
    @given(nmax=st.integers(1, 300), a=st.floats(-0.99, 40.0), b=st.floats(-0.99, 40.0),
           x=st.lists(st.floats(-1.0, 1.0), max_size=9))
    def test_bit_equal_to_the_row_by_row_recurrence(self, nmax, a, b, x):
        # reference: each row as one expression, with numpy-scalar recurrence coefficients
        alpha, beta = jacobi_recurrence(nmax + 1, a, b)
        x = np.asarray(x, dtype=float)
        ref = np.empty((nmax, x.size))
        ref[0] = 1.0 / np.sqrt(beta[0])
        if nmax > 1:
            ref[1] = (x - alpha[0]) * ref[0] / np.sqrt(beta[1])
        for k in range(2, nmax):
            ref[k] = ((x - alpha[k - 1]) * ref[k - 1]
                      - np.sqrt(beta[k - 1]) * ref[k - 2]) / np.sqrt(beta[k])
        assert np.array_equal(jacobi_orthonormal_table(nmax, a, b, x), ref)

    def test_high_degree_stable(self):
        vals = jacobi_orthonormal_table(2001, 0.25, 0.25, np.linspace(-0.99, 0.99, 11))[2000]
        assert np.all(np.isfinite(vals))

    def test_rejects_negative_degree(self):
        # an empty table (degree -1) and a negative size are both rejected
        for nmax in (0, -1):
            with pytest.raises(ValueError):
                jacobi_orthonormal_table(nmax, 0, 0, 0.0)


# ---------------------------------------------------------------------------
# gauss_jacobi
# ---------------------------------------------------------------------------

class TestGaussJacobi:
    def test_two_point_legendre(self):
        rule = gauss_jacobi(2, 0, 0)
        assert rule.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize("size,a,b", [(5, 0.0, 0.0), (16, 0.5, 0.5), (40, -0.4, 1.7), (64, 3.0, 0.2)])
    def test_zeroth_moment(self, size, a, b):
        rule = gauss_jacobi(size, a, b)
        mass = jacobi_moments(0, a, b)[0]
        assert np.sum(rule.weights) == pytest.approx(mass, rel=1e-12)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 64, 65])
    def test_chebyshev_first_kind(self, size):
        # a + b = -1: the recurrence's k = 1 coefficient is 0/0 in its general form
        rule = gauss_jacobi(size, -0.5, -0.5)
        k = np.arange(size, 0, -1)
        assert np.max(np.abs(rule.nodes - np.cos((2 * k - 1) * np.pi / (2 * size)))) <= 1e-14
        assert np.max(np.abs(rule.weights - np.pi / size)) <= 1e-14

    def test_x10_moment_against_recursion_oracle(self):
        rule = gauss_jacobi(8, 0.5, 0.5)
        got = np.sum(rule.weights * rule.nodes**10)
        assert got == pytest.approx(jacobi_moments(10, 0.5, 0.5)[10], rel=1e-12)

    def test_exactness_all_degrees(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            size = int(rng.integers(2, 65))
            a = float(rng.uniform(-0.6, 2.0))
            b = float(rng.uniform(-0.6, 2.0))
            rule = gauss_jacobi(size, a, b)
            moments = jacobi_moments(2 * size - 1, a, b)
            scale = np.abs(moments[0])
            for k in range(2 * size):
                got = np.sum(rule.weights * rule.nodes**k)
                assert abs(got - moments[k]) <= 1e-12 * scale, (size, a, b, k)

    def test_invariants(self):
        rule = gauss_jacobi(33, 1.2, -0.3)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > -1 and rule.nodes[-1] < 1
        assert np.all(rule.weights > 0)

    def test_legendre_01_mass(self):
        rule = gauss_legendre_01(17)
        assert rule.interval == (0.0, 1.0)
        assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-14)
        assert np.sum(rule.weights * rule.nodes**3) == pytest.approx(0.25, rel=1e-13)

    @pytest.mark.parametrize("a", [130.0, 148.0])
    def test_weights_below_the_float_range_fail_without_a_warning(self, a):
        # sum p_k^2 overflows at the end nodes: a NumericsError naming the
        # size and the exponents, and no RuntimeWarning (which fails a test)
        with pytest.raises(NumericsError, match=f"2048-node .*\\^{a:g} .*use fewer nodes"):
            gauss_jacobi(2048, a, a)
        assert np.min(gauss_jacobi(2048, 120.0, 120.0).weights) > 0
        assert np.all(gauss_jacobi(512, a, a).weights > 0)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            gauss_jacobi(0, 0, 0)
        with pytest.raises(ValueError):
            gauss_jacobi(200_000, 0, 0)
        with pytest.raises(ValueError):
            gauss_jacobi(4, -1.0, 0.0)


_EXPONENT = st.floats(-0.45, 30.0, exclude_min=True)


class TestGaussJacobiProperties:
    @settings(max_examples=150, deadline=None)
    @given(size=st.integers(1, 600),
           ab=_EXPONENT.map(lambda a: (a, a)) | st.tuples(_EXPONENT, _EXPONENT))
    def test_rule_invariants(self, size, ab):
        a, b = ab
        rule = gauss_jacobi(size, a, b)
        nodes, weights = rule.nodes, rule.weights
        assert nodes.size == weights.size == size
        assert np.all(np.diff(nodes) > 0) and nodes[0] > -1 and nodes[-1] < 1
        assert np.all(weights > 0)
        mass = jacobi_recurrence(1, a, b)[1][0]
        assert abs(math.fsum(weights) - mass) <= 1e-13 * mass
        if size <= 300:
            table = jacobi_orthonormal_table(size, a, b, nodes)
            assert np.max(np.abs((table * weights) @ table.T - np.eye(size))) <= 1e-12
        if a == b:
            # the nonnegative half is mirrored exactly
            assert np.all(nodes == -nodes[::-1])
            assert weights.tobytes() == weights[::-1].tobytes()
            if size % 2:
                assert nodes[size // 2] == 0.0

    @pytest.mark.parametrize("size,a,b,rows", [(64, 0.5, 0.5, 32), (65, 0.5, 0.5, 32), (513, 0.0, 0.0, 256),
                                               (64, 1.2, -0.3, 64)])
    def test_eigenvalues_only_on_half_the_rows_when_symmetric(self, monkeypatch, size, a, b, rows):
        real, calls = specfun.eigh_tridiagonal, []

        def spy(d, e, **kwargs):
            calls.append((len(d), kwargs.get("eigvals_only", False)))
            return real(d, e, **kwargs)

        monkeypatch.setattr(specfun, "eigh_tridiagonal", spy)
        gauss_jacobi(size, a, b)
        assert calls == [(rows, True)]


# ---------------------------------------------------------------------------
# symtridiag_eigen
# ---------------------------------------------------------------------------

class TestSymtridiag:
    def test_one_by_one(self):
        w, v = symtridiag_eigen([3.5], [])
        assert w == pytest.approx([3.5])
        assert np.allclose(v, [[1.0]])

    def test_two_by_two_symmetry(self):
        w, _ = symtridiag_eigen([0.0, 0.0], [1.0])
        assert w == pytest.approx([-1.0, 1.0], abs=1e-15)

    def test_random_against_bisection_oracle(self):
        rng = np.random.default_rng(7)
        diag = rng.standard_normal(10)
        off = rng.standard_normal(9)
        w, v = symtridiag_eigen(diag, off)
        oracle = bisection_eigenvalues(diag, off)
        assert np.max(np.abs(w - oracle)) <= 1e-10

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(3)
        diag = rng.uniform(-5, 5, 200)
        off = rng.uniform(-2, 2, 199)
        w, v = symtridiag_eigen(diag, off)
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        scale = np.linalg.norm(T, 2)
        resid = np.max(np.linalg.norm(T @ v - v * w, axis=0))
        assert resid <= 1e-12 * scale
        assert np.max(np.abs(v.T @ v - np.eye(200))) <= 1e-12
        assert np.all(np.diff(w) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            symtridiag_eigen([], [])
        with pytest.raises(ValueError):
            symtridiag_eigen([1.0, 2.0], [])
        with pytest.raises(ValueError):
            symtridiag_eigen([1.0, np.inf], [0.0])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _sterf_outcome(eigh, d, e):
    try:
        return eigh(d, e, eigvals_only=True, lapack_driver="sterf").tobytes()
    except LinAlgError:
        return LinAlgError


class TestLapackLoader:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 300).flatmap(lambda n: st.tuples(st.lists(_FINITE, min_size=n, max_size=n),
                                                           st.lists(_FINITE, min_size=n - 1, max_size=n - 1))))
    def test_eigh_tridiagonal_is_scipys_sterf_bit_for_bit(self, entries):
        from scipy import linalg

        d, e = (np.array(x) for x in entries)
        assert _sterf_outcome(specfun.eigh_tridiagonal, d, e) == _sterf_outcome(linalg.eigh_tridiagonal, d, e)

    @pytest.mark.parametrize("eigvals_only,driver", [(False, "sterf"), (True, "auto"), (True, "stev"),
                                                     (True, "stevd"), (True, "stebz"), (True, "stemr")])
    def test_eigh_tridiagonal_accepts_only_sterf_eigenvalues(self, eigvals_only, driver):
        with pytest.raises(ValueError):
            specfun.eigh_tridiagonal([1.0, 2.0], [0.5], eigvals_only=eigvals_only, lapack_driver=driver)

    def test_missing_extension_names_the_directory_searched(self, monkeypatch, tmp_path):
        monkeypatch.setattr(specfun.scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match="no LAPACK extension") as err:
            specfun._load_flapack()
        assert str(tmp_path) in str(err.value)


def test_recurrence_mass_matches_moment_oracle():
    for a, b in [(0.0, 0.0), (0.5, 0.5), (1.3, -0.2)]:
        _, beta = jacobi_recurrence(3, a, b)
        assert beta[0] == pytest.approx(jacobi_moments(0, a, b)[0], rel=1e-14)


@pytest.mark.parametrize("a,b", [(-0.5, -0.5), (-0.3, -0.7), (0.0, 0.0), (1.3, -0.2)])
def test_second_coefficient_matches_moment_oracle(a, b):
    # beta_1 = m_2/m_0 - alpha_0^2; at a + b = -1 the general formula is 0/0
    m = jacobi_moments(2, a, b)
    _, beta = jacobi_recurrence(3, a, b)
    assert beta[1] == pytest.approx(m[2] / m[0] - (m[1] / m[0]) ** 2, rel=1e-13)


@pytest.mark.parametrize("a,b,rel", [(20.0, 0.0, 2e-15), (60.0, 0.0, 2e-15), (20.0, 20.0, 2e-15),
                                     (60.0, 60.0, 2e-15), (84.5, 84.5, 2e-15), (150.0, 0.0, 2e-15),
                                     (100.0, 100.0, 1e-13)])
def test_mass_and_weight_sum_at_large_alpha_against_mpmath(a, b, rel):
    # beta_0 = 2^(a+b+1) B(a+1, b+1) at large CPSWF and GPSWF alpha, where a
    # sum of log-Gammas loses digits to cancellation (4e-14 at a = 60); past
    # a + b + 2 = 171, where Gamma overflows, that sum is all there is
    import mpmath as mp

    with mp.workdps(40):
        mass = float(2 ** (mp.mpf(a) + b + 1) * mp.beta(a + 1, b + 1))
    _, beta = jacobi_recurrence(1, a, b)
    assert abs(beta[0] - mass) <= rel * mass
    assert abs(math.fsum(gauss_jacobi(8, a, b).weights) - mass) <= 2.5 * rel * mass


# rules whose smallest weights are tiny (6e-35 at (64, 40, 0)); eigenvector
# first rows, which come out as exact 0 there, cannot give them
LARGE_ALPHA_RULES = [(64, 40.0, 0.0), (64, 60.0, 0.0), (512, 20.0, 0.0), (512, 20.0, 20.0)]


@pytest.mark.parametrize("size,a,b", LARGE_ALPHA_RULES)
def test_even_moments_at_large_alpha_against_mpmath(size, a, b):
    import mpmath as mp

    rule = gauss_jacobi(size, a, b)
    assert np.all(rule.weights > 0)
    with mp.workdps(40):
        for k in range(0, 21, 2):
            exact = float(mp.quad(lambda x: x**k * (1 - x) ** a * (1 + x) ** b, [-1, 0, 1]))
            got = math.fsum(rule.weights * rule.nodes**k)
            assert abs(got - exact) <= 5e-14 * exact, k


class TestRulesReadOnly:
    @pytest.mark.parametrize("build", [lambda: gauss_jacobi(9, 0.5, 0.5), lambda: gauss_legendre_01(9)])
    def test_rules_reject_writes(self, build):
        rule = build()
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_rule_copies_the_arrays_it_is_given(self):
        nodes, weights = np.array([-0.5, 0.5]), np.array([1.0, 1.0])
        rule = QuadratureRule(a=0.0, b=0.0, interval=(-1.0, 1.0), nodes=nodes, weights=weights)
        nodes[0] = 0.0
        assert rule.nodes[0] == -0.5 and nodes.flags.writeable


# ---------------------------------------------------------------------------
# the tridiagonal eigensolver: arbitrary-precision oracles, Gram error, determinism
# ---------------------------------------------------------------------------

def gauss_jacobi_oracle(n, a, b, guesses, dps=30):
    """Nodes and weights of the n-point Gauss-Jacobi rule at dps digits: the
    nodes are roots of P_n^(a,b) in its explicit binomial-sum form, refined
    from guesses, and the weights come from the classical formula
    w_j = C / ((1 - x_j^2) P_n'(x_j)^2), P_n' = (n+a+b+1)/2 P_{n-1}^(a+1,b+1).
    The sum's terms reach about 2^n, so it is evaluated with n/2 more
    digits, its coefficients formed once per polynomial."""
    import mpmath as mp

    def jacobi(k, a, b):
        coef = [mp.binomial(k + a, k - s) * mp.binomial(k + b, s) for s in range(k + 1)]
        return lambda x: mp.fsum(c * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (k - s)
                                 for s, c in enumerate(coef))

    with mp.workdps(dps + n // 2):
        a, b = mp.mpf(a), mp.mpf(b)
        const = (2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
                 / (mp.gamma(n + a + b + 1) * mp.factorial(n)))
        p_n, q = jacobi(n, a, b), jacobi(n - 1, a + 1, b + 1)
        nodes, weights = [], []
        for guess in guesses:
            x = mp.findroot(p_n, mp.mpf(float(guess)))
            dp = (n + a + b + 1) / 2 * q(x)
            nodes.append(float(x))
            weights.append(float(const / ((1 - x * x) * dp * dp)))
    return np.array(nodes), np.array(weights)


def sturm_bisection_oracle(diag, off, guesses, dps=32):
    """Eigenvalues j = 0..len(guesses)-1 of the tridiagonal (diag, off) at
    dps digits: bisection on the Sturm count (the number of negative pivots
    of T - x I) inside a bracket of +-1e-11 relative around each guess, which
    must hold exactly the j-th eigenvalue."""
    import mpmath as mp

    with mp.workdps(dps):
        d, e2 = [mp.mpf(float(x)) for x in diag], [mp.mpf(float(x)) ** 2 for x in off]

        def below(x):
            count, q = 0, d[0] - x
            for i in range(1, len(d) + 1):
                if q == 0:
                    q = mp.mpf(2) ** (-4 * dps)
                count += q < 0
                if i < len(d):
                    q = d[i] - x - e2[i - 1] / q
            return count

        exact = []
        for j, guess in enumerate(guesses):
            lo, hi = mp.mpf(float(guess)) * (1 - mp.mpf("1e-11")), mp.mpf(float(guess)) * (1 + mp.mpf("1e-11"))
            assert below(lo) == j and below(hi) == j + 1
            while hi - lo > mp.mpf(10) ** (-dps + 12) * hi:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if below(mid) <= j else (lo, mid)
            exact.append(float((lo + hi) / 2))
    return np.array(exact)


class TestMRRRGate:
    @pytest.mark.parametrize("a,b,n", [
        *((a, b, n) for a, b in ((0.0, 0.0), (0.5, 0.5), (-0.4, 1.7), (3.0, 0.2), (-0.3, -0.7))
          for n in (1, 2, 5, 8)),
        # a + b near -1, where beta_1's general form loses about ten digits
        *((a, a, n) for a in (-0.4999999999, -0.49999) for n in (2, 5, 8, 9)),
        # mirrored half-size rules, odd and even
        *((a, a, n) for a in (0.0, 0.5) for n in (3, 9, 64, 65)),
    ])
    def test_gauss_jacobi_against_mpmath_oracle(self, a, b, n):
        rule = gauss_jacobi(n, a, b)
        nodes, weights = gauss_jacobi_oracle(n, a, b, rule.nodes)
        assert np.max(np.abs(rule.nodes - nodes)) <= 1e-14
        assert np.max(np.abs(rule.weights - weights) / weights) <= 1e-13

    @pytest.mark.parametrize("family,alpha,c,N,certified", [
        ("gpswf", 0.5, 4.0, 24, True), ("gpswf", 0.0, 20.0, 24, False), ("cpswf", 1.5, 8.0, 16, True)])
    def test_galerkin_chi_against_mpmath_eigsy(self, family, alpha, c, N, certified):
        import mpmath as mp

        spec = ProlateSpec(family, alpha, c, N)
        exact, blocks = [], []
        with mp.workdps(30):
            for _, diag, off, _ in build_galerkin(spec):
                T = mp.zeros(diag.size)
                for i in range(diag.size):
                    T[i, i] = mp.mpf(float(diag[i]))
                    if i + 1 < diag.size:
                        T[i, i + 1] = T[i + 1, i] = mp.mpf(float(off[i]))
                exact += [float(w) for w in mp.eigsy(T, eigvals_only=True)]
                blocks.append(symtridiag_eigen(diag, off)[0])
        if certified:
            chi = solve(spec).chi
        else:
            # c = 20 is too large for N = 24: solve rejects the truncation,
            # and the whole-block eigenvalues it would merge are checked
            with pytest.raises(NumericsError, match="certifies only 0 of the 12"):
                solve(spec)
            chi = np.sort(np.concatenate(blocks))[: spec.n_retained]
        exact = np.sort(exact)[: chi.size]
        assert np.max(np.abs(chi - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-14

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    def test_gram_error_at_2048_nodes(self, a, b):
        rule = gauss_jacobi(2048, a, b)
        table = jacobi_orthonormal_table(2048, a, b, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(2048))) <= 1e-12

    @pytest.mark.parametrize("size,a,b", LARGE_ALPHA_RULES)
    def test_gram_error_at_large_alpha(self, size, a, b):
        rule = gauss_jacobi(size, a, b)
        table = jacobi_orthonormal_table(size, a, b, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(size))) <= 1e-12

    def test_repeated_rules_are_bit_identical(self):
        first, second = gauss_jacobi(300, 0.5, 0.5), gauss_jacobi(300, 0.5, 0.5)
        assert first.nodes.tobytes() == second.nodes.tobytes()
        assert first.weights.tobytes() == second.weights.tobytes()

    def test_lapack_routines_are_stevd_pttrf_and_sterf(self, monkeypatch):
        routines = []

        def spy(name, real):
            def call(*args, **kwargs):
                routines.append(kwargs.get("lapack_driver", name))
                return real(*args, **kwargs)
            return call

        lapack = SimpleNamespace(dstevd=spy("stevd", specfun.lapack.dstevd),
                                 dpttrf=spy("pttrf", specfun.lapack.dpttrf),
                                 dsterf=spy("sterf", specfun.lapack.dsterf))
        monkeypatch.setattr(specfun, "lapack", lapack)
        symtridiag_eigen([1.0, 2.0, 3.0], [0.5, 0.5])
        assert routines == ["stevd", "pttrf"]
        symtridiag_eigen([1.0, 2.0, 3.0], [0.5, 0.5], eigvals_only=True)
        assert routines == ["stevd", "pttrf", "sterf"]

    def test_lapack_failure_raises_numerics_error(self, monkeypatch):
        real = specfun.lapack
        monkeypatch.setattr(specfun, "lapack", SimpleNamespace(
            dstevd=real.dstevd, dpttrf=real.dpttrf, dsterf=lambda d, e: (real.dsterf(d, e)[0], 1)))
        with pytest.raises(NumericsError, match="did not converge"):
            symtridiag_eigen([1.0, 2.0, 3.0], [0.5, 0.5], eigvals_only=True)
        with pytest.raises(NumericsError):
            gauss_jacobi(8, 0.0, 0.0)
        monkeypatch.setattr(specfun, "lapack", SimpleNamespace(
            dstevd=lambda d, e: (*real.dstevd(d, e)[:2], 1), dpttrf=real.dpttrf, dsterf=real.dsterf))
        with pytest.raises(NumericsError, match="did not converge: stevd exited with info=1"):
            symtridiag_eigen([1.0, 2.0, 3.0], [0.5, 0.5])

    def test_indefinite_matrix_keeps_the_stevd_eigenvalues(self):
        # no L D L^T factor with D > 0 exists: the D&C eigenvalues are returned as they are
        diag, off = np.array([1.0, -2.0, 3.0, 0.5]), np.array([0.5, 0.25, 2.0])
        w, v, _ = specfun.lapack.dstevd(diag, off)
        got_w, got_v = symtridiag_eigen(diag, off)
        assert got_w.tobytes() == w.tobytes() and got_v.tobytes() == v.tobytes()

    @pytest.mark.parametrize("family,alpha,c,N,keep", [("gpswf", 0.0, 200.0, 1024, 0.25),
                                                       ("cpswf", 1.5, 100.0, 256, 0.5)])
    def test_small_chi_at_large_c_against_sturm_bisection(self, family, alpha, c, N, keep):
        # at c >> 1 the lowest chi sit far below ||T||: divide and conquer
        # alone misses chi_0 by 3-8e-14 relative at gpswf c = 200, and the
        # L D L^T Rayleigh quotient recovers it.  Every block is checked on
        # its leading window (388 of 512 rows at gpswf) and whole.
        spec = ProlateSpec(family, alpha, c, N, keep)
        free = _free_spectrum(spec, N)
        bound = free[spec.n_retained - 1] + c * c
        for b in build_galerkin(spec):
            window = _solve_leading(b, np.count_nonzero(free[b.rows] <= bound))[1].shape[0]
            for size in {window, b.diag.size}:
                diag, off = b.diag[:size], b.off[: size - 1]
                chi = symtridiag_eigen(diag, off)[0][:4]
                exact = sturm_bisection_oracle(diag, off, chi)
                assert np.max(np.abs(chi - exact) / exact) <= 1e-14
