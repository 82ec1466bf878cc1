import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import beta

from prolatesum.prolate import Family, ProlateSpec, solve
from prolatesum.riesz import expansion_coeffs
from prolatesum.specfun import bessel_j, gauss_jacobi, gauss_legendre_01
from prolatesum.transforms import (
    SampledFunction,
    apply_Qc,
    bandlimit_kernel,
    estimate_mu,
    family_transform,
    finite_fourier,
    finite_hankel,
    mode_transforms,
    rayleigh,
    sample_mode,
)


@pytest.fixture(scope="module")
def es_g5():
    return solve(ProlateSpec(family=Family.GPSWF, alpha=0.0, c=5.0, N=128))


@pytest.fixture(scope="module")
def es_c5():
    return solve(ProlateSpec(family=Family.CPSWF, alpha=0.5, c=5.0, N=128))


def weight_mass(alpha):
    return 2.0 ** (2 * alpha + 1) * beta(alpha + 1, alpha + 1)


def block_mu(es, count, size=512):
    """Modes 0..count-1 on the default rule as one block f, their transform
    g, and mu_n = rayleigh(g, f): one kernel for the block."""
    rule = es.default_rule(size)
    f = SampledFunction(rule=rule, values=es.rule_modes(rule)[:count])
    g = family_transform(es, f)
    return f, g, rayleigh(g, f)


class TestSampledFunction:
    def test_length_mismatch(self):
        rule = gauss_jacobi(8, 0, 0)
        with pytest.raises(ValueError):
            SampledFunction(rule=rule, values=np.ones(7))

    def test_nonfinite_rejected(self):
        rule = gauss_jacobi(8, 0, 0)
        vals = np.ones(8)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            SampledFunction(rule=rule, values=vals)

    def test_three_d_values_rejected(self):
        rule = gauss_jacobi(8, 0, 0)
        with pytest.raises(ValueError, match="shape"):
            SampledFunction(rule=rule, values=np.ones((2, 3, 8)))

    def test_misaligned_block_rejected(self):
        rule = gauss_jacobi(8, 0, 0)
        with pytest.raises(ValueError, match="shape"):
            SampledFunction(rule=rule, values=np.ones((3, 7)))
        with pytest.raises(ValueError, match="shape"):
            SampledFunction(rule=rule, values=np.ones((8, 3)))


class TestBlocks:
    """Every quadrature product on a block of functions equals, bit for bit,
    the product on each of its rows alone."""

    @staticmethod
    def _rows_equal(block_op, block):
        out = block_op(block)
        for k, row in enumerate(block.values):
            assert np.array_equal(out[k], block_op(SampledFunction(rule=block.rule, values=row)))

    def test_gpswf_ops(self, es_g5):
        rule = es_g5.default_rule(128)
        block = SampledFunction(rule=rule, values=np.random.default_rng(3).standard_normal((3, 128)))
        self._rows_equal(lambda f: finite_fourier(0.0, 5.0, f).values, block)
        self._rows_equal(lambda f: apply_Qc(0.0, 5.0, f).values, block)
        self._rows_equal(lambda f: expansion_coeffs(f, es_g5), block)
        self._rows_equal(lambda f: rayleigh(finite_fourier(0.0, 5.0, f), f), block)

    def test_cpswf_ops(self, es_c5):
        rule = es_c5.default_rule(128)
        block = SampledFunction(rule=rule, values=np.random.default_rng(4).standard_normal((3, 128)))
        self._rows_equal(lambda f: finite_hankel(0.5, 5.0, f).values, block)
        self._rows_equal(lambda f: expansion_coeffs(f, es_c5), block)
        self._rows_equal(lambda f: rayleigh(finite_hankel(0.5, 5.0, f), f), block)

    def test_block_shapes(self, es_g5):
        # 128 nodes: a 64-node rule cannot resolve the 64 retained modes
        rule = es_g5.default_rule(128)
        block = SampledFunction(rule=rule, values=np.ones((3, 128)))
        assert finite_fourier(0.0, 5.0, block).values.shape == (3, 128)
        assert expansion_coeffs(block, es_g5).shape == (3, es_g5.n_retained)
        assert rayleigh(block, block).shape == (3,)


class TestSampleMode:
    def test_row_of_the_mode_table(self, es_g5):
        rule = es_g5.default_rule(128)
        assert np.array_equal(sample_mode(es_g5, 3, rule=rule).values, es_g5.rule_modes(rule)[3])

    @pytest.mark.parametrize("n", [-1, 64])
    def test_unretained_mode_rejected(self, es_g5, n):
        with pytest.raises(ValueError, match="not retained"):
            sample_mode(es_g5, n)


class TestFiniteFourier:
    def test_c0_constant_gives_weight_mass(self):
        for alpha in (0.0, 0.5, 1.2):
            rule = gauss_jacobi(64, alpha, alpha)
            f = SampledFunction(rule=rule, values=np.ones(64))
            g = finite_fourier(alpha, 0.0, f)
            assert np.allclose(g.values, weight_mass(alpha), rtol=1e-13)

    def test_odd_mode_maps_to_odd_function(self, es_g5):
        f = sample_mode(es_g5, 1)
        g = finite_fourier(0.0, 5.0, f)
        assert np.max(np.abs(g.values[::-1] + g.values)) <= 1e-12 * np.max(np.abs(g.values))

    def test_eigen_residual(self, es_g5):
        f = sample_mode(es_g5, 0, rule=es_g5.default_rule(512))
        g = finite_fourier(0.0, 5.0, f)
        mu = rayleigh(g, f)
        w = f.rule.weights
        num = np.sqrt(np.sum(w * np.abs(g.values - mu * f.values) ** 2))
        den = abs(mu) * np.sqrt(np.sum(w * np.abs(f.values) ** 2))
        assert num / den <= 1e-6

    def test_linearity(self, es_g5):
        rule = es_g5.default_rule(128)
        rng = np.random.default_rng(0)
        f1, f2 = rng.standard_normal((2, 128))
        a, b = 0.7, -1.3
        g = finite_fourier(0.0, 5.0, SampledFunction(rule=rule, values=a * f1 + b * f2))
        g1 = finite_fourier(0.0, 5.0, SampledFunction(rule=rule, values=f1))
        g2 = finite_fourier(0.0, 5.0, SampledFunction(rule=rule, values=f2))
        assert np.allclose(g.values, a * g1.values + b * g2.values, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        rule = gauss_jacobi(16, 0.5, 0.5)
        f = SampledFunction(rule=rule, values=np.ones(16))
        with pytest.raises(ValueError, match="Gauss-Jacobi"):
            finite_fourier(0.0, 1.0, f)
        with pytest.raises(ValueError):
            finite_fourier(0.5, 1.0, SampledFunction(rule=gauss_legendre_01(16), values=np.ones(16)))


class TestQc:
    def test_kernel_closed_form_alpha0(self):
        x = np.array([1e-12, 0.3, 1.7, 8.0, 40.0])
        expected = np.where(x < 1e-8, 2.0, 2.0 * np.sin(x) / x)
        assert np.allclose(bandlimit_kernel(0.0, x), expected, atol=1e-13)
        assert bandlimit_kernel(0.0, 0.0)[0] == pytest.approx(2.0)

    def test_kernel_even(self):
        assert np.allclose(bandlimit_kernel(0.7, -2.3), bandlimit_kernel(0.7, 2.3))

    def test_kernel_overflowing_gamma_rejected(self):
        # Gamma(nu + 1) (2/t)^nu, nu = alpha + 1/2, exceeds the float range at
        # the end of the series regime t = nu / 2 from alpha = 1800 or so
        with pytest.raises(ValueError, match="too large"):
            bandlimit_kernel(2000.0, [1.0, 2000.0])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 100.0, 150.0, 200.0])
    def test_kernel_against_mpmath(self, alpha):
        # at alpha = 100, J_nu(1e-6) and (1e-6)^nu both underflow: their
        # ratio once read nan, and its limit 0.1766 at t -> 0 read 0 at t = 1e-3
        import mpmath as mp

        t = np.array([0.0, 1e-6, 1e-3, 1.0, 8.9, 9.1, 30.0, 74.0, 76.0, 200.0, 5000.0])
        with mp.workdps(40):
            nu = mp.mpf(alpha) + mp.mpf(1) / 2
            scale = mp.sqrt(mp.pi) * mp.gamma(alpha + 1)
            exact = [float(scale / mp.gamma(nu + 1)) if x == 0 else
                     float(scale * (2 / mp.mpf(x)) ** nu * mp.besselj(nu, x)) for x in t]
        assert np.max(np.abs(bandlimit_kernel(alpha, t) - exact)) <= 5e-14

    def test_eigenvalue_matches_fourier_composition(self, es_g5):
        # Q_c = (c/2pi) F* F  =>  Q eigenvalue equals (c/2pi)|mu_n|^2
        f, _, mu = block_mu(es_g5, 6)
        lam = rayleigh(apply_Qc(0.0, 5.0, f), f)
        for n in range(6):
            assert abs(lam[n] - 5.0 / (2 * np.pi) * abs(mu[n]) ** 2) <= 1e-8

    def test_self_adjoint(self):
        rule = gauss_jacobi(96, 0.5, 0.5)
        rng = np.random.default_rng(1)
        f = SampledFunction(rule=rule, values=rng.standard_normal(96))
        g = SampledFunction(rule=rule, values=rng.standard_normal(96))
        Qf = apply_Qc(0.5, 3.0, f)
        Qg = apply_Qc(0.5, 3.0, g)
        lhs = np.sum(rule.weights * Qf.values * g.values)
        rhs = np.sum(rule.weights * f.values * Qg.values)
        assert abs(lhs - rhs) <= 1e-10


class TestFiniteHankel:
    def test_kernel_symmetry_exact(self):
        rule = gauss_legendre_01(16)
        x = rule.nodes
        arg = 3.0 * np.outer(x, x)
        K = np.sqrt(arg) * bessel_j(0.5, arg)
        assert np.array_equal(K, K.T)

    def test_half_order_closed_form(self):
        # kernel sqrt(2/pi) sin(cxy); apply to f == 1 and compare exactly
        c = 5.0
        rule = gauss_legendre_01(512)
        f = SampledFunction(rule=rule, values=np.ones(512))
        g = finite_hankel(0.5, c, f)
        x = rule.nodes
        oracle = np.sqrt(2 / np.pi) * (1 - np.cos(c * x)) / (c * x)
        assert np.max(np.abs(g.values - oracle)) <= 1e-10

    def test_eigen_residual_above_noise_floor(self, es_c5):
        f, g, mus = block_mu(es_c5, 9)
        for n in range(9):
            mu = mus[n]
            resid = np.sqrt(np.sum(f.rule.weights * (g.values[n] - mu.real * f.values[n]) ** 2))
            if abs(mu) >= 1e-6:
                assert resid / abs(mu) <= 1e-6, n
            else:
                # below the double-precision noise floor only the absolute
                # residual is meaningful
                assert resid <= 1e-12, n

    def test_rejects_nonpositive_c(self):
        rule = gauss_legendre_01(8)
        f = SampledFunction(rule=rule, values=np.ones(8))
        with pytest.raises(ValueError):
            finite_hankel(0.5, 0.0, f)

    def test_rejects_order_below_minus_half(self):
        f = SampledFunction(rule=gauss_legendre_01(8), values=np.ones(8))
        with pytest.raises(ValueError, match="alpha must be >= -1/2"):
            finite_hankel(-0.6, 1.0, f)

    def test_grid_mismatch(self):
        rule = gauss_jacobi(8, 0, 0)
        f = SampledFunction(rule=rule, values=np.ones(8))
        with pytest.raises(ValueError, match="Gauss-Legendre"):
            finite_hankel(0.5, 1.0, f)


class TestEstimateMu:
    """mu_n from family_transform + rayleigh on one block of mode-table rows."""

    def test_phase_pattern(self, es_g5):
        # mu_n = i^n |mu_n| up to the sign convention: phase is a multiple of pi/2
        _, _, mus = block_mu(es_g5, 8)
        for n, mu in enumerate(mus):
            phase = np.angle(mu) / (np.pi / 2)
            assert abs(phase - round(phase)) <= 1e-6
            assert round(phase) % 2 == n % 2  # real for even n, imaginary for odd

    def test_magnitude_decreasing(self, es_g5):
        mags = np.abs(block_mu(es_g5, 9)[2])
        assert np.all(np.diff(mags) < 0)

    def test_qc_eigenvalue_range(self, es_g5):
        for mu in block_mu(es_g5, 9)[2]:
            lam = 5.0 / (2 * np.pi) * abs(mu) ** 2
            assert 0.0 < lam <= 1.0 + 1e-10

    def test_cpswf_concentration_range(self, es_c5):
        for mu in block_mu(es_c5, 6)[2]:
            assert 0.0 < abs(mu) ** 2 <= 1.0 + 1e-10

    def test_small_c_limit(self):
        alpha = 0.3
        es = solve(ProlateSpec(family=Family.GPSWF, alpha=alpha, c=1e-4, N=32))
        mu0 = block_mu(es, 1)[2][0]
        assert abs(mu0 - weight_mass(alpha)) <= 1e-6

    @pytest.mark.parametrize("es_name", ["es_g5", "es_c5"])
    def test_one_mode_alias_is_a_block_row(self, es_name, request):
        es = request.getfixturevalue(es_name)
        mus = block_mu(es, 5)[2]
        for n in range(5):
            assert estimate_mu(es.spec.alpha, es.spec.c, es, n) == complex(mus[n])

    @pytest.mark.parametrize("family,alpha", [("gpswf", 0.5), ("cpswf", 0.7)])
    def test_one_mode_at_n2048_on_a_rule_of_n_nodes(self, family, alpha):
        # the default rule has max(512, N) nodes: 512 cannot resolve 1024 modes
        es = solve(ProlateSpec(family=family, alpha=alpha, c=4.0, N=2048))
        mu = estimate_mu(alpha, 4.0, es, 0)
        assert sample_mode(es, 0).rule.size == 2048
        assert 0.0 < abs(mu) < 10.0

    def test_parameter_mismatch_rejected(self, es_g5):
        with pytest.raises(ValueError):
            estimate_mu(0.1, 5.0, es_g5, 0)
        with pytest.raises(ValueError):
            estimate_mu(0.0, 5.0, es_g5, 200)


class TestModeTransforms:
    """The closed-form transforms of the first modes against the quadrature
    kernels finite_fourier and finite_hankel, which stay as their oracle."""

    @pytest.mark.parametrize("family,alpha,c,N,size", [
        ("gpswf", 0.0, 5.0, 128, 512), ("gpswf", 0.0, 30.0, 256, 512),
        ("gpswf", 1.0, 16.0, 128, 257), ("gpswf", 1.0, 30.0, 256, 512),
        ("cpswf", 0.5, 4.0, 128, 512), ("cpswf", 0.5, 30.0, 256, 384),
        ("cpswf", 1.5, 7.0, 128, 512), ("cpswf", 1.5, 30.0, 256, 512),
        # an odd Gauss-Jacobi rule has an exact 0 node, where J_{k+a+1/2}(c|x|) / (c|x|)^{a+1/2}
        # takes its limit, with no division by 0 (a RuntimeWarning fails the test)
        ("gpswf", 0.5, 4.0, 128, 513),
        # f_0 and J_{a+1/2}(c|x|) / (c|x|)^{a+1/2} reach 1e187 and 1e-188 at
        # alpha = 100, 1e284 and 1e-285 at alpha = 140
        ("gpswf", 100.0, 4.0, 64, 128), ("gpswf", 140.0, 4.0, 64, 128),
    ])
    def test_against_the_quadrature_kernel(self, family, alpha, c, N, size):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # alpha outside the theorem range
            es = solve(ProlateSpec(family=family, alpha=alpha, c=c, N=N))
        rule = es.default_rule(size)
        g = mode_transforms(es, rule, 9)
        expected = family_transform(es, SampledFunction(rule=rule, values=es.rule_modes(rule)[:9]))
        assert g.rule is rule and g.values.shape == (9, size)
        assert np.max(np.abs(g.values - expected.values)) <= 1e-13 * np.max(np.abs(expected.values))

    def test_eigenrelation_is_tighter_than_the_kernel(self, es_c5):
        # cpswf alpha = 1/2, c = 5: verify's residual |F phi - mu phi| / |mu| over
        # the modes with |mu| >= 1e-8 is far smaller from the closed form
        rule = es_c5.default_rule(512)
        f = SampledFunction(rule=rule, values=es_c5.rule_modes(rule)[:9])

        def worst(g):
            mu = rayleigh(g, f)
            resid = np.sqrt(np.sum(rule.weights * np.abs(g.values - mu[:, None] * f.values) ** 2, axis=-1))
            return np.max((resid / np.abs(mu))[np.abs(mu) >= 1e-8])

        assert worst(mode_transforms(es_c5, rule, 9)) <= 1e-12 < worst(family_transform(es_c5, f))

    def test_rejections(self, es_g5, es_c5):
        with pytest.raises(ValueError, match="count"):
            mode_transforms(es_g5, es_g5.default_rule(), 0)
        with pytest.raises(ValueError, match="count"):
            mode_transforms(es_g5, es_g5.default_rule(), es_g5.n_retained + 1)
        with pytest.raises(ValueError, match="Gauss-Legendre"):
            mode_transforms(es_c5, es_g5.default_rule(), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            es = solve(ProlateSpec(family="gpswf", alpha=150.0, c=4.0, N=16))
        with pytest.raises(ValueError, match="alpha=150.0 is too large"):
            mode_transforms(es, es.default_rule(64), 3)


class TestCommutationWitness:
    def test_transform_image_stays_on_its_mode(self, es_g5):
        # numerical trace of the commuting-operator property: F phi_n has no
        # component on other retained modes, relative to its own
        rule = es_g5.default_rule(512)
        modes = es_g5.mode_matrix(rule.nodes)
        for n in range(6):
            g = finite_fourier(0.0, 5.0, sample_mode(es_g5, n, rule=rule))
            comps = modes @ (rule.weights * g.values)
            own = abs(comps[n])
            others = np.abs(np.delete(comps, n))
            assert np.max(others) <= 1e-6 * own

    def test_hankel_commutation(self, es_c5):
        rule = es_c5.default_rule(512)
        modes = es_c5.mode_matrix(rule.nodes)
        for n in range(4):
            g = finite_hankel(0.5, 5.0, sample_mode(es_c5, n, rule=rule))
            comps = modes @ (rule.weights * g.values)
            others = np.abs(np.delete(comps, n))
            assert np.max(others) <= 1e-6 * abs(comps[n])


def full_kernel(op, alpha, c, x):
    """The kernel of op evaluated on all Q^2 node pairs, one outer product:
    the reference for the once-per-pair construction."""
    if op is finite_fourier:
        return np.exp(1j * c * np.outer(x, x))
    if op is apply_Qc:
        return (c / (2 * np.pi)) * bandlimit_kernel(alpha, c * (x[:, None] - x[None, :]))
    arg = c * np.outer(x, x)
    return np.sqrt(arg) * bessel_j(alpha, arg)


class TestKernelOncePerPair:
    """Each transform kernel is evaluated once per unordered node pair and
    mirrored, and equals the all-pairs kernel bit for bit: the arguments
    c x y and c |x - y| reach bessel_j's series (x <= 9), Miller (9 < x < 18.5)
    and Hankel-asymptotic (x >= 18.5) regimes."""

    @settings(max_examples=60, deadline=None)
    @given(op=st.sampled_from([finite_fourier, apply_Qc, finite_hankel]),
           alpha=st.floats(0.0, 3.0), size=st.integers(1, 160), c=st.floats(0.5, 60.0),
           rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @example(op=apply_Qc, alpha=0.5, size=257, c=40.0, rows=3, seed=0)
    @example(op=finite_hankel, alpha=2.7, size=200, c=60.0, rows=2, seed=1)
    @example(op=finite_hankel, alpha=0.0, size=101, c=100.0, rows=1, seed=2)
    @example(op=finite_fourier, alpha=1.0, size=129, c=30.0, rows=3, seed=3)
    # a subnormal order: Miller's Neumann weight once overflowed here
    @example(op=finite_hankel, alpha=2.2e-311, size=64, c=37.0, rows=2, seed=4)
    def test_bit_identical_to_all_pairs(self, op, alpha, size, c, rows, seed):
        rule = gauss_legendre_01(size) if op is finite_hankel else gauss_jacobi(size, alpha, alpha)
        values = np.random.default_rng(seed).standard_normal((rows, size))
        f = SampledFunction(rule=rule, values=values[0] if rows == 1 else values)
        expected = f.apply(full_kernel(op, alpha, c, rule.nodes))
        assert np.array_equal(op(alpha, c, f).values, expected)
