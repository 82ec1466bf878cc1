import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prolatesum.prolate import Family, ProlateSpec, solve
from prolatesum.riesz import (
    DeltaThreshold,
    ExponentTable,
    RieszConfig,
    bump,
    bump_zero,
    delta_threshold,
    dual_exponent,
    dyadic_cutoff,
    dyadic_piece,
    dyadic_split,
    dyadic_tail,
    expansion_coeffs,
    riesz_kernel_table,
    riesz_mean,
    riesz_means,
    riesz_weight,
)
from prolatesum.transforms import SampledFunction, sample_mode


@pytest.fixture(scope="module")
def es():
    return solve(ProlateSpec(family=Family.GPSWF, alpha=0.0, c=1.0, N=128))


@pytest.fixture(scope="module")
def rule(es):
    return es.default_rule(512)


def ulps(x, n=4):
    return n * math.ulp(max(abs(x), 1.0))


class TestRieszWeight:
    def test_midpoint(self):
        assert riesz_weight(5.0, RieszConfig(R=10.0, delta=1.0)) == pytest.approx(0.5)

    def test_truncation(self):
        cfg = RieszConfig(R=7.0, delta=2.3)
        assert riesz_weight(7.0, cfg) == 0.0
        assert riesz_weight(11.0, cfg) == 0.0

    def test_at_zero(self):
        assert riesz_weight(0.0, RieszConfig(R=3.0, delta=0.7)) == 1.0

    def test_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            R = float(rng.uniform(0.5, 100))
            d = float(rng.uniform(0.05, 4))
            chi = np.sort(rng.uniform(0, 1.5 * R, size=20))
            w = riesz_weight(chi, RieszConfig(R=R, delta=d))
            assert np.all(np.diff(w) <= 1e-15)
            assert np.all((0 <= w) & (w <= 1))
            w2 = riesz_weight(chi, RieszConfig(R=R * 1.5, delta=d))
            assert np.all(w2 >= w - 1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RieszConfig(R=0.0, delta=1.0)
        with pytest.raises(ValueError):
            RieszConfig(R=1.0, delta=-0.5)
        with pytest.raises(ValueError):
            RieszConfig(R=np.inf, delta=1.0)


def _two_branch_bump(t):
    # the rising/falling form of bump, S(2t - 1) on [1/2, 1] and
    # 1 - S(t - 1) on (1, 2], kept as the reference for phi_0(t) - phi_0(t/2)
    def step(u):
        with np.errstate(divide="ignore", over="ignore"):
            eu = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
            ev = np.where(1 - u > 0, np.exp(-1.0 / np.where(1 - u > 0, 1 - u, 1.0)), 0.0)
        return eu / (eu + ev)

    rising = (t >= 0.5) & (t <= 1.0)
    falling = (t > 1.0) & (t <= 2.0)
    out = np.zeros_like(t)
    out[rising] = step(2.0 * t[rising] - 1.0)
    out[falling] = 1.0 - step(t[falling] - 1.0)
    return out


class TestBump:
    def test_peak(self):
        assert bump(1.0) == 1.0

    def test_support_endpoints(self):
        assert bump(0.5) == 0.0
        assert bump(2.0) == 0.0
        assert bump(0.49) == 0.0
        assert bump(2.01) == 0.0
        assert bump(-3.0) == 0.0

    def test_range(self):
        t = np.linspace(0.4, 2.2, 2001)
        v = bump(t)
        assert np.all((v >= 0) & (v <= 1))

    def test_telescoping_at_07(self):
        total = sum(bump(2.0**k * 0.7) for k in range(-30, 31))
        assert abs(total - 1.0) <= 1e-14

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(1e-6, 1.0, size=10_000)
        total = np.zeros_like(t)
        for k in range(-40, 41):
            total += bump(np.ldexp(t, k))
        assert np.max(np.abs(total - 1.0)) <= 1e-13

    def test_smooth_across_junctions(self):
        # C^inf construction: values agree closely around t = 1
        eps = 1e-8
        assert abs(bump(1.0 - eps) - bump(1.0 + eps)) <= 1e-7

    def test_bit_equal_to_the_two_branch_form(self):
        edges = np.array([0.5, 1.0, 2.0])
        rng = np.random.default_rng(8)
        t = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 3.0),
                            [-np.inf, -1.0, -0.0, 0.0, 5e-324, 1e-310, np.inf],
                            rng.uniform(0.0, 2.5, 100_000),
                            np.ldexp(rng.uniform(0.5, 1.0, 20_000), rng.integers(-60, 60, 20_000))])
        got = bump(t)
        assert got.tobytes() == _two_branch_bump(t).tobytes()
        assert not np.any(np.signbit(got))
        for x in t[:16]:
            assert type(bump(float(x))) is float and bump(float(x)) == _two_branch_bump(np.array([x]))[0]


class TestBumpZero:
    def test_one_for_t_ge_1(self):
        assert bump_zero(1.0) == 1.0
        assert bump_zero(5.7) == 1.0

    def test_zero_for_small_t(self):
        assert bump_zero(0.25) == 0.0
        assert bump_zero(0.1) == 0.0
        assert bump_zero(-1.0) == 0.0

    def test_complement_identity(self):
        t = np.geomspace(1e-5, 0.999, 400)
        tail = np.zeros_like(t)
        for k in range(1, 60):
            tail += bump(np.ldexp(t, k))
        assert np.max(np.abs(bump_zero(t) + tail - 1.0)) <= 1e-13


class TestDyadicPiece:
    def test_support_window(self):
        cfg = RieszConfig(R=100.0, delta=1.5)
        for k in (1, 2, 5):
            lo = 100.0 * (1 - 2.0 ** (-k + 1))
            hi = 100.0 * (1 - 2.0 ** (-k - 1))
            chi = np.linspace(0, 130, 4001)
            vals = dyadic_piece(chi, cfg, k)
            outside = (chi <= lo) | (chi >= hi)
            assert np.max(np.abs(vals[outside])) == 0.0
            inside = (chi > lo + 1) & (chi < hi - 1)
            assert np.max(vals[inside]) > 0

    def test_sup_bound(self):
        cfg = RieszConfig(R=50.0, delta=0.8)
        grid = np.linspace(0.0, 55.0, 100_001)
        for k in range(1, dyadic_cutoff(cfg) + 1):
            sup = np.max(np.abs(dyadic_piece(grid, cfg, k)))
            assert sup <= 2.0**cfg.delta * 2.0 ** (-k * cfg.delta)

    @pytest.mark.parametrize("R,delta", [(0.3, 0.7), (10.0, 1.0), (700.0, 2.7)])
    def test_head_is_piece_zero_and_negative_k_raises(self, R, delta):
        # piece 0 is the head t^delta phi_0(t), bit for bit, for every chi >= 0
        cfg = RieszConfig(R=R, delta=delta)
        chi = R * np.concatenate([[0.0, 0.5, 0.75, 1.0, 2.0],
                                  np.random.default_rng(5).uniform(0.0, 1.2, 5000)])
        t = np.maximum(1.0 - chi / R, 0.0)
        assert dyadic_piece(chi, cfg, 0).tobytes() == (t**delta * bump_zero(t)).tobytes()
        with pytest.raises(ValueError, match="k must be >= 0"):
            dyadic_piece(1.0, cfg, -1)

    @settings(max_examples=200, deadline=None)
    @given(log_R=st.floats(-3.0, 9.0), delta=st.floats(0.1, 3.0), k=st.integers(1, 40),
           fractions=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=40))
    def test_bit_identical_to_every_point_formula(self, log_R, delta, k, fractions):
        # the piece evaluates t^delta * bump(2^k t) on the bump's open support
        # only; everywhere else that product is +0.0 as well
        cfg = RieszConfig(R=10.0**log_R, delta=delta)
        chi = cfg.R * np.array(fractions)
        t = np.maximum(1.0 - chi / cfg.R, 0.0)
        expected = t**delta * bump(np.ldexp(t, k))
        got = dyadic_piece(chi, cfg, k)
        assert np.array_equal(got, expected) and not np.any(np.signbit(got))
        scalar = dyadic_piece(float(chi[0]), cfg, k)
        assert type(scalar) is float and scalar == expected[0]

    def test_decomposition_identity(self, es):
        rng = np.random.default_rng(17)
        for _ in range(10):
            R = float(rng.uniform(es.chi[2], es.certified_max))
            d = float(rng.uniform(0.1, 3.0))
            cfg = RieszConfig(R=R, delta=d)
            total = dyadic_piece(es.chi, cfg, 0)
            for k in range(1, dyadic_cutoff(cfg) + 1):
                total = total + dyadic_piece(es.chi, cfg, k)
            total = total + dyadic_tail(es.chi, cfg)
            gap = np.max(np.abs(total - riesz_weight(es.chi, cfg)))
            assert gap <= 1e-12, (R, d)

    def test_head_is_weight_for_chi_well_inside(self):
        # for chi <= 0 distance: t >= 1 means only the head survives
        cfg = RieszConfig(R=10.0, delta=1.3)
        assert dyadic_piece(0.0, cfg, 0) == pytest.approx(1.0)
        assert dyadic_tail(0.0, cfg) == 0.0


class TestDyadicSplit:
    @settings(max_examples=200, deadline=None)
    @given(log_R=st.floats(-3.0, 9.0),
           delta=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 200.0]), st.floats(0.05, 200.0)),
           fractions=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=40))
    def test_every_piece_bit_identical_to_the_point_formula(self, log_R, delta, fractions):
        # piece j is t^delta bump(2^j t) at every point, for j up to two past
        # the cutoff; chi < 0 has t = 1, chi >= R has t = 0, NaN reads +0.0
        cfg = RieszConfig(R=10.0**log_R, delta=delta)
        chi = np.concatenate([cfg.R * np.array(fractions), [np.nan, -np.inf, np.inf, 0.0, cfg.R]])
        t = np.clip(1.0 - chi / cfg.R, 0.0, 1.0)
        k, lower, upper = dyadic_split(chi, cfg)
        for j in range(dyadic_cutoff(cfg) + 3):
            expected = np.where(np.isnan(t), 0.0, t**delta * bump(np.ldexp(t, j))).tobytes()
            assert np.where(k == j, lower, np.where(k == j - 1, upper, 0.0)).tobytes() == expected
            assert dyadic_piece(chi, cfg, j).tobytes() == expected
        for i, x in enumerate(chi):
            kx, lx, ux = dyadic_split(float(x), cfg)
            assert type(kx) is int and type(lx) is float and type(ux) is float
            assert (kx, np.float64(lx).tobytes(), np.float64(ux).tobytes()) == (
                k[i], lower[i].tobytes(), upper[i].tobytes())

    @pytest.mark.parametrize("R,delta", [(0.3, 0.7), (1e3, 1.0), (3e5, 200.0)])
    def test_index_does_not_decrease_along_an_ascending_chi(self, R, delta):
        # t = 2^-s just below chi = R, t = 0 from R on and NaN last: the last
        # two get an index past every piece
        cfg = RieszConfig(R=R, delta=delta)
        chi = np.sort(np.concatenate([np.linspace(-R, 1.1 * R, 100_001),
                                      R * (1.0 - np.ldexp(1.0, -np.arange(1, 54))),
                                      [-np.inf, R, np.inf, np.nan]]))
        k = dyadic_split(chi, cfg)[0]
        assert np.all(k[1:] >= k[:-1])
        at_R = np.searchsorted(chi, R)
        assert k[0] == -1 and 50 <= k[at_R - 1] <= 53 and np.min(k[at_R:]) > 1074


def _summed_tail(chi, cfg):
    # the tail as a sum of pieces k = K+1, ..., up to the last piece that is
    # nonzero at the smallest positive t: the reference for the closed form
    t = 1.0 - np.asarray(chi, dtype=float) / cfg.R
    k_hi = int(np.ceil(1.0 - np.log2(np.min(t, where=t > 0, initial=2.0))))
    out = np.zeros_like(t)
    for k in range(dyadic_cutoff(cfg) + 1, k_hi + 1):
        out = out + dyadic_piece(chi, cfg, k)
    return out


class TestDyadicClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(log_R=st.floats(-3.0, 9.0), delta=st.floats(0.1, 3.0),
           fractions=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=40))
    def test_head_pieces_and_tail_sum_to_the_weight(self, log_R, delta, fractions):
        cfg = RieszConfig(R=10.0**log_R, delta=delta)
        chi = cfg.R * np.array(fractions)
        total = dyadic_piece(chi, cfg, 0)
        for k in range(1, dyadic_cutoff(cfg) + 1):
            total = total + dyadic_piece(chi, cfg, k)
        tail = dyadic_tail(chi, cfg)
        assert np.max(np.abs(total + tail - riesz_weight(chi, cfg))) <= 1e-15
        if cfg.R >= 1:
            assert np.max(np.abs(tail - _summed_tail(chi, cfg))) <= 2.3e-16

    def test_tail_below_radius_one(self):
        cfg = RieszConfig(R=0.5, delta=1.0)
        assert abs(dyadic_tail(0.1, cfg) - (0.8 - dyadic_piece(0.1, cfg, 0))) <= 1e-16

    def test_cutoff_is_never_negative(self):
        for R, K in [(1e-3, 0), (0.5, 0), (1.0, 0), (1.99, 0), (2.0, 1), (1000.0, 9), (1024.0, 10)]:
            assert dyadic_cutoff(RieszConfig(R=R, delta=1.0)) == K

    def test_head_matches_its_masked_form(self):
        # phi_0 as 0, 1 - bump(2t) on (1/2, 1) and 1: bit for bit at the edges
        # and their neighbouring floats, to rounding in between
        def masked(t):
            out = np.where(t >= 1.0, 1.0, 0.0)
            mid = (t > 0.5) & (t < 1.0)
            out[mid] = 1.0 - bump(2.0 * t[mid])
            return out

        edges = np.array([0.25, 0.5, 1.0, 2.0])
        t = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 3.0),
                            [-np.inf, -0.0, 0.0, 5e-324, np.inf]])
        assert bump_zero(t).tobytes() == masked(t).tobytes()
        t = np.random.default_rng(3).uniform(0.0, 1.5, 100_000)
        assert np.max(np.abs(bump_zero(t) - masked(t))) <= 1.2e-16

    def test_nan_is_nan_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(bump_zero(np.nan))
            assert np.isnan(bump_zero(np.array([0.7, np.nan, 2.0]))[1])

    @pytest.mark.parametrize("R,delta", [(0.5, 1.0), (10.0, 0.4), (3e5, 2.7)])
    def test_negative_chi_has_weight_one(self, R, delta):
        # t = 1 - chi/R is clipped to [0, 1]: below chi = 0 the weight is 1,
        # and the head alone carries it
        cfg = RieszConfig(R=R, delta=delta)
        chi = -R * np.array([1e-300, 0.5, 1.0, 7.0, 1e300])
        assert np.all(riesz_weight(chi, cfg) == 1.0)
        assert riesz_weight(-R, cfg) == 1.0
        total = sum(dyadic_piece(chi, cfg, k) for k in range(dyadic_cutoff(cfg) + 1))
        assert np.all(total + dyadic_tail(chi, cfg) == 1.0)


class TestExpansionAndMean:
    def test_single_mode_coefficients(self, es, rule):
        f = sample_mode(es, 0, rule=rule)
        a = expansion_coeffs(f, es)
        expected = np.zeros(es.n_retained)
        expected[0] = 1.0
        assert np.max(np.abs(a - expected)) <= 1e-10

    def test_constant_at_c0(self):
        es0 = solve(ProlateSpec(family=Family.GPSWF, alpha=0.0, c=0.0, N=64))
        rule = es0.default_rule(256)
        f = SampledFunction(rule=rule, values=np.ones(256))
        a = expansion_coeffs(f, es0)
        assert a[0] == pytest.approx(np.sqrt(2.0), abs=1e-13)
        assert np.max(np.abs(a[1:])) <= 1e-13

    def test_exp_coefficient_decay(self, es, rule):
        f = SampledFunction(rule=rule, values=np.exp(rule.nodes))
        a = expansion_coeffs(f, es)
        assert np.max(np.abs(a[30:])) <= 1e-12

    def test_grid_mismatch(self, es):
        from prolatesum.specfun import gauss_jacobi

        bad = gauss_jacobi(64, 0.5, 0.5)
        with pytest.raises(ValueError, match="family quadrature"):
            expansion_coeffs(SampledFunction(rule=bad, values=np.ones(64)), es)

    def test_riesz_mean_single_mode(self, es, rule):
        f = sample_mode(es, 0, rule=rule)
        cfg = RieszConfig(R=float(es.chi[10]), delta=1.5)
        g = riesz_mean(f, es, cfg)
        w0 = (1 - es.chi[0] / cfg.R) ** 1.5
        assert np.max(np.abs(g.values - w0 * f.values)) <= 1e-10

    def test_riesz_mean_zero_below_first_eigenvalue(self, es, rule):
        f = sample_mode(es, 0, rule=rule)
        cfg = RieszConfig(R=float(es.chi[0]) * 0.5, delta=1.0)
        g = riesz_mean(f, es, cfg)
        assert np.max(np.abs(g.values)) == 0.0

    def test_riesz_mean_exp_error_slope(self, es, rule):
        # smooth f: low-mode weight deficit dominates, error ~ 1/R
        f = SampledFunction(rule=rule, values=np.exp(rule.nodes))
        errs = []
        for idx in (20, 40):
            cfg = RieszConfig(R=float(es.chi[idx]), delta=1.0)
            g = riesz_mean(f, es, cfg)
            errs.append(np.sqrt(np.sum(rule.weights * (f.values - g.values) ** 2)))
        assert errs[1] < errs[0]
        slope = (np.log(errs[1]) - np.log(errs[0])) / (np.log(es.chi[40]) - np.log(es.chi[20]))
        assert slope == pytest.approx(-1.0, abs=0.3)

    def test_radius_beyond_certified_rejected(self, es, rule):
        f = sample_mode(es, 0, rule=rule)
        with pytest.raises(ValueError, match="exceeds certified spectrum"):
            riesz_mean(f, es, RieszConfig(R=es.certified_max * 1.01, delta=1.0))


_SYSTEMS = {}


def _system(family, alpha):
    if (family, alpha) not in _SYSTEMS:
        _SYSTEMS[family, alpha] = solve(ProlateSpec(family=family, alpha=alpha, c=3.0, N=64))
    return _SYSTEMS[family, alpha]


class TestRieszMeans:
    @settings(max_examples=30, deadline=None)
    @given(grid=st.sampled_from([(Family.GPSWF, 0.0), (Family.GPSWF, 1.0), (Family.CPSWF, 0.5)]),
           fractions=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
           delta=st.floats(0.05, 4.0))
    def test_rows_equal_single_radius_means(self, grid, fractions, delta):
        es = _system(*grid)
        rule = es.default_rule(128)
        x = rule.nodes
        values = np.stack([np.exp(x), np.sin(3.0 * x), 1.0 / (1.0 + 25.0 * x * x)])
        R_grid = np.array(fractions) * es.certified_max
        means = riesz_means(values, rule, es, R_grid, delta)
        assert means.shape == (R_grid.size, 3, rule.size)
        for i, R in enumerate(R_grid):
            for k, v in enumerate(values):
                single = riesz_mean(SampledFunction(rule=rule, values=v), es,
                                    RieszConfig(R=float(R), delta=delta))
                assert np.max(np.abs(means[i, k] - single.values)) <= 1e-12 * np.max(np.abs(v))

    def test_largest_radius_checked(self, es, rule):
        values = np.ones((1, rule.size))
        with pytest.raises(ValueError, match="exceeds certified spectrum"):
            riesz_means(values, rule, es, [es.chi[3], es.certified_max * 1.01, es.chi[5]], 1.0)

    def test_nan_value_rejected(self, es, rule):
        values = np.ones((2, rule.size))
        values[1, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            riesz_means(values, rule, es, [es.chi[3]], 1.0)

    def test_shape_and_grid_validation(self, es, rule):
        with pytest.raises(ValueError, match="shape"):
            riesz_means(np.ones(rule.size), rule, es, [es.chi[3]], 1.0)
        with pytest.raises(ValueError, match="nonempty"):
            riesz_means(np.ones((1, rule.size)), rule, es, [], 1.0)
        with pytest.raises(ValueError, match="delta"):
            riesz_means(np.ones((1, rule.size)), rule, es, [es.chi[3]], 0.0)


def _pair_table(es, cfg, x, y):
    """The kernel table on the sorted pair: K(x, y) and K(y, x) are its two
    off-diagonal entries."""
    return riesz_kernel_table(es, cfg, np.sort([float(x), float(y)]))


class TestRieszKernel:
    def test_symmetry_exact(self, es):
        cfg = RieszConfig(R=float(es.chi[20]), delta=1.0)
        rng = np.random.default_rng(2)
        for _ in range(10):
            K = _pair_table(es, cfg, *rng.uniform(-0.99, 0.99, size=2))
            assert K[0, 1] == K[1, 0]

    def test_rank_one_limit(self, es):
        # huge delta with R below chi_1: only mode 0 survives with weight w0
        cfg = RieszConfig(R=float(es.chi[1]) - 0.5, delta=40.0)
        w0 = riesz_weight(es.chi[0], cfg)
        x, y = 0.3, -0.45
        phi0_x, phi0_y = es.mode_matrix([x, y])[0]
        expected = w0 * phi0_x * phi0_y
        assert _pair_table(es, cfg, x, y)[0, 1] == pytest.approx(expected, rel=1e-10)

    def test_reproducing_identity(self, es, rule):
        # quadrature of K_R(x, .) f(.) w(.) equals the summed mean at x
        cfg = RieszConfig(R=float(es.chi[30]), delta=1.0)
        f = SampledFunction(rule=rule, values=rule.nodes**2)
        g = riesz_mean(f, es, cfg)
        for x in np.linspace(-0.9, 0.9, 8):
            krow = np.array([_pair_table(es, cfg, x, y)[0, 1] for y in rule.nodes])
            via_kernel = np.sum(rule.weights * krow * f.values)
            ix = np.argmin(np.abs(rule.nodes - x))
            direct = float((riesz_weight(es.chi, cfg) * expansion_coeffs(f, es))
                           @ es.mode_matrix(np.array([x]))[:, 0])
            assert abs(via_kernel - direct) <= 1e-10
            assert abs(via_kernel - g.values[ix]) <= abs(direct - g.values[ix]) + 1e-10


class TestGammaTables:
    def test_gpswf_table_values_alpha0(self):
        assert abs(ExponentTable(Family.GPSWF, 0.0).gamma(10.0) - 0.3) <= ulps(0.3)
        assert ExponentTable(Family.GPSWF, 0.0).gamma(1.0) == 1.0
        assert ExponentTable(Family.GPSWF, 0.0).gamma(2.0) == 0.0

    def test_gpswf_branches(self):
        # p'_0 = 4 at alpha = 0; epsilon branch exactly on the critical line
        assert ExponentTable(Family.GPSWF, 0.0, eps_choice=0.02).gamma(4.0) == 0.02
        assert ExponentTable(Family.GPSWF, 0.0).gamma(3.999) == 0.0
        assert ExponentTable(Family.GPSWF, 0.0).gamma(math.inf) == pytest.approx(0.5)

    def test_gpswf_third_branch_continuity_alpha0(self):
        # 2(alpha+1)(1/2 - 1/p'_0) - 1/2 vanishes at alpha = 0, p'_0 = 4
        val = 2 * 1.0 * (0.5 - 0.25) - 0.5
        assert val == 0.0

    def test_gpswf_range_guard(self):
        with pytest.raises(ValueError):
            ExponentTable(Family.GPSWF, 1.6).gamma(2.0)
        with pytest.raises(ValueError):
            ExponentTable(Family.GPSWF, -0.2).gamma(2.0)
        assert ExponentTable(Family.GPSWF, -0.2, allow_extended_range=True).gamma(2.0) == 0.0
        with pytest.raises(ValueError):
            ExponentTable(Family.GPSWF, -0.7, allow_extended_range=True).gamma(2.0)

    def test_cpswf_table_values(self):
        assert ExponentTable(Family.CPSWF, 0.5).gamma(2.0) == 0.0
        assert ExponentTable(Family.CPSWF, 0.5).gamma(1.0) == 1.0
        assert abs(ExponentTable(Family.CPSWF, 0.5).gamma(8.0) - (-7.0 / 24.0)) <= ulps(7 / 24)

    def test_cpswf_branches(self):
        table = ExponentTable(Family.CPSWF, 0.5, eps_choice=0.05)
        assert table.gamma(4.0) == pytest.approx(0.05 - 0.25)
        assert ExponentTable(Family.CPSWF, 0.5).gamma(3.0) == pytest.approx(1 / 3 - 1 / 2)
        assert ExponentTable(Family.CPSWF, 0.5).gamma(math.inf) == pytest.approx(-1 / 3)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            ExponentTable(Family.GPSWF, 0.0).gamma(0.9)
        with pytest.raises(ValueError):
            ExponentTable(Family.CPSWF, 0.5).gamma(0.5)


class TestDeltaThreshold:
    def test_p2_is_zero(self):
        table = ExponentTable(Family.GPSWF, 0.0)
        thr = delta_threshold(table, 2.0)
        assert thr == DeltaThreshold(0.0, False)

    def test_critical_line_flagged(self):
        table = ExponentTable(Family.GPSWF, 0.0, eps_choice=0.01)
        thr = delta_threshold(table, 4.0 / 3.0)
        assert thr.critical
        assert thr.value == pytest.approx(0.005)
        assert table.p0 == pytest.approx(4.0 / 3.0)
        assert table.p0_dual == pytest.approx(4.0)

    def test_p_to_one_limit(self):
        table = ExponentTable(Family.GPSWF, 0.0)
        assert delta_threshold(table, 1.0).value == pytest.approx(0.25)
        assert delta_threshold(table, 1.000001).value == pytest.approx(0.25, abs=1e-5)

    def test_cpswf_threshold(self):
        table = ExponentTable(Family.CPSWF, 1.0)
        assert delta_threshold(table, 2.0).value == 0.0
        # p' = inf -> gamma = -1/3 -> clipped at zero
        assert delta_threshold(table, 1.0).value == 0.0
        assert table.epsilon == 2.0
        # the circular theorem excludes no exponent
        assert not delta_threshold(table, 4.0 / 3.0).critical

    def test_negative_gamma_clipped_visible(self):
        # theorem 2's third branch is negative for p > 4: the raw gamma stays
        # visible while the threshold reports the max with zero
        table = ExponentTable(Family.CPSWF, 1.0)
        assert table.gamma(8.0) < 0
        assert delta_threshold(table, 8.0 / 7.0).value == 0.0


def test_dual_exponent():
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(4.0) == pytest.approx(4.0 / 3.0)


# Reference copy of the two exponent tables as separate functions, with their
# own argument checks; ExponentTable must reproduce them bit for bit.
def _ref_gamma_gpswf(alpha, p, eps_choice=0.01, allow_extended_range=False):
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if not eps_choice > 0:
        raise ValueError("eps_choice must be positive")
    if not allow_extended_range and not 0.0 <= alpha < 1.5:
        raise ValueError(
            "alpha outside [0, 3/2); pass allow_extended_range=True to use the "
            "sufficiency-only range alpha > -1/2"
        )
    if alpha <= -0.5:
        raise ValueError("alpha must be > -1/2")
    p0 = 2.0 - 1.0 / (alpha + 1.5)
    p0_dual = dual_exponent(p0)
    if p == 1:
        return alpha + 1.0
    if math.isclose(p, p0_dual, rel_tol=1e-12):
        return eps_choice
    if p < p0_dual:
        return 0.0
    inv_p = 0.0 if p == math.inf else 1.0 / p
    return 2.0 * (alpha + 1.0) * (0.5 - inv_p) - 0.5


def _ref_gamma_cpswf(p, eps_choice=0.01):
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if not eps_choice > 0:
        raise ValueError("eps_choice must be positive")
    if p == 1:
        return 1.0
    if math.isclose(p, 4.0, rel_tol=1e-12):
        return eps_choice - 0.25
    inv_p = 0.0 if p == math.inf else 1.0 / p
    if p < 4.0:
        return inv_p - 0.5
    return (inv_p - 1.0) / 3.0


def _ref_summary(family, alpha, eps, ext, p):
    """(gamma(p), delta threshold at p, p_0, p'_0) of the reference tables."""
    if not np.isfinite(alpha) or alpha <= -0.5:
        raise ValueError("alpha must be finite and > -1/2")
    if not eps > 0:
        raise ValueError("eps_choice must be positive")

    def gamma(q):
        if family is Family.GPSWF:
            return _ref_gamma_gpswf(alpha, q, eps_choice=eps, allow_extended_range=ext)
        return _ref_gamma_cpswf(q, eps_choice=eps)

    p0 = 2.0 - 1.0 / (alpha + 1.5) if family is Family.GPSWF else 4.0 / 3.0
    p0_dual = dual_exponent(p0)
    if not p >= 1:
        raise ValueError("p must be >= 1")
    p_dual = dual_exponent(p)
    crit = (family is Family.GPSWF and p_dual != math.inf
            and math.isclose(p_dual, p0_dual, rel_tol=1e-12))
    threshold = max(gamma(p_dual) / 2.0, 0.0)
    return gamma(p), threshold, crit, p0, p0_dual


def _summary(family, alpha, eps, ext, p):
    table = ExponentTable(family, alpha, eps_choice=eps, allow_extended_range=ext)
    thr = delta_threshold(table, p)
    return table.gamma(p), thr.value, thr.critical, table.p0, table.p0_dual


def _outcome(fn, *args):
    # floats by their bits (0.0 and -0.0 differ), errors by type and message
    try:
        return tuple(v if isinstance(v, bool) else float(v).hex() for v in fn(*args))
    except ValueError as exc:
        return ("ValueError", str(exc))


_P_SPECIAL = (1.0, 4.0 / 3.0, 2.0, 4.0, math.inf, 0.9, 0.0, -2.0, -1e300, float("nan"),
              "p0", "p0_dual")


class TestExponentTableMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(family=st.sampled_from([Family.GPSWF, Family.CPSWF]),
           alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.4999, 1.5, 1.6, -0.2, -0.49, -0.5,
                                            -0.7, 3.0, float("nan"), math.inf]),
                           st.floats(-0.6, 4.0)),
           eps=st.one_of(st.sampled_from([0.01, 0.02, 1e-12, 0.0, -1.0, float("nan")]),
                         st.floats(1e-6, 2.0)),
           ext=st.booleans(),
           p=st.one_of(st.sampled_from(_P_SPECIAL), st.floats(1.0, 1e4), st.floats(0.5, 8.0)))
    def test_gamma_threshold_p0_and_errors_bit_identical(self, family, alpha, eps, ext, p):
        if isinstance(p, str):
            # p = p'_0 is gamma's critical line; p = p_0 is delta_threshold's
            p0 = 2.0 - 1.0 / (alpha + 1.5) if family is Family.GPSWF else 4.0 / 3.0
            p = p0 if p == "p0" else dual_exponent(p0)
        ref = _outcome(_ref_summary, family, alpha, eps, ext, p)
        new = _outcome(_summary, family, alpha, eps, ext, p)
        out_of_range = (family is Family.GPSWF and not ext and np.isfinite(alpha)
                        and -0.5 < alpha and not 0.0 <= alpha < 1.5 and eps > 0)
        if out_of_range and not p >= 1:
            # both arguments are invalid: the table now rejects alpha when it
            # is built, before it sees p, so it names alpha
            assert ref == ("ValueError", "p must be >= 1")
            assert new[0] == "ValueError" and new[1].startswith("alpha outside [0, 3/2)")
        else:
            assert new == ref


class TestNanArguments:
    def test_nan_p_and_eps_choice_rejected(self):
        nan = float("nan")
        table = ExponentTable(Family.GPSWF, 0.0)
        for call in (lambda: ExponentTable(Family.GPSWF, 0.0).gamma(nan),
                     lambda: ExponentTable(Family.CPSWF, 0.5).gamma(nan),
                     lambda: ExponentTable(Family.GPSWF, 0.0, eps_choice=nan).gamma(4.0),
                     lambda: ExponentTable(Family.CPSWF, 0.5, eps_choice=nan).gamma(4.0),
                     lambda: delta_threshold(table, nan),
                     lambda: ExponentTable(Family.CPSWF, 0.5, eps_choice=nan)):
            with pytest.raises(ValueError):
                call()
        assert delta_threshold(table, math.inf).value == 0.5  # p = inf stays valid

    @pytest.mark.parametrize("family", [Family.GPSWF, Family.CPSWF])
    @pytest.mark.parametrize("alpha", [float("nan"), math.inf, -math.inf, -0.5, -7.0])
    def test_bad_alpha_rejected(self, family, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ExponentTable(family, alpha)


class TestRieszKernelTable:
    @pytest.mark.parametrize("family,alpha,lo", [("gpswf", 0.0, -1.0), ("cpswf", 0.5, 0.0)])
    def test_scalar_kernel_matches_table(self, family, alpha, lo):
        es = solve(ProlateSpec(family=family, alpha=alpha, c=4.0, N=64))
        cfg = RieszConfig(R=float(es.chi[20]), delta=1.0)
        pts = lo + (1.0 - lo) * (np.arange(12) + 0.5) / 12
        K = riesz_kernel_table(es, cfg, pts)
        assert np.array_equal(K, K.T)
        scalar = np.array([[_pair_table(es, cfg, x, y)[0, 1] for y in pts] for x in pts])
        # the table and the two-point case are GEMMs of different shapes, which
        # BLAS may round differently
        assert np.max(np.abs(scalar - K)) <= 1e-13 * np.max(np.abs(K))
