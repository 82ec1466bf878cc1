import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prolatesum.analysis import (
    _cluster_ratios,
    boundary_probes,
    calibrate_b1,
    calibrate_lemma1,
    convergence_sweep,
    eigenvalue_count,
    JacobiApproxResult,
    jacobi_approx_residual,
    lp_norm,
    norm_growth_fit,
    operator_norm_probe,
)
from prolatesum.cli import _json_text
from prolatesum.cli import main as cli_main
from prolatesum.prolate import EigenSystem, Family, ProlateSpec, solve
from prolatesum.riesz import ExponentTable, RieszConfig, expansion_coeffs, riesz_mean, riesz_weight
from prolatesum.specfun import jacobi_orthonormal_table
from prolatesum.transforms import SampledFunction, sample_mode


def _reject_constant(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


@pytest.fixture(scope="module")
def es():
    return solve(ProlateSpec(family=Family.GPSWF, alpha=0.0, c=1.0, N=128))


@pytest.fixture(scope="module")
def es0():
    return solve(ProlateSpec(family=Family.GPSWF, alpha=0.0, c=0.0, N=256))


@pytest.fixture(scope="module")
def rule(es):
    return es.default_rule(512)


class TestLpNorm:
    def test_constant_total_mass(self, rule):
        f = SampledFunction(rule=rule, values=np.ones(rule.size))
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(f, p) == pytest.approx(2.0 ** (1.0 / p), rel=1e-13)

    def test_mode_is_normalized(self, es, rule):
        f = sample_mode(es, 0, rule=rule)
        assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_quartic_monomial(self, rule):
        f = SampledFunction(rule=rule, values=rule.nodes)
        assert lp_norm(f, 4.0) == pytest.approx((2.0 / 5.0) ** 0.25, rel=1e-13)

    def test_sup_norm(self, rule):
        f = SampledFunction(rule=rule, values=rule.nodes)
        assert lp_norm(f, math.inf) == np.max(np.abs(rule.nodes))

    def test_p_below_one(self, rule):
        f = SampledFunction(rule=rule, values=np.ones(rule.size))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_block_rejected_with_its_shape(self, rule):
        f = SampledFunction(rule=rule, values=np.ones((3, rule.size)))
        with pytest.raises(ValueError, match=rf"block of shape \(3, {rule.size}\)"):
            lp_norm(f, 2.0)


class TestNormGrowth:
    def test_legendre_sup_growth(self, es0):
        slope = norm_growth_fit(es0, math.inf, (20, 100))
        assert abs(slope - 0.5) <= 0.1

    def test_l2_flat(self, es0):
        slope = norm_growth_fit(es0, 2.0, (20, 100))
        assert abs(slope) <= 0.05

    def test_bandlimited_sup_growth_bound(self, es):
        slope = norm_growth_fit(es, math.inf, (20, 60))
        assert slope <= 1.0 + 0.1

    @pytest.mark.parametrize("family,alpha", [("gpswf", 0.5), ("cpswf", 0.7)])
    def test_finite_p_at_n2048_uses_a_rule_of_n_nodes(self, family, alpha):
        # a 512-node rule cannot resolve 1024 retained modes; the default
        # rule has max(512, N) nodes
        es = solve(ProlateSpec(family=family, alpha=alpha, c=4.0, N=2048))
        assert np.isfinite(norm_growth_fit(es, 4.0, (20, 100)))
        assert es.default_rule().size == 2048

    def test_range_validation(self, es):
        with pytest.raises(ValueError):
            norm_growth_fit(es, 2.0, (5, 10))
        with pytest.raises(ValueError):
            norm_growth_fit(es, 2.0, (0, 20))
        with pytest.raises(ValueError):
            norm_growth_fit(es, 2.0, (10, 1000))


class TestEigenvalueCount:
    def test_closed_form_at_c0(self):
        es0small = solve(ProlateSpec(family=Family.GPSWF, alpha=0.0, c=0.0, N=64))
        assert eigenvalue_count(es0small, 1.0, 7.0) == 2  # chi = 2 and 6
        assert eigenvalue_count(es0small, 2.0, 6.0) == 0  # open interval

    @settings(max_examples=60, deadline=None)
    @given(chi=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40, unique=True),
           min_width=st.floats(0.5, 10.0))
    def test_b1_equals_brute_force(self, chi, min_width):
        chi = np.sort(np.array(chi))
        m = chi.size
        brute = max((j - i + 1) / max(min_width, chi[j] - chi[i])
                    for i in range(m) for j in range(i, m))
        assert calibrate_b1(SimpleNamespace(chi=chi), min_width) == brute

    @pytest.mark.parametrize("min_width", [0.0, -1.0])
    def test_b1_rejects_nonpositive_width(self, min_width):
        with pytest.raises(ValueError, match="min_width"):
            calibrate_b1(SimpleNamespace(chi=np.array([1.0, 2.0])), min_width)

    def test_window_counting_bound(self, es):
        rng = np.random.default_rng(23)
        for _ in range(300):
            w = float(rng.uniform(2.0, 40.0))
            m = float(rng.uniform(0.0, es.certified_max - w))
            assert eigenvalue_count(es, m, m + w) <= w

    def test_b1_constant(self, es):
        assert calibrate_b1(es) <= 1.0

    def test_b2_lower_bounds_both_families(self, es):
        n = np.arange(es.n_retained)
        assert np.all(es.chi[1:] >= n[1:] ** 2)
        esc = solve(ProlateSpec(family=Family.CPSWF, alpha=0.5, c=2.0, N=64))
        m = np.arange(esc.n_retained)
        assert np.all(esc.chi[1:] >= 4 * m[1:] ** 2)

    def test_validation(self, es):
        with pytest.raises(ValueError):
            eigenvalue_count(es, -1.0, 5.0)
        with pytest.raises(ValueError):
            eigenvalue_count(es, 5.0, 5.0)
        with pytest.raises(ValueError):
            eigenvalue_count(es, 0.0, es.certified_max * 2)


class TestClusterRatio:
    @staticmethod
    def _ratio(f, es, m, M):
        # ||sum_{chi_n in (m, M)} a_n phi_n||_2 / (M^(gamma(2)/2) (M - m)^(1/2) ||f||_2),
        # the window ratio that calibrate_lemma1 maximises
        g = ExponentTable(Family.GPSWF, 0.0).gamma(2.0)
        return float(_cluster_ratios(expansion_coeffs(f, es), es.chi, m, M, g, lp_norm(f, 2.0)))

    def test_single_mode_p2(self, es, rule):
        j = 5
        f = sample_mode(es, j, rule=rule)
        m, M = es.chi[j] - 1.0, es.chi[j] + 1.0
        r = self._ratio(f, es, m, M)
        assert r == pytest.approx(1.0 / np.sqrt(M - m), abs=1e-8)
        assert r <= 1.0 + 1e-10

    def test_empty_window(self, es, rule):
        f = sample_mode(es, 0, rule=rule)
        assert self._ratio(f, es, es.chi[3] + 0.1, es.chi[3] + 0.2) == 0.0

    def test_p2_never_exceeds_one(self, es, rule):
        # windows of width >= 2 (the counting hypothesis needs M - m > 1)
        rng = np.random.default_rng(3)
        f = SampledFunction(rule=rule, values=rng.standard_normal(rule.size))
        for _ in range(50):
            w = float(rng.uniform(2.0, 50.0))
            m = float(rng.uniform(0.0, es.certified_max - w))
            assert self._ratio(f, es, m, m + w) <= 1.0 + 1e-10

    def test_probe_sweep_no_blowup(self, es):
        table = ExponentTable(Family.GPSWF, 0.0)
        cmax, per_probe = calibrate_lemma1(es, es.default_rule(), 1.5, table, n_probes=50, seed=9)
        assert np.isfinite(cmax) and cmax > 0
        assert cmax <= 10.0 * np.median(per_probe)


class TestConvergenceSweep:
    def test_single_mode_error_closed_form(self, es, rule):
        f = sample_mode(es, 0, rule=rule)
        R_grid = [float(es.chi[10]), float(es.chi[20]), float(es.chi[40])]
        rep = convergence_sweep(f, es, 2.0, 1.0, R_grid)
        for i, R in enumerate(R_grid):
            expected = 1.0 - (1.0 - es.chi[0] / R)
            assert rep.errors[i] == pytest.approx(expected, rel=1e-6)
        assert np.all(np.diff(rep.errors) < 0)

    def test_two_mode_parseval_closed_form(self, es, rule):
        f0 = sample_mode(es, 0, rule=rule)
        f5 = sample_mode(es, 5, rule=rule)
        f = SampledFunction(rule=rule, values=f0.values + f5.values)
        R = float(es.chi[30])
        rep = convergence_sweep(f, es, 2.0, 2.0, [R / 2, R])
        cfg = RieszConfig(R=R, delta=2.0)
        w = riesz_weight(es.chi[[0, 5]], cfg)
        closed = np.sqrt(np.sum((1 - w) ** 2))
        assert abs(rep.errors[-1] - closed) <= 1e-12

    def test_smooth_function_above_threshold(self, es, rule):
        f = SampledFunction(rule=rule, values=np.exp(rule.nodes))
        R_grid = [float(es.chi[10]), float(es.chi[20]), float(es.chi[40])]
        rep = convergence_sweep(f, es, 2.0, 1.0, R_grid)
        assert np.all(np.diff(rep.errors) < 0)
        assert np.all(np.diff(rep.error_integrals) < 0)
        assert rep.error_integrals[-1] <= 1e-3
        assert rep.parseval_gap <= 1e-12
        assert rep.slope == pytest.approx(-1.0, abs=0.3)
        assert rep.threshold == 0.0
        assert rep.passed is True
        assert rep.weight_counts.tolist() == [10, 20, 40]
        assert rep.b1_constant <= 1.0

    def test_weight_counts_count_chi_below_each_radius(self, es, rule):
        # radii on eigenvalues (chi_n < R is strict) and between them
        f = SampledFunction(rule=rule, values=np.exp(rule.nodes))
        mid = (es.chi[[5, 25, 45]] + es.chi[[6, 26, 46]]) / 2
        R_grid = np.sort(np.concatenate([es.chi[[3, 17, 40]], mid]))
        rep = convergence_sweep(f, es, 2.0, 1.0, R_grid)
        assert rep.weight_counts.tolist() == [int(np.sum(es.chi < R)) for R in R_grid]
        assert rep.weight_counts.tolist() == [3, 6, 17, 26, 40, 46]

    def test_report_serialization(self, es, rule, tmp_path):
        # the report as the CLI writes it: JSON through its strict encoder,
        # CSV from the sweep command on the same system, rule and function
        R_grid = [float(es.chi[10]), float(es.chi[20])]
        f = SampledFunction(rule=rule, values=np.exp(rule.nodes))
        rep = convergence_sweep(f, es, 2.0, 1.0, R_grid)
        data = json.loads(_json_text(rep.to_dict()), parse_constant=_reject_constant)
        assert data["family"] == "gpswf"
        assert len(data["errors"]) == 2
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--family", "gpswf", "--alpha", "0.0", "--c", "1.0", "--n", "128",
                         "--quad-size", "512", "--p", "2", "--fn", "exp", "--r-count", "2",
                         "--r-start", repr(R_grid[0]), "--r-stop", repr(R_grid[1]),
                         "--format", "csv", "--output", str(out)]) == 0
        csv = out.read_text().strip().split("\n")[1:]
        assert csv[0] == "R,error,weight_count,slope_so_far"
        assert len(csv) == 3
        assert [float(row.split(",")[1]) for row in csv[1:]] == rep.errors.tolist()

    def test_grid_validation(self, es, rule):
        f = sample_mode(es, 0, rule=rule)
        with pytest.raises(ValueError):
            convergence_sweep(f, es, 2.0, 1.0, [5.0])
        with pytest.raises(ValueError):
            convergence_sweep(f, es, 2.0, 1.0, [10.0, 5.0])


class TestOperatorNormProbe:
    def test_p2_bounded_by_one(self, es, rule):
        probes = boundary_probes(es, rule, seed=4)
        R_grid = [float(es.chi[8]), float(es.chi[30]), float(es.chi[60])]
        sups = operator_norm_probe(es, 2.0, 0.5, R_grid, probes)
        assert np.all(sups <= 1.0 + 1e-10)

    def test_above_threshold_uniform(self, es, rule):
        probes = boundary_probes(es, rule, seed=4)
        R_grid = np.geomspace(float(es.chi[8]), float(es.chi[60]), 6)
        sups = operator_norm_probe(es, 4.0 / 3.0, 0.6, R_grid, probes)
        assert np.max(sups) / np.min(sups) < 2.0

    def test_below_threshold_growth_witness(self, es, rule):
        # report-only diagnostic: growth of the probe sup when delta is far
        # below the p -> 1 threshold 1/4
        probes = boundary_probes(es, rule, seed=4)
        R_grid = np.geomspace(float(es.chi[8]), float(es.chi[60]), 6)
        sups = operator_norm_probe(es, 1.05, 0.05, R_grid, probes)
        growth = sups[-1] / sups[0]
        assert np.isfinite(growth) and growth > 0
        print(f"below-threshold probe growth ratio: {growth:.3f}")

    def test_probes_are_one_block(self, es, rule):
        probes = boundary_probes(es, rule, seed=4)
        assert probes.rule is rule
        assert probes.values.shape == (12, rule.size)
        norms = np.sqrt(np.sum(rule.weights * probes.values**2, axis=-1))
        assert np.allclose(norms, 1.0, rtol=1e-13)

    def test_empty_probes_rejected(self, es, rule):
        empty = SampledFunction(rule=rule, values=np.empty((0, rule.size)))
        with pytest.raises(ValueError):
            operator_norm_probe(es, 2.0, 1.0, [10.0], empty)

    def test_zero_probe_rejected(self, es, rule):
        values = np.ones((2, rule.size))
        values[1] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            operator_norm_probe(es, 2.0, 1.0, [10.0], SampledFunction(rule=rule, values=values))


    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0, math.inf])
    def test_equals_per_radius_probe_loop(self, es, rule, p):
        probes = boundary_probes(es, rule, seed=4)
        R_grid = np.geomspace(float(es.chi[8]), float(es.chi[60]), 5)
        sups = operator_norm_probe(es, p, 0.7, R_grid, probes)
        rows = [SampledFunction(rule=rule, values=v) for v in probes.values]
        loop = np.array([max(lp_norm(riesz_mean(f, es, RieszConfig(R=R, delta=0.7)), p)
                             / lp_norm(f, p) for f in rows) for R in R_grid])
        assert np.max(np.abs(sups - loop) / loop) <= 1e-12


class TestModeEvaluationCount:
    def test_sweep_and_probe_evaluate_modes_a_fixed_number_of_times(self, es, rule, monkeypatch):
        f = SampledFunction(rule=rule, values=np.exp(rule.nodes))
        probes = boundary_probes(es, rule, seed=0)
        calls = []
        original = EigenSystem.mode_matrix

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(EigenSystem, "mode_matrix", counting)
        per_grid = []
        for count in (2, 16):
            R_grid = np.geomspace(float(es.chi[4]), es.certified_max, count)
            calls.clear()
            convergence_sweep(f, es, 2.0, 1.0, R_grid)  # p = 2 also runs Parseval and lemma 1
            operator_norm_probe(es, 2.0, 1.0, R_grid, probes)
            per_grid.append(len(calls))
        assert per_grid[0] == per_grid[1] <= 6


class TestJacobiApproxResidual:
    @pytest.mark.parametrize("alpha,c,n", [(0.0, 1.0, 0), (0.0, 1.0, 37), (0.5, 4.0, 12),
                                           (1.2, 8.0, 63)])
    def test_one_table_equals_two_tables(self, alpha, c, n):
        # reference: the mode by synthesis over the full basis table, and
        # J~_n from a second recurrence of n + 1 rows
        es = solve(ProlateSpec(family=Family.GPSWF, alpha=alpha, c=c, N=128))
        theta = (np.arange(4096) + 0.5) * np.pi / 4096
        x = np.cos(theta)
        amp = float(es.coeffs[n, n])
        jn = jacobi_orthonormal_table(n + 1, alpha, alpha, x)[n]
        diff = es.coeffs[:, n] @ es.basis_matrix(x) - amp * jn
        expected = JacobiApproxResult(residual=float(np.max(np.abs(diff))), amplitude=amp)
        res = jacobi_approx_residual(es, n)
        assert res == expected
        assert np.float64(res.residual).tobytes() == np.float64(expected.residual).tobytes()

    def test_c0_exact(self, es0):
        res = jacobi_approx_residual(es0, 7)
        assert res.residual <= 1e-12
        assert res.amplitude == pytest.approx(1.0, abs=1e-14)

    def test_residual_decay_slope(self, es):
        ns = np.arange(10, 61)
        resid = np.array([jacobi_approx_residual(es, int(n)).residual for n in ns])
        slope = np.polyfit(np.log(ns), np.log(resid), 1)[0]
        assert slope <= -0.7

    def test_amplitude_to_one(self, es):
        for n in range(30, 60, 7):
            assert abs(jacobi_approx_residual(es, n).amplitude - 1.0) <= 0.1

    def test_family_and_range_guards(self, es):
        esc = solve(ProlateSpec(family=Family.CPSWF, alpha=0.5, c=1.0, N=32))
        with pytest.raises(ValueError):
            jacobi_approx_residual(esc, 0)
        with pytest.raises(ValueError, match="not retained"):
            jacobi_approx_residual(es, es.n_retained)
        for alpha in (-0.25, 1.5, 1.6, 1.8):
            with pytest.warns(UserWarning):
                es_wide = solve(ProlateSpec(family=Family.GPSWF, alpha=alpha, c=1.0, N=32))
            with pytest.raises(ValueError, match="diagnostic valid for 0 <= alpha < 3/2"):
                jacobi_approx_residual(es_wide, 0)


class TestNanExponent:
    def test_lp_norm_rejects_nan_p(self, rule):
        f = SampledFunction(rule=rule, values=np.ones(rule.size))
        with pytest.raises(ValueError):
            lp_norm(f, float("nan"))
        assert lp_norm(f, math.inf) == 1.0
