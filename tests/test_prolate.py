import json

import numpy as np
import pytest

from prolatesum.prolate import (
    Family,
    ProlateSpec,
    build_galerkin,
    check_bounds,
    solve,
)
from prolatesum.specfun import gauss_jacobi, jacobi_orthonormal_table


def gpswf(alpha=0.0, c=1.0, N=128, keep=0.5):
    return solve(ProlateSpec(family=Family.GPSWF, alpha=alpha, c=c, N=N, keep_fraction=keep))


def cpswf(alpha=0.5, c=1.0, N=128, keep=0.5):
    return solve(ProlateSpec(family=Family.CPSWF, alpha=alpha, c=c, N=N, keep_fraction=keep))


class TestSpecValidation:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ProlateSpec(family="gpswf", alpha=-0.5, c=1.0, N=16)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            ProlateSpec(family="gpswf", alpha=0.0, c=-1.0, N=16)

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=3)

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError):
            ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=16, keep_fraction=0.0)
        with pytest.raises(ValueError):
            ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=16, keep_fraction=1.5)

    def test_theorem_range_flag(self):
        assert ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=16).theorem_range_ok
        assert not ProlateSpec(family="gpswf", alpha=1.7, c=1.0, N=16).theorem_range_ok
        assert ProlateSpec(family="cpswf", alpha=0.5, c=1.0, N=16).theorem_range_ok
        assert not ProlateSpec(family="cpswf", alpha=0.0, c=1.0, N=16).theorem_range_ok

    def test_out_of_range_alpha_warns_but_solves(self):
        with pytest.warns(UserWarning):
            es = cpswf(alpha=0.0, c=1.0, N=32)
        assert es.n_retained == 16


class TestGalerkinMatrix:
    def test_gpswf_c0_is_diagonal(self):
        blocks = build_galerkin(ProlateSpec(family="gpswf", alpha=0.0, c=0.0, N=16))
        k = np.arange(16)
        diag = np.empty(16)
        diag[0::2], diag[1::2] = blocks.even[0], blocks.odd[0]
        assert diag == pytest.approx(k * (k + 1), abs=1e-14)
        assert np.max(np.abs(blocks.even[1])) == 0
        assert np.max(np.abs(blocks.odd[1])) == 0

    def test_gpswf_entry_00(self):
        blocks = build_galerkin(ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=16))
        assert blocks.even[0][0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_gpswf_entry_02_against_quadrature_oracle(self):
        # recurrence-coefficient formula vs direct 64-point integration
        alpha, c = 0.0, 1.0
        blocks = build_galerkin(ProlateSpec(family="gpswf", alpha=alpha, c=c, N=16))
        rule = gauss_jacobi(64, alpha, alpha)
        j0, _, j2 = jacobi_orthonormal_table(3, alpha, alpha, rule.nodes)
        oracle = np.sum(rule.weights * rule.nodes**2 * j0 * j2)
        assert blocks.even[1][0] == pytest.approx(c * c * oracle, abs=1e-12)

    def test_gpswf_diagonal_entries_against_quadrature_oracle(self):
        alpha, c = 0.6, 2.0
        blocks = build_galerkin(ProlateSpec(family="gpswf", alpha=alpha, c=c, N=12))
        rule = gauss_jacobi(64, alpha, alpha)
        for k in (0, 1, 2, 5):
            jk = jacobi_orthonormal_table(k + 1, alpha, alpha, rule.nodes)[k]
            oracle = k * (k + 2 * alpha + 1) + c * c * np.sum(rule.weights * rule.nodes**2 * jk * jk)
            got = blocks.even[0][k // 2] if k % 2 == 0 else blocks.odd[0][k // 2]
            assert got == pytest.approx(oracle, rel=1e-13), k

    def test_cpswf_c0_is_diagonal(self):
        blocks = build_galerkin(ProlateSpec(family="cpswf", alpha=1.0, c=0.0, N=12))
        k = np.arange(12)
        assert blocks.even[0] == pytest.approx((2 * k + 1.5) * (2 * k + 2.5), abs=1e-12)
        assert np.max(np.abs(blocks.even[1])) == 0
        assert blocks.odd[0].size == 0

    def test_cpswf_couplings_against_quadrature_oracle(self):
        # <x^2 T~_k, T~_j> on (0,1): integrate in x with the (alpha, 0) Jacobi
        # rule in u = 1-2x^2 and the substitution weights W/(4x(1-u)^alpha),
        # which is exact for integrands of the form x^(2a+1) * poly(x^2)
        alpha, c, N = 1.0, 3.0, 10
        blocks = build_galerkin(ProlateSpec(family="cpswf", alpha=alpha, c=c, N=N))
        rule_u = gauss_jacobi(64, alpha, 0.0)
        x = np.sqrt((1 - rule_u.nodes) / 2)
        w = rule_u.weights / (4 * x * (1 - rule_u.nodes) ** alpha)
        assert np.sum(w * x ** (2 * alpha + 1)) == pytest.approx(1 / (2 * alpha + 2), rel=1e-13)

        def T(k, xx):
            u = 1 - 2 * xx * xx
            return (2 ** ((alpha + 2) / 2) * xx ** (alpha + 0.5)
                    * jacobi_orthonormal_table(k + 1, alpha, 0.0, u)[k])

        for k in (0, 1, 4):
            d_oracle = (2 * k + alpha + 0.5) * (2 * k + alpha + 1.5) + c * c * np.sum(
                w * x**2 * T(k, x) ** 2)
            assert blocks.even[0][k] == pytest.approx(d_oracle, rel=1e-13)
            o_oracle = c * c * np.sum(w * x**2 * T(k, x) * T(k + 1, x))
            assert blocks.even[1][k] == pytest.approx(o_oracle, abs=1e-12)


class TestSolve:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_gpswf_c0_collapse(self, alpha):
        es = gpswf(alpha=alpha, c=0.0, N=64)
        n = np.arange(es.n_retained)
        assert np.max(np.abs(es.chi - n * (n + 2 * alpha + 1))) <= 1e-10

    def test_cpswf_c0_first_eigenvalue(self):
        es = cpswf(alpha=0.5, c=0.0, N=64)
        assert es.chi[0] == pytest.approx(2.0, abs=1e-12)

    def test_chi_strictly_increasing(self):
        for es in (gpswf(c=5.0), cpswf(c=5.0)):
            assert np.all(np.diff(es.chi) > 0)

    def test_retention_floor(self):
        es = gpswf(N=10, keep=0.33)
        assert es.n_retained == 3

    def test_truncation_refinement(self):
        es64 = gpswf(alpha=0.0, c=1.0, N=64)
        es128 = gpswf(alpha=0.0, c=1.0, N=128)
        assert np.max(np.abs(es64.chi - es128.chi[:32])) <= 1e-10

    def test_coefficient_columns_orthonormal(self):
        es = gpswf(c=5.0)
        gram = es.coeffs.T @ es.coeffs
        assert np.max(np.abs(gram - np.eye(es.n_retained))) <= 1e-10

    def test_sign_convention(self):
        for es in (gpswf(c=3.0), cpswf(c=3.0)):
            lead = np.argmax(np.abs(es.coeffs), axis=0)
            assert np.all(es.coeffs[lead, np.arange(es.n_retained)] > 0)

    def test_parity_tags_and_support(self):
        es = gpswf(c=2.0, N=64)
        assert np.all(es.parity == np.arange(32) % 2)
        for n in range(32):
            other = es.coeffs[1 - (n % 2) :: 2, n]
            assert np.max(np.abs(other)) == 0.0
        assert cpswf().parity is None

    def test_c_monotone_perturbation(self):
        for c in (0.5, 2.0):
            es = gpswf(c=c, N=64)
            base = np.arange(es.n_retained) * (np.arange(es.n_retained) + 1)
            shift = es.chi - base
            assert np.all(shift >= 0)
            assert np.all(shift <= c * c + 1e-10)


class TestEval:
    def test_c0_matches_jacobi(self):
        es = gpswf(alpha=0.3, c=0.0, N=32)
        for x in (-0.7, 0.2, 0.9):
            assert es.eval(3, x) == pytest.approx(
                jacobi_orthonormal_table(4, 0.3, 0.3, x)[3, 0], abs=1e-12)

    def test_parity_symmetry(self):
        es = gpswf(c=2.0, N=64)
        x = np.linspace(0.05, 0.95, 7)
        for n in (0, 1, 4, 7):
            left = es.eval(n, -x)
            right = es.eval(n, x)
            assert left == pytest.approx((-1) ** n * right, abs=1e-11)

    def test_odd_modes_vanish_at_origin(self):
        es = gpswf(c=1.5, N=64)
        for n in (1, 3, 5):
            assert es.eval(n, 0.0) == 0.0  # odd-parity column, exact zero

    def test_refinement_stability_of_values(self):
        a = gpswf(alpha=0.0, c=1.0, N=64).eval(0, 0.5)
        b = gpswf(alpha=0.0, c=1.0, N=128).eval(0, 0.5)
        assert abs(a - b) <= 1e-10

    def test_domain_rejection(self):
        es = gpswf(N=16)
        with pytest.raises(ValueError):
            es.eval(0, 1.0)
        with pytest.raises(ValueError):
            es.eval(0, -1.2)
        esc = cpswf(N=16)
        with pytest.raises(ValueError):
            esc.eval(0, 0.0)
        with pytest.raises(ValueError):
            esc.eval(0, 1.0)

    def test_unretained_mode_rejected(self):
        es = gpswf(N=16)
        with pytest.raises(ValueError):
            es.eval(8, 0.5)

    def test_zero_counting(self):
        # eigenfunction n has exactly n zeros for small bandwidth
        for c in (0.5, 2.0):
            es = gpswf(c=c, N=64)
            x = np.linspace(-0.9995, 0.9995, 4096)
            vals = es.mode_matrix(x)
            for n in range(21):
                signs = np.sign(vals[n])
                changes = int(np.sum(signs[:-1] * signs[1:] < 0))
                assert changes == n, (c, n, changes)


class TestBounds:
    @pytest.mark.parametrize("c", [1.0, 5.0, 10.0])
    def test_gpswf_sandwich(self, c):
        es = gpswf(alpha=0.0, c=c)
        assert check_bounds(es).all()

    @pytest.mark.parametrize("c", [1.0, 5.0, 10.0])
    def test_cpswf_sandwich(self, c):
        es = cpswf(alpha=0.5, c=c)
        assert check_bounds(es).all()

    def test_alpha1_c5_large(self):
        es = gpswf(alpha=1.0, c=5.0, N=128)
        assert check_bounds(es).all()

    def test_equality_at_c0(self):
        es = gpswf(alpha=0.5, c=0.0, N=32)
        assert np.max(np.abs(es.chi - es.lower_bounds())) <= 1e-10

    def test_bound_0_interval(self):
        es = gpswf(alpha=0.0, c=2.0, N=64)
        assert 0.0 <= es.chi[0] <= 4.0 + 1e-8


class TestGram:
    @pytest.mark.parametrize("family,alpha", [("gpswf", 0.0), ("gpswf", 1.0),
                                              ("cpswf", 0.5), ("cpswf", 1.0)])
    def test_quadrature_gram_identity(self, family, alpha):
        es = solve(ProlateSpec(family=family, alpha=alpha, c=5.0, N=128))
        rule = es.default_rule(512)
        modes = es.mode_matrix(rule.nodes)
        gram = (modes * rule.weights) @ modes.T
        assert np.max(np.abs(gram - np.eye(es.n_retained))) <= 1e-8


class TestSerialization:
    def test_json_schema(self):
        es = gpswf(N=16)
        data = json.loads(es.to_json())
        assert set(data) == {"family", "alpha", "c", "N", "chi", "coeffs"}
        assert data["family"] == "gpswf"
        assert data["N"] == 16
        assert len(data["chi"]) == 8
        assert len(data["coeffs"]) == 16 and len(data["coeffs"][0]) == 8
        assert data["chi"] == es.chi.tolist()

    def test_csv_rows(self):
        es = cpswf(N=16, c=2.0)
        lines = es.to_csv().strip().split("\n")
        assert lines[0] == "n,chi,lower_bound,upper_bound"
        assert len(lines) == 1 + es.n_retained
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(es.chi[0])
        assert float(first[3]) - float(first[2]) == pytest.approx(4.0)
