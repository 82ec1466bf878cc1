import json
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prolatesum import prolate
from prolatesum.cli import _json_text
from prolatesum.cli import main as cli_main
from prolatesum.prolate import (
    WINDOW_PAD,
    EigenSystem,
    Family,
    ProlateSpec,
    _free_spectrum,
    build_galerkin,
    check_bounds,
    family_grid,
    solve,
)
from prolatesum.specfun import NumericsError, gauss_jacobi, jacobi_orthonormal_table, symtridiag_eigen
from prolatesum.transforms import sample_mode


def gpswf(alpha=0.0, c=1.0, N=128, keep=0.5):
    return solve(ProlateSpec(family=Family.GPSWF, alpha=alpha, c=c, N=N, keep_fraction=keep))


def cpswf(alpha=0.5, c=1.0, N=128, keep=0.5):
    return solve(ProlateSpec(family=Family.CPSWF, alpha=alpha, c=c, N=N, keep_fraction=keep))


class TestSpecValidation:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ProlateSpec(family="gpswf", alpha=-0.5, c=1.0, N=16)

    @pytest.mark.parametrize("c", [-1.0, 1.35e154, 1e200, np.float64(1e300), np.inf, np.nan])
    def test_rejects_bad_c(self, c):
        # c * c enters every Galerkin block, so its square must be finite too
        with pytest.raises(ValueError, match="bandwidth c"):
            ProlateSpec(family="gpswf", alpha=0.0, c=c, N=16)
        assert ProlateSpec(family="gpswf", alpha=0.0, c=1.34e154, N=16).c == 1.34e154

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=3)

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError):
            ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=16, keep_fraction=0.0)
        with pytest.raises(ValueError):
            ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=16, keep_fraction=1.5)

    def test_rejects_keeping_no_mode(self):
        with pytest.raises(ValueError, match="N \\* keep_fraction"):
            ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=4, keep_fraction=0.2)

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
        even, odd = build_galerkin(ProlateSpec(family="gpswf", alpha=0.0, c=0.0, N=16))
        assert (even.rows, odd.rows) == (slice(0, None, 2), slice(1, None, 2))
        k = np.arange(16)
        diag = np.empty(16)
        diag[even.rows], diag[odd.rows] = even.diag, odd.diag
        assert diag == pytest.approx(k * (k + 1), abs=1e-14)
        assert np.max(np.abs(even.off)) == 0
        assert np.max(np.abs(odd.off)) == 0

    @pytest.mark.parametrize("family,alpha", [("gpswf", 0.7), ("cpswf", 1.5)])
    def test_free_spectrum_is_the_c0_diagonal_and_the_lower_bounds(self, family, alpha):
        k = np.arange(24, dtype=float)
        if family == "gpswf":
            expected = k * (k + 2 * alpha + 1)
        else:
            expected = (2 * k + alpha + 0.5) * (2 * k + alpha + 1.5)
        diag = np.empty(24)
        for b in build_galerkin(ProlateSpec(family=family, alpha=alpha, c=0.0, N=24)):
            diag[b.rows] = b.diag
        assert np.array_equal(diag, expected)
        es = solve(ProlateSpec(family=family, alpha=alpha, c=3.0, N=24))
        assert np.array_equal(es.lower_bounds(), expected[:12])
        assert np.array_equal(es.upper_bounds(), expected[:12] + 9.0)

    def test_gpswf_entry_00(self):
        even, _ = build_galerkin(ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=16))
        assert even.diag[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_gpswf_entry_02_against_quadrature_oracle(self):
        # recurrence-coefficient formula vs direct 64-point integration
        alpha, c = 0.0, 1.0
        even, _ = build_galerkin(ProlateSpec(family="gpswf", alpha=alpha, c=c, N=16))
        rule = gauss_jacobi(64, alpha, alpha)
        j0, _, j2 = jacobi_orthonormal_table(3, alpha, alpha, rule.nodes)
        oracle = np.sum(rule.weights * rule.nodes**2 * j0 * j2)
        assert even.off[0] == pytest.approx(c * c * oracle, abs=1e-12)

    def test_gpswf_diagonal_entries_against_quadrature_oracle(self):
        alpha, c = 0.6, 2.0
        even, odd = build_galerkin(ProlateSpec(family="gpswf", alpha=alpha, c=c, N=12))
        rule = gauss_jacobi(64, alpha, alpha)
        for k in (0, 1, 2, 5):
            jk = jacobi_orthonormal_table(k + 1, alpha, alpha, rule.nodes)[k]
            oracle = k * (k + 2 * alpha + 1) + c * c * np.sum(rule.weights * rule.nodes**2 * jk * jk)
            got = even.diag[k // 2] if k % 2 == 0 else odd.diag[k // 2]
            assert got == pytest.approx(oracle, rel=1e-13), k

    def test_cpswf_c0_is_diagonal(self):
        (block,) = build_galerkin(ProlateSpec(family="cpswf", alpha=1.0, c=0.0, N=12))
        assert block.rows == slice(None)
        k = np.arange(12)
        assert block.diag == pytest.approx((2 * k + 1.5) * (2 * k + 2.5), abs=1e-12)
        assert np.max(np.abs(block.off)) == 0

    def test_cpswf_couplings_against_quadrature_oracle(self):
        # <x^2 T~_k, T~_j> on (0,1): integrate in x with the (alpha, 0) Jacobi
        # rule in u = 1-2x^2 and the substitution weights W/(4x(1-u)^alpha),
        # which is exact for integrands of the form x^(2a+1) * poly(x^2)
        alpha, c, N = 1.0, 3.0, 10
        (block,) = build_galerkin(ProlateSpec(family="cpswf", alpha=alpha, c=c, N=N))
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
            assert block.diag[k] == pytest.approx(d_oracle, rel=1e-13)
            o_oracle = c * c * np.sum(w * x**2 * T(k, x) * T(k + 1, x))
            assert block.off[k] == pytest.approx(o_oracle, abs=1e-12)


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

    def test_repeated_eigenvalue_fails_the_merge(self, monkeypatch):
        solve_leading = prolate._solve_leading

        def repeated(b, k):
            w, v, r = solve_leading(b, k)
            w = w.copy()
            w[1] = w[0]
            return w, v, r

        monkeypatch.setattr(prolate, "_solve_leading", repeated)
        with pytest.raises(NumericsError, match="merged spectrum is not strictly increasing"):
            gpswf(c=2.0, N=32)
        for command in ("basis", "verify"):
            assert cli_main([command, "--n", "32", "--quad-size", "64"]) == 3

    def test_c_monotone_perturbation(self):
        for c in (0.5, 2.0):
            es = gpswf(c=c, N=64)
            base = np.arange(es.n_retained) * (np.arange(es.n_retained) + 1)
            shift = es.chi - base
            assert np.all(shift >= 0)
            assert np.all(shift <= c * c + 1e-10)


def full_width_solve(spec):
    """Reference solve: every block column scattered into one (N, N) array,
    permuted by the merged spectrum, then cut to the retained m."""
    N = spec.N
    chi_parts, col_parts, parity_parts = [], [], []
    for offset, (rows, diag, off, _) in enumerate(build_galerkin(spec)):
        w, v = symtridiag_eigen(diag, off)
        cols = np.zeros((N, w.size))
        cols[rows] = v
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
    cols[:, flip] = 0.0 - cols[:, flip]
    return chi, cols, parity


# the (family, alpha) pairs of the benchmark's workloads
BENCHMARK_FAMILIES = ((Family.GPSWF, 0.0), (Family.GPSWF, 0.5), (Family.GPSWF, 1.0),
                      (Family.CPSWF, 0.5), (Family.CPSWF, 1.5))


def retainable_rows(spec):
    """Per block, the number k of leading rows r with free(r) <= free(m-1) + c^2:
    no block eigenvalue past the k-th can be retained."""
    free = _free_spectrum(spec, spec.N)
    bound = free[spec.n_retained - 1] + spec.c**2
    return [np.count_nonzero(free[b.rows] <= bound) for b in build_galerkin(spec)]


def recorded_solve(spec):
    """solve(spec) and, per block, the row counts of its eigensolves in order."""
    calls = []

    def recording(diag, off):
        calls.append((diag[0], diag.size))
        return symtridiag_eigen(diag, off)

    with mock.patch.object(prolate, "symtridiag_eigen", recording):
        es = solve(spec)
    # a block's windows all start at its first diagonal entry
    return es, [[size for first, size in calls if first == b.diag[0]] for b in build_galerkin(spec)]


class TestRetainedColumnsOnly:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from([Family.GPSWF, Family.CPSWF]),
           alpha=st.floats(-0.45, 3.0), c=st.floats(0.0, 60.0),
           N=st.integers(4, 320), keep=st.sampled_from([0.25, 0.5, 1.0]))
    def test_matches_full_width_solve(self, family, alpha, c, N, keep):
        spec = ProlateSpec(family=family, alpha=alpha, c=c, N=N, keep_fraction=keep)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # alpha outside the theorem range
            try:
                chi, cols, parity = full_width_solve(spec)
            except NumericsError:
                with pytest.raises(NumericsError):
                    solve(spec)
                return
            try:
                es, sizes = recorded_solve(spec)
            except NumericsError as err:
                # c too large for N: the truncation certificate rejects it
                assert "Galerkin truncation certifies only" in str(err)
                return
        blocks = build_galerkin(spec)
        assert es.coeffs.shape == cols.shape
        owner = es.parity if family is Family.GPSWF else np.zeros(es.n_retained, dtype=int)
        if family is Family.GPSWF:
            assert es.parity.tobytes() == parity.tobytes()
        else:
            assert es.parity is None
        if [s[-1] for s in sizes] == [b.diag.size for b in blocks]:
            # every block solved whole: tobytes also compares the signs of zero entries
            assert es.chi.tobytes() == chi.tobytes()
            assert es.coeffs.tobytes() == np.ascontiguousarray(cols).tobytes()
            return
        assert np.all(np.abs(es.chi - chi) <= 1e-13 * np.maximum(1.0, np.abs(chi)))
        assert np.max(np.abs(es.coeffs - cols)) <= 1e-12
        for i, (b, s) in enumerate(zip(blocks, sizes)):
            assert not np.any(es.coeffs[b.rows][s[-1]:, owner == i])

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from([Family.GPSWF, Family.CPSWF]),
           alpha=st.floats(-0.45, 3.0), c=st.floats(0.0, 60.0),
           N=st.integers(4, 320), keep=st.sampled_from([0.25, 0.5, 1.0]))
    def test_each_block_keeps_its_window_prefix(self, family, alpha, c, N, keep):
        # a block's columns in coeffs are the first pairs of its last window
        # solve, each flipped so that its largest-magnitude entry is positive
        spec = ProlateSpec(family=family, alpha=alpha, c=c, N=N, keep_fraction=keep)
        windows, solve_leading = [], prolate._solve_leading

        def recording(b, k):
            w, v, r = solve_leading(b, k)
            windows.append(v.copy())  # solve flips its columns in place
            return w, v, r

        with warnings.catch_warnings(), mock.patch.object(prolate, "_solve_leading", recording):
            warnings.simplefilter("ignore")  # alpha outside the theorem range
            try:
                es = solve(spec)
            except NumericsError:
                return
        owner = es.parity if family is Family.GPSWF else np.zeros(es.n_retained, dtype=int)
        for i, (b, v) in enumerate(zip(build_galerkin(spec), windows)):
            kept = es.coeffs[b.rows][:, owner == i]
            prefix = v[:, : kept.shape[1]]
            lead = prefix[np.argmax(np.abs(prefix), axis=0), np.arange(prefix.shape[1])]
            expected = np.where(lead < 0, 0.0 - prefix, prefix)
            assert kept[: v.shape[0]].tobytes() == np.ascontiguousarray(expected).tobytes()
            assert not np.any(kept[v.shape[0]:])

    # the benchmark's solves: its large ones (gpswf at N = 2048 and cpswf at
    # N = 1024), and verify-n128's at N = 128 and its 2N refinement at N = 256
    @pytest.mark.parametrize("family,alpha,N,keep,c", [
        *[pytest.param(fam, a, N, 0.5, c, id=f"{fam.value}-{a}-{N}-{c}")
          for fam, a in BENCHMARK_FAMILIES for N in [2048 if fam is Family.GPSWF else 1024]
          for c in (1.0, 4.0, 16.0)],
        *[(fam, a, N, keep, c) for fam, a in BENCHMARK_FAMILIES
          for N, keep in ((128, 0.5), (256, 0.25)) for c in (1.0, 4.0, 8.0)]])
    def test_each_block_is_solved_once_on_its_retainable_rows_and_the_pad(self, family, alpha, N, keep, c):
        spec = ProlateSpec(family=family, alpha=alpha, c=c, N=N, keep_fraction=keep)
        _, sizes = recorded_solve(spec)
        assert [len(s) for s in sizes] == [1] * len(sizes)
        for (size,), k in zip(sizes, retainable_rows(spec)):
            assert size <= k + WINDOW_PAD

    def test_window_that_fails_the_certificate_doubles(self):
        # at c = 200 the retained modes' residuals on the first windows (194
        # rows: c^2 makes 162 rows retainable, not 128) exceed the
        # certificate, and the doubled windows of 388 of the 512 rows pass it
        spec = ProlateSpec(family=Family.GPSWF, alpha=0.0, c=200.0, N=1024, keep_fraction=0.25)
        es, sizes = recorded_solve(spec)
        first = [k + WINDOW_PAD for k in retainable_rows(spec)]
        assert sizes == [[w, 2 * w] for w in first]
        assert all(2 * w < b.diag.size for w, b in zip(first, build_galerkin(spec)))
        chi, cols, _ = full_width_solve(spec)
        assert np.all(np.abs(es.chi - chi) <= 1e-13 * np.maximum(1.0, chi))
        assert np.max(np.abs(es.coeffs - cols)) <= 1e-12

    @pytest.mark.parametrize("family,N", [(Family.GPSWF, 512), (Family.CPSWF, 256)])
    def test_coeffs_own_at_most_N_times_m_entries(self, family, N):
        es = solve(ProlateSpec(family=family, alpha=0.5, c=4.0, N=N))
        base = es.coeffs if es.coeffs.base is None else es.coeffs.base
        assert base.size <= N * es.n_retained

    def test_gpswf_peak_memory_is_the_blocks_and_coeffs(self):
        # at its peak solve holds coeffs, both blocks' window eigenvector
        # matrices (288 of 512 rows each here, 0.16 coeffs each) and |v| of
        # one block's kept columns (0.14 coeffs): 1.52 coeffs measured.  The
        # bound leaves 0.08 coeffs of margin; whole-block matrices (0.5 coeffs
        # each) exceed it.
        tracemalloc.start()
        try:
            es = gpswf(c=20.0, N=1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * es.coeffs.nbytes


class TestTruncationCertificate:
    """solve returns chi only where the Kato-Temple bound of each retained
    pair's residual in the untruncated operator is within CHI_TOL."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from([Family.GPSWF, Family.CPSWF]), alpha=st.floats(-0.45, 3.0),
           c_over_N=st.floats(0.0, 3.0) | st.floats(3.0, 1000.0), N=st.integers(4, 200),
           keep=st.sampled_from([0.25, 0.5, 1.0]))
    def test_certified_chi_match_a_4N_solve(self, family, alpha, c_over_N, N, keep):
        spec = ProlateSpec(family=family, alpha=alpha, c=c_over_N * N, N=N, keep_fraction=keep)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # alpha outside the theorem range
            try:
                es = solve(spec)
            except NumericsError as err:
                assert "Galerkin truncation certifies only" in str(err)
                return
            chi4 = solve(replace(spec, N=4 * N, keep_fraction=keep / 4)).chi
        scale = np.maximum(1.0, es.chi)
        err = np.abs(es.chi - chi4)
        assert np.all(err <= 1e-10 * scale)
        # the bound holds up to the rounding of two different eigensolves (a few ulp)
        assert np.all(err <= es.chi_error + 1e-14 * scale)

    @pytest.mark.parametrize("family,alpha,c,N,certified", [
        (Family.GPSWF, 0.0, 200.0, 64, 0), (Family.GPSWF, 0.0, 200.0, 128, 21),
        (Family.CPSWF, 1.5, 300.0, 64, 4)])
    def test_unresolved_chi_raise(self, family, alpha, c, N, certified):
        # against an 8N solve, 32 of 32, 40 of 64 and 27 of 32 chi are wrong here
        spec = ProlateSpec(family=family, alpha=alpha, c=c, N=N)
        with pytest.raises(NumericsError, match=f"certifies only {certified} of the {N // 2} "
                                                f"retained eigenvalues at N={N}, c={c:g}"):
            solve(spec)
        args = ["--family", family.value, "--alpha", str(alpha), "--c", str(c), "--n", str(N)]
        for command in ("basis", "sweep", "kernel", "verify"):
            assert cli_main([command, *args, "--quad-size", "64", "--output", "/dev/null"]) == 3

    @pytest.mark.parametrize("family,alpha,c,N,keep", [(Family.CPSWF, 1.5, 100.0, 64, 0.5),
                                                        (Family.GPSWF, 0.0, 200.0, 1024, 0.25)])
    def test_resolved_chi_certify(self, family, alpha, c, N, keep):
        # the first-order residual alone exceeds 1e-10 on the first (1.05e-8);
        # their chi are within 4e-16 relative of an 8N solve
        spec = ProlateSpec(family=family, alpha=alpha, c=c, N=N, keep_fraction=keep)
        es = solve(spec)
        chi8 = solve(replace(spec, N=8 * N, keep_fraction=keep / 8)).chi
        assert np.all(np.abs(es.chi - chi8) <= 1e-15 * es.chi)
        assert np.all(es.chi_error <= 1e-10 * es.chi)

    def test_kato_temple_bound(self):
        # r alone where the gap is unknown (above the last value) or too small;
        # r^2 / (gap - r) where the neighbours' intervals leave a gap past 2r
        theta = np.array([1.0, 2.0, 2.1, 5.0])
        r = np.array([1e-3, 0.0, 0.2, 1e-3])
        bound = prolate._kato_temple(theta, r)
        assert bound[0] == pytest.approx(1e-6 / (1.0 - 1e-3))
        assert bound[1] == 0.0
        assert bound[2] == 0.2
        assert bound[3] == 1e-3


class TestEval:
    """Mode values: row n of mode_matrix(x) is eigenfunction n at x."""

    def test_c0_matches_jacobi(self):
        es = gpswf(alpha=0.3, c=0.0, N=32)
        x = np.array([-0.7, 0.2, 0.9])
        np.testing.assert_allclose(es.mode_matrix(x)[3], jacobi_orthonormal_table(4, 0.3, 0.3, x)[3],
                                   rtol=0, atol=1e-12)

    def test_parity_symmetry(self):
        es = gpswf(c=2.0, N=64)
        x = np.linspace(0.05, 0.95, 7)
        left, right = es.mode_matrix(-x), es.mode_matrix(x)
        for n in (0, 1, 4, 7):
            assert left[n] == pytest.approx((-1) ** n * right[n], abs=1e-11)

    def test_odd_modes_vanish_at_origin(self):
        es = gpswf(c=1.5, N=64)
        at_zero = es.mode_matrix(0.0)[:, 0]
        for n in (1, 3, 5):
            assert at_zero[n] == 0.0  # odd-parity column, exact zero

    def test_refinement_stability_of_values(self):
        a = gpswf(alpha=0.0, c=1.0, N=64).mode_matrix(0.5)[0, 0]
        b = gpswf(alpha=0.0, c=1.0, N=128).mode_matrix(0.5)[0, 0]
        assert abs(a - b) <= 1e-10

    def test_domain_rejection(self):
        es = gpswf(N=16)
        with pytest.raises(ValueError):
            es.mode_matrix(1.0)
        with pytest.raises(ValueError):
            es.mode_matrix(-1.2)
        esc = cpswf(N=16)
        with pytest.raises(ValueError):
            esc.mode_matrix(0.0)
        with pytest.raises(ValueError):
            esc.mode_matrix(1.0)

    @pytest.mark.parametrize("make", [gpswf, cpswf])
    def test_nan_point_rejected(self, make):
        # NaN is not inside the open interval: it is rejected, not tabulated as NaN rows
        es = make(N=16)
        for x in ([np.nan], [0.5, np.nan]):
            with pytest.raises(ValueError, match="open interval"):
                es.mode_matrix(x)
            with pytest.raises(ValueError, match="open interval"):
                es.basis_matrix(x)

    def test_unretained_mode_rejected(self):
        es = gpswf(N=16)
        assert es.mode_matrix(0.5).shape == (8, 1)
        with pytest.raises(ValueError, match="not retained"):
            sample_mode(es, 8)

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


def _last_nonzero_row(coeffs) -> int:
    return int(np.flatnonzero(np.any(coeffs != 0, axis=1))[-1])


def _interior_points(es, count=65):
    lo, hi = family_grid(es.spec.family, es.spec.alpha).interval
    return np.linspace(lo, hi, count + 2)[1:-1]


class TestSupportRows:
    """A mode table multiplies only the support_rows = L + 1 basis rows that
    carry coefficients; rows past L are zero in every column."""

    SPECS = [("gpswf", 0.0, 4.0, 2048), ("gpswf", 0.5, 200.0, 1024), ("gpswf", 1.0, 1.0, 64),
             ("cpswf", 1.5, 16.0, 1024), ("cpswf", 0.5, 0.0, 64)]

    @staticmethod
    def _assert_matches_full_product(es):
        x = _interior_points(es)
        full = es.coeffs.T @ es.basis_matrix(x)
        table = es.mode_matrix(x)
        assert table.shape == full.shape
        assert np.max(np.abs(table - full)) <= 1e-13 * max(1.0, np.max(np.abs(full)))

    @pytest.mark.parametrize("family,alpha,c,N", SPECS)
    def test_solved_count_is_the_last_nonzero_row_plus_one(self, family, alpha, c, N):
        es = solve(ProlateSpec(family=family, alpha=alpha, c=c, N=N))
        assert es.support_rows == _last_nonzero_row(es.coeffs) + 1
        # the count from the windows is the count a hand-built system reads from coeffs
        assert EigenSystem(spec=es.spec, chi=es.chi, coeffs=es.coeffs).support_rows == es.support_rows

    def test_windows_leave_zero_rows(self):
        es = gpswf(alpha=0.0, c=4.0, N=2048)
        assert es.support_rows == 1054

    @pytest.mark.parametrize("family,alpha,c,N", SPECS)
    def test_solved_mode_matrix_matches_the_full_product(self, family, alpha, c, N):
        self._assert_matches_full_product(solve(ProlateSpec(family=family, alpha=alpha, c=c, N=N)))

    @pytest.mark.parametrize("family,alpha", [("gpswf", 0.5), ("cpswf", 1.5)])
    @pytest.mark.parametrize("last", [0, 5, 40, 63])
    def test_hand_built_system(self, family, alpha, last):
        # orthonormal columns on rows 0..last, zero below; -0.0 rows below count as zero
        spec = ProlateSpec(family=family, alpha=alpha, c=1.0, N=64)
        rng = np.random.default_rng(last)
        m = min(8, last + 1)
        coeffs = np.zeros((64, m))
        coeffs[: last + 1] = np.linalg.qr(rng.standard_normal((last + 1, m)))[0]
        coeffs[last + 1:] = -0.0
        es = EigenSystem(spec=spec, chi=np.arange(1.0, m + 1), coeffs=coeffs)
        assert es.support_rows == _last_nonzero_row(coeffs) + 1 == last + 1
        self._assert_matches_full_product(es)

    def test_hand_built_nan_row_counts_and_zero_coeffs_give_one_row(self):
        spec = ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=16)
        coeffs = np.zeros((16, 2))
        assert EigenSystem(spec=spec, chi=np.array([1.0, 2.0]), coeffs=coeffs).support_rows == 1
        coeffs[11, 1] = np.nan
        es = EigenSystem(spec=spec, chi=np.array([1.0, 2.0]), coeffs=coeffs)
        assert es.support_rows == 12
        assert np.all(np.isnan(es.mode_matrix([0.5])[1]))

    def test_hand_built_count_needs_no_temporary_of_coeffs_size(self):
        es = gpswf(alpha=0.0, c=4.0, N=2048)
        tracemalloc.start()
        try:
            built = EigenSystem(spec=es.spec, chi=es.chi, coeffs=es.coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built.support_rows == es.support_rows
        assert peak < 0.01 * es.coeffs.nbytes

    def test_table_has_only_the_support_rows(self, monkeypatch):
        es = gpswf(alpha=0.0, c=4.0, N=2048)
        sizes = []
        original = prolate.jacobi_orthonormal_table

        def recording(nmax, a, b, x):
            sizes.append(nmax)
            return original(nmax, a, b, x)

        monkeypatch.setattr(prolate, "jacobi_orthonormal_table", recording)
        es.mode_matrix(_interior_points(es))
        assert sizes == [es.support_rows]


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


class TestDefaultRule:
    @pytest.mark.parametrize("family,alpha,a", [("gpswf", 0.5, 0.5), ("cpswf", 1.5, 0.0)])
    def test_built_once_and_read_only(self, family, alpha, a):
        es = solve(ProlateSpec(family=family, alpha=alpha, c=1.0, N=16))
        first = es.default_rule(48)
        again = es.default_rule(48)
        np.testing.assert_array_equal(again.nodes, first.nodes)
        np.testing.assert_array_equal(again.weights, first.weights)
        assert again is first
        # the shared rule carries exactly the values of a fresh build
        fresh = gauss_jacobi(48, a, a)
        if family == "cpswf":
            np.testing.assert_array_equal(first.nodes, (fresh.nodes + 1.0) / 2.0)
            np.testing.assert_array_equal(first.weights, fresh.weights / 2.0)
        else:
            np.testing.assert_array_equal(first.nodes, fresh.nodes)
            np.testing.assert_array_equal(first.weights, fresh.weights)
        with pytest.raises(ValueError, match="read-only"):
            first.nodes[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            first.weights[0] = 0.0

    @pytest.mark.parametrize("N,size", [(16, 512), (512, 512), (600, 600)])
    def test_size_follows_n_from_512(self, N, size):
        assert gpswf(N=N).default_rule().size == size

    def test_families_with_equal_weight_get_their_own_rule(self):
        # gpswf at alpha 0 and cpswf share the Jacobi weight (0, 0) but not the interval
        g = gpswf(alpha=0.0, N=16).default_rule(32)
        c = cpswf(alpha=0.5, N=16).default_rule(32)
        assert g.interval == (-1.0, 1.0) and c.interval == (0.0, 1.0)
        assert np.all(c.nodes > 0)


def strict_loads(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestSerialization:
    """The basis artifact as written by the CLI encoders."""

    def test_json_schema(self):
        es = gpswf(N=16)
        data = strict_loads(_json_text(es.to_dict()))
        assert set(data) == {"family", "alpha", "c", "N", "chi", "coeffs"}
        assert data["family"] == "gpswf"
        assert data["N"] == 16
        assert len(data["chi"]) == 8
        assert len(data["coeffs"]) == 16 and len(data["coeffs"][0]) == 8
        assert data["chi"] == es.chi.tolist()

    def test_csv_rows(self, tmp_path):
        es = cpswf(N=16, c=2.0)
        out = tmp_path / "basis.csv"
        assert cli_main(["basis", "--family", "cpswf", "--alpha", "0.5", "--c", "2.0", "--n", "16",
                         "--format", "csv", "--output", str(out)]) == 0
        config, *lines = out.read_text().strip().split("\n")
        assert config.startswith("# config: ")
        assert lines[0] == "n,chi,lower_bound,upper_bound"
        assert len(lines) == 1 + es.n_retained
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(es.chi[0])
        assert float(first[3]) - float(first[2]) == pytest.approx(4.0)


class TestRuleModes:
    @pytest.mark.parametrize("family,alpha", [("gpswf", 0.5), ("cpswf", 1.5)])
    def test_one_read_only_table_per_rule_object(self, family, alpha):
        es = solve(ProlateSpec(family=family, alpha=alpha, c=2.0, N=32))
        rule = es.default_rule(40)
        table = es.rule_modes(rule)
        assert es.rule_modes(rule) is table
        np.testing.assert_array_equal(table, es.mode_matrix(rule.nodes))
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
        # an equal rule built separately is another object: it gets its own table
        twin = type(rule)(a=rule.a, b=rule.b, interval=rule.interval,
                          nodes=rule.nodes, weights=rule.weights)
        twin_table = es.rule_modes(twin)
        assert twin_table is not table
        assert (twin == rule) is False and hash(twin) != hash(rule)
        np.testing.assert_array_equal(twin_table, table)

    @pytest.mark.parametrize("family,alpha", [("gpswf", 0.0), ("cpswf", 0.5)])
    def test_under_resolved_rule_rejected_and_not_cached(self, family, alpha):
        es = solve(ProlateSpec(family=family, alpha=alpha, c=4.0, N=256))
        rule = es.default_rule(64)
        for _ in range(2):
            with pytest.raises(NumericsError, match="64-node rule .* 128 retained modes") as err:
                es.rule_modes(rule)
        assert es._tables == {}
        # only a GPSWF mode is a polynomial, so only its message names an exact rule size
        assert ("integrate every retained product exactly" in str(err.value)) == (family == "gpswf")

    def test_gpswf_message_names_the_exact_rule_size(self):
        es = solve(ProlateSpec(family="gpswf", alpha=0.5, c=4.0, N=256))
        last = max(np.flatnonzero(col)[-1] for col in es.coeffs.T)
        with pytest.raises(NumericsError, match=f"use more nodes \\({last + 1} nodes integrate every"):
            es.rule_modes(es.default_rule(64))
        # that size resolves them: the retained Gram matrix is exact to rounding
        rule = es.default_rule(int(last) + 1)
        table = es.rule_modes(rule)
        assert np.max(np.abs((table * rule.weights) @ table.T - np.eye(es.n_retained))) <= 1e-12

    def test_norm_gap_is_measured_on_the_top_modes(self):
        es = solve(ProlateSpec(family="gpswf", alpha=0.0, c=4.0, N=256))
        rule = es.default_rule(512)
        top = es.rule_modes(rule)[-8:]
        assert np.max(np.abs(top**2 @ rule.weights - 1.0)) <= 1e-13
