import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import prolatesum
from prolatesum import cli, prolate, transforms
from prolatesum.analysis import convergence_sweep
from prolatesum.cli import (
    EXIT_USAGE,
    RunConfig,
    UsageError,
    _csv_text,
    _json_text,
    build_parser,
    config_from_args,
    main,
    run,
)
from prolatesum.prolate import EigenSystem, ProlateSpec, build_galerkin, solve
from prolatesum.riesz import RieszConfig, riesz_kernel_table


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasis:
    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "es.json"
        code, _, _ = run_cli(["basis", "--family", "gpswf", "--alpha", "0", "--c", "1",
                              "--n", "32", "--output", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["command"] == "basis"
        assert data["results"]["family"] == "gpswf"
        assert len(data["results"]["chi"]) == 16

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "es.csv"
        code, _, _ = run_cli(["basis", "--n", "16", "--format", "csv",
                              "--output", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        assert text.startswith("# config: ")
        assert "n,chi,lower_bound,upper_bound" in text

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        args = ["basis", "--n", "32", "--c", "2.5", "--output", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        capsys.readouterr()
        assert out.read_bytes() == first


class TestVerify:
    @pytest.mark.parametrize("family,alpha", [("gpswf", "0"), ("cpswf", "0.5")])
    def test_full_battery_passes(self, family, alpha, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code, _, _ = run_cli(["verify", "--family", family, "--alpha", alpha,
                              "--c", "1", "--n", "128", "--output", str(out)], capsys)
        data = json.loads(out.read_text())
        failed = [c for c in data["checks"] if not c["pass"]]
        assert failed == []
        assert code == 0
        names = {c["name"] for c in data["checks"]}
        assert "orthonormality_gram" in names
        assert "eigenvalue_sandwich" in names
        assert "dyadic_partition_of_unity" in names
        assert "condition_b1_counting" in names
        for c in data["checks"]:
            assert set(c) == {"name", "pass", "value", "tolerance"}

    def test_too_few_modes_exit_1(self, capsys):
        code, _, err = run_cli(["verify", "--n", "8", "--keep-fraction", "0.25"], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "have 2" in err

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_uncertified_truncation_exit_3(self, command, capsys):
        # at N = 4 chi_0 is off by 7.5e-6: solve rejects it before any mode count
        code, _, err = run_cli([command, "--n", "4"], capsys)
        assert code == 3
        assert err.startswith("numerical failure: the Galerkin truncation certifies only 0 of the 2")

    def test_verify_deterministic(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        args = ["verify", "--n", "64", "--seed", "3", "--output", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_out_of_range_alpha_warns_once(self, tmp_path, capsys):
        # the 2N refinement solve does not repeat the run's own warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify", "--family", "gpswf", "--alpha", "1.7", "--n", "32",
                         "--quad-size", "64", "--output", str(tmp_path / "v.json")])
        assert code == 0
        assert [w.category for w in caught] == [UserWarning]
        assert "outside the convergence-theorem range" in str(caught[0].message)

    def test_sup_bound_keeps_pieces_that_underflow(self, tmp_path, capsys):
        # at delta = 200 the bound 2^{delta(1-k)} of the last pieces underflows
        # to 0, and so do the pieces: they meet it and read 0, with no 0/0
        out = tmp_path / "v.json"
        code, _, _ = run_cli(["verify", "--n", "64", "--delta", "200", "--output", str(out)], capsys)
        assert code == 0
        check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["dyadic_piece_sup_bound"]
        assert check["pass"] and 0.0 < check["value"] <= 1.0

    @pytest.mark.parametrize("family,c,bound", [("gpswf", "6e5", "5e+05"), ("gpswf", "2e6", "5e+05"),
                                                ("cpswf", "2e6", "1e+06")])
    def test_c_beyond_the_bessel_range_exit_1_naming_c(self, family, c, bound, capsys, monkeypatch):
        # the transform checks would evaluate Bessel J past 1e6; nothing is solved
        monkeypatch.setattr(cli, "solve", lambda spec: pytest.fail("solved"))
        code, _, err = run_cli(["verify", "--family", family, "--alpha", "0.5", "--c", c,
                                "--n", "64"], capsys)
        assert code == 1
        assert err.startswith("error: verify needs --c <= " + bound)

    @pytest.mark.parametrize("quad", ["128", "512", "2048"])
    def test_large_alpha_does_not_depend_on_the_rule(self, quad, tmp_path, capsys, monkeypatch):
        # alpha = 100: Q_c's kernel once read nan and 0 near t = 0, so the run
        # passed at 128 nodes, failed qc_eigenvalue_consistency (1.6e-3) at
        # 512 and exited 1 at 2048.  alpha = 150: 2^nu Gamma(nu + 1) overflows,
        # and verify says so before it solves
        out = tmp_path / "v.json"
        args = ["verify", "--family", "gpswf", "--c", "4", "--n", "64", "--quad-size", quad]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # alpha outside the theorem range
            assert run_cli([*args, "--alpha", "100", "--output", str(out)], capsys)[0] == 0
            checks = {c["name"]: c["value"] for c in json.loads(out.read_text())["checks"]}
            assert checks["qc_eigenvalue_consistency"] <= 1e-14
            assert checks["transform_eigenrelation_residual"] <= 1e-12
            monkeypatch.setattr(cli, "solve", lambda spec: pytest.fail("solved"))
            code, _, err = run_cli([*args, "--alpha", "150"], capsys)
        assert code == 1
        assert err.startswith("error: verify needs --alpha <= 148 for gpswf")

    def test_rule_with_weights_below_the_float_range_exit_3(self, tmp_path, capsys):
        # alpha = 148: 128 and 512 nodes build, 2048 cannot (its smallest
        # weights are below 1e-308); no RuntimeWarning escapes on either path
        args = ["verify", "--family", "gpswf", "--alpha", "148", "--c", "4", "--n", "64",
                "--output", str(tmp_path / "v.json")]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "alpha=148.0 lies outside")
            warnings.simplefilter("error", RuntimeWarning)
            for quad in ("128", "512"):
                assert run_cli([*args, "--quad-size", quad], capsys)[0] == 0
            code, _, err = run_cli([*args, "--quad-size", "2048"], capsys)
        assert code == 3
        assert err.startswith("numerical failure: the 2048-node Gauss-Jacobi rule")
        assert "Traceback" not in err

    def test_csv_is_three_json_lines(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "16", "--quad-size", "32", "--format", "csv"], capsys)
        assert code == 0
        assert out.endswith("\n")
        config, results, checks = out[:-1].split("\n")
        assert config.startswith("# config: ") and checks.startswith("# checks: ")
        loads = lambda text: json.loads(text, parse_constant=_reject_constant)  # noqa: E731
        assert loads(config.removeprefix("# config: "))["command"] == "verify"
        assert loads(results) == {"n_checks": 14, "n_pass": 14}
        assert len(loads(checks.removeprefix("# checks: "))) == 14


class TestTruncationRefinement:
    """The check reads solve's bound on |chi_n - lambda_n| relative to max(1, chi_n)."""

    @staticmethod
    def _check(path):
        checks = json.loads(path.read_text())["checks"]
        return next(c for c in checks if c["name"] == "truncation_refinement")

    def test_rounding_drift_at_large_n_passes(self, tmp_path, capsys):
        # whole-block solves drift by about 2.9e-10 absolute here, from rounding
        # alone; the certified window's residuals are far below that
        out = tmp_path / "v.json"
        code, _, _ = run_cli(["verify", "--n", "1024", "--c", "20", "--quad-size", "1200",
                              "--output", str(out)], capsys)
        assert code == 0
        check = self._check(out)
        assert check["pass"] and check["value"] <= 1e-13

    @pytest.mark.parametrize("family,alpha,c,n,certified", [
        ("gpswf", "0", "200", "64", 0), ("gpswf", "0", "200", "128", 21), ("cpswf", "1.5", "300", "64", 4)])
    def test_unconverged_solve_fails(self, family, alpha, c, n, certified, tmp_path, capsys):
        # c >> N: both blocks are solved whole, and their chi are off by up to 72%
        out = tmp_path / "v.json"
        code, _, err = run_cli(["verify", "--family", family, "--alpha", alpha, "--c", c, "--n", n,
                                "--output", str(out)], capsys)
        assert code == 3 and not out.exists()
        assert err.startswith(f"numerical failure: the Galerkin truncation certifies only {certified} of ")
        assert f"N={n}, c={c}" in err

    @pytest.mark.parametrize("args,code", [(["--n", "64", "--c", "4"], 0), (["--n", "64", "--c", "200"], 3)])
    def test_one_solve_per_run(self, args, code, tmp_path, capsys, monkeypatch):
        # the check reads the bound solve stored: one Galerkin matrix, one solve
        specs, built = [], []

        def counting(spec):
            specs.append(spec)
            return solve(spec)

        def building(spec):
            built.append(spec)
            return build_galerkin(spec)

        monkeypatch.setattr(cli, "solve", counting)
        monkeypatch.setattr(prolate, "build_galerkin", building)
        out = tmp_path / "v.json"
        assert run_cli(["verify", *args, "--output", str(out)], capsys)[0] == code
        assert built == specs and len(specs) == 1
        if code == 0:
            es = solve(specs[0])
            assert self._check(out)["value"] == float(np.max(es.chi_error / np.maximum(1.0, es.chi)))


class TestRuleResolution:
    @pytest.mark.parametrize("args,nodes,modes", [
        (["--n", "2048", "--c", "4", "--p", "2", "--quad-size", "512"], 512, 1024),
        (["--family", "cpswf", "--alpha", "0.5", "--n", "256", "--quad-size", "64"], 64, 128),
        # fewer modes than nodes, yet x^(2 alpha + 1) defeats the Gauss-Legendre rule
        (["--family", "cpswf", "--alpha", "0.5", "--c", "4", "--n", "1024",
          "--quad-size", "600"], 600, 512),
    ])
    def test_under_resolved_rule_exit_3(self, args, nodes, modes, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, err = run_cli(["sweep", *args, "--output", str(out)], capsys)
        assert code == 3
        assert err.startswith("numerical failure:")
        assert f"{nodes}-node rule" in err and f"{modes} retained modes" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_large_alpha_rule_with_tiny_weights_passes(self, command, tmp_path, capsys):
        # this rule's smallest weight is 1.8e-47, beyond what the first rows
        # of the eigenvectors resolve; the Christoffel weights keep it
        out = tmp_path / "a40.json"
        with pytest.warns(UserWarning, match="outside the convergence-theorem range"):
            code, _, _ = run_cli([command, "--family", "gpswf", "--alpha", "40", "--c", "4",
                                  "--n", "64", "--quad-size", "128", "--output", str(out)], capsys)
        assert code == 0
        results = json.loads(out.read_text())["results"]
        if command == "verify":
            assert results["n_pass"] == results["n_checks"]

    @pytest.mark.parametrize("args,nodes", [(["sweep", "--n", "2048", "--c", "4"], 2048),
                                            (["verify", "--n", "1024", "--c", "20"], 1024),
                                            (["verify", "--n", "64"], 512)])
    def test_default_rule_resolves_and_is_recorded(self, args, nodes, tmp_path, capsys):
        # with no --quad-size the rule has the library's max(512, N) nodes
        out = tmp_path / "a.json"
        code, _, err = run_cli([*args, "--output", str(out)], capsys)
        assert code == 0, err
        assert json.loads(out.read_text())["config"]["quad_size"] == nodes

    @pytest.mark.parametrize("args", [["basis", "--n", "16"], ["kernel", "--n", "16"],
                                      ["exponents", "--p", "2"]])
    def test_commands_without_a_rule_record_none(self, args, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert run_cli([*args, "--output", str(out)], capsys)[0] == 0
        assert json.loads(out.read_text())["config"]["quad_size"] is None

    def test_resolved_rule_passes(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run_cli(["sweep", "--n", "1024", "--c", "4", "--p", "2", "--quad-size", "520",
                              "--output", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["results"]["parseval_gap"] <= 1e-12


class TestSweep:
    def test_sweep_report(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run_cli(["sweep", "--n", "64", "--c", "1", "--p", "2",
                              "--delta", "1", "--r-count", "4",
                              "--output", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        res = data["results"]
        assert len(res["errors"]) == 4
        assert res["passed"] is True
        assert res["probe_growth"] is not None
        assert data["config"]["seed"] == 0

    def test_radius_beyond_certified(self, capsys):
        code, _, err = run_cli(["sweep", "--n", "32", "--r-start", "10",
                                "--r-stop", "1e9"], capsys)
        assert code == 1
        assert "exceeds certified spectrum" in err

    @pytest.mark.parametrize("n,retained", [("10", 5), ("8", 4)])
    def test_default_grid_too_few_modes_exit_1(self, n, retained, capsys):
        code, _, err = run_cli(["sweep", "--n", n], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert f"have {retained}" in err

    def test_lone_r_start_kept(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run_cli(["sweep", "--n", "32", "--r-count", "3", "--r-start", "10",
                              "--output", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        chi = solve(ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=32)).chi
        assert data["config"]["r_start"] == 10.0
        assert data["results"]["R_grid"][0] == 10.0
        assert data["results"]["R_grid"][-1] == float(chi[-1])

    def test_lone_r_stop_kept(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run_cli(["sweep", "--n", "32", "--r-count", "3", "--r-stop", "100",
                              "--output", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        chi = solve(ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=32)).chi
        assert data["config"]["r_stop"] == 100.0
        assert data["results"]["R_grid"][0] == float(chi[4])
        assert data["results"]["R_grid"][-1] == 100.0

    def test_few_modes_need_only_a_given_start(self, capsys):
        # 4 retained modes: too few for the default start chi_4, enough for a given one
        code, _, err = run_cli(["sweep", "--n", "8", "--r-stop", "20"], capsys)
        assert code == 1
        assert "have 4" in err
        code, _, _ = run_cli(["sweep", "--n", "8", "--r-start", "1", "--r-count", "3"], capsys)
        assert code == 0

    def test_start_at_or_below_chi0_exit_1(self, capsys):
        # every summation weight is 0 at R <= chi_0: the grid must start above it
        chi0 = solve(ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=64)).chi[0]
        for start in ("0.01", repr(float(chi0))):
            code, out, err = run_cli(["sweep", "--n", "64", "--quad-size", "64", "--r-count", "3",
                                      "--r-start", start, "--r-stop", "5"], capsys)
            assert code == 1
            assert out == ""
            assert "chi_0" in err and repr(float(chi0)) in err

    @pytest.mark.parametrize("fn,values", [("sin", lambda x: np.sin(3.0 * x)),
                                           ("runge", lambda x: 1.0 / (1.0 + 25.0 * x * x))])
    def test_probe_function_errors(self, fn, values, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run_cli(["sweep", "--n", "64", "--quad-size", "128", "--r-count", "4",
                              "--fn", fn, "--output", str(out)], capsys)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        es = solve(ProlateSpec(family="gpswf", alpha=0.0, c=1.0, N=64))
        rule = es.default_rule(128)
        f = transforms.SampledFunction(rule=rule, values=values(rule.nodes))
        report = convergence_sweep(f, es, 2.0, 1.0, res["R_grid"])
        assert res["errors"] == report.errors.tolist()

    def test_start_above_stop_exit_1(self, capsys):
        code, out, err = run_cli(["sweep", "--n", "64", "--r-start", "50", "--r-stop", "40"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: need 0 < r_start < r_stop\n"

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["sweep", "--n", "64", "--r-count", "3", "--format", "csv",
                              "--output", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1] == "R,error,weight_count,slope_so_far"
        assert len(lines) == 5


class TestKernel:
    def test_kernel_table(self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        code, _, _ = run_cli(["kernel", "--n", "32", "--grid-points", "5",
                              "--format", "csv", "--output", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "x,y,value"
        assert len(lines) == 2 + 25
        # symmetry of the tabulated kernel
        rows = [ln.split(",") for ln in lines[2:]]
        vals = {(r[0], r[1]): float(r[2]) for r in rows}
        for (x, y), v in vals.items():
            assert vals[(y, x)] == v

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_empty_grid_rejected(self, points, tmp_path, capsys):
        out = tmp_path / "kernel.json"
        code, _, err = run_cli(["kernel", "--n", "16", "--grid-points", points,
                                "--output", str(out)], capsys)
        assert code == 1
        assert "grid" in err
        assert not out.exists()


def _exponents_table(results):
    keys = ["p", "gamma_p", "p_dual", "gamma_p_dual", "delta_threshold", "critical"]
    return ",".join(keys), [[row[k] for k in keys] for row in results["rows"]]


def _basis_table(results):
    # the JSON artifact holds chi; the bounds are the library's for its spec
    es = solve(ProlateSpec(family=results["family"], alpha=results["alpha"], c=results["c"],
                           N=results["N"]))
    chi = results["chi"]
    return "n,chi,lower_bound,upper_bound", list(zip(range(len(chi)), chi, es.lower_bounds(),
                                                     es.upper_bounds()))


def _sweep_table(results):
    keys = ["R_grid", "errors", "weight_counts", "slope_so_far"]
    return "R,error,weight_count,slope_so_far", list(zip(*(results[k] for k in keys)))


def _kernel_table(results):
    x = results["points"]
    return "x,y,value", [(xi, yj, v) for xi, row in zip(x, results["kernel"])
                         for yj, v in zip(x, row)]


class TestExponents:
    def test_theorem_value_printed(self, capsys):
        code, out, _ = run_cli(["exponents", "--family", "gpswf", "--alpha", "0",
                                "--p", "10"], capsys)
        assert code == 0
        assert "gamma=0.3" in out

    def test_critical_line_marked(self, capsys):
        code, out, _ = run_cli(["exponents", "--family", "gpswf", "--alpha", "0",
                                "--p", "1.3333333333333333"], capsys)
        assert code == 0
        assert "critical line" in out

    def test_table_file(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        code, _, _ = run_cli(["exponents", "--family", "cpswf", "--p-count", "5",
                              "--output", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["results"]["rows"]) == 5
        assert data["results"]["p0"] == pytest.approx(4 / 3)


    @pytest.mark.parametrize("args,json_table", [
        (["exponents", "--family", "cpswf", "--p-count", "5"], _exponents_table),
        (["exponents", "--family", "gpswf", "--alpha", "0", "--p", "1.3333333333333333"],
         _exponents_table),
        (["basis", "--family", "cpswf", "--alpha", "1.5", "--c", "4", "--n", "32"], _basis_table),
        (["sweep", "--n", "64", "--quad-size", "128", "--r-count", "4"], _sweep_table),
        (["kernel", "--family", "cpswf", "--alpha", "0.5", "--n", "32", "--grid-points", "5"],
         _kernel_table),
    ], ids=["exponents-grid", "exponents-critical", "basis", "sweep", "kernel"])
    def test_csv_rows_equal_json_rows(self, args, json_table, tmp_path, capsys):
        # every CSV table holds the values of the JSON artifact of the same run
        assert main([*args, "--output", str(tmp_path / "a.json")]) == 0
        assert main([*args, "--format", "csv", "--output", str(tmp_path / "a.csv")]) == 0
        capsys.readouterr()
        header, rows = json_table(json.loads((tmp_path / "a.json").read_text())["results"])
        lines = (tmp_path / "a.csv").read_text().splitlines()
        assert lines[1] == header
        got = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        # JSON writes nan as null, and a bool critical flag is 1 or 0 in CSV
        assert np.array_equal(got, np.array(rows, dtype=float), equal_nan=True)


class TestErrors:
    def test_usage_error_exit_1(self, capsys):
        assert main(["sweep", "--n", "not-a-number"]) == 1

    @pytest.mark.parametrize("command", ["basis", "kernel", "exponents"])
    def test_seed_only_where_something_is_drawn(self, command, capsys):
        code, out, err = run_cli([command, "--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err == "usage error: unrecognized arguments: --seed 1\n"

    @pytest.mark.parametrize("args,message", [(["--quad-size", "4"], "quadrature size must be >= 8"),
                                              (["--r-count", "1"], "R grid needs at least 2 points")])
    def test_invalid_option_value_usage_error(self, args, message, capsys):
        code, out, err = run_cli(["sweep", *args], capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("field,value,message", [("family", "spheroid", "family must be"),
                                                     ("fmt", "xml", "format must be")])
    def test_validate_rejects_family_and_format(self, field, value, message):
        with pytest.raises(UsageError, match=message):
            RunConfig(command="basis", **{field: value}).validate()

    @pytest.mark.parametrize("args,message", [
        (["verify", "--n", "1024", "--c", "4", "--quad-size", "1200", "--delta", "0"],
         "delta must be finite and positive"),
        (["kernel", "--n", "2048", "--R", "nan"], "R must be finite and positive"),
        (["kernel", "--R", "0"], "R must be finite and positive"),
        (["sweep", "--n", "512", "--delta", "-1"], "delta must be finite and positive"),
        (["sweep", "--delta", "inf"], "delta must be finite and positive"),
    ])
    def test_invalid_delta_or_R_exit_1_before_solving(self, args, message, capsys, monkeypatch):
        def no_solve(spec):
            raise AssertionError("solve called for an invalid configuration")

        monkeypatch.setattr(cli, "solve", no_solve)
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_unknown_probe_function_exit_1(self, capsys):
        assert run(RunConfig(command="sweep", N=32, quad_size=64, fn="x")) == EXIT_USAGE
        assert "unknown probe function 'x'" in capsys.readouterr().err

    def test_unknown_command_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_invalid_config_exit_1(self, capsys):
        assert main(["basis", "--alpha", "-2"]) == 1
        assert main(["sweep", "--p", "0.5"]) == 1

    def test_output_into_missing_directory_exit_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "es.json"
        code, _, err = run_cli(["basis", "--n", "16", "--output", str(out)], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert str(out) in err

    def test_numerical_failure_exit_3(self, capsys, monkeypatch):
        import prolatesum.cli as cli
        from prolatesum.specfun import NumericsError

        def boom(cfg):
            raise NumericsError("synthetic eigensolver breakdown")

        monkeypatch.setitem(cli._COMMANDS, "basis", boom)
        assert main(["basis"]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestNanArguments:
    @pytest.mark.parametrize("args", [
        ["sweep", "--n", "64", "--p", "nan", "--r-count", "4"],
        ["exponents", "--p", "nan"],
        ["exponents", "--eps-choice", "nan", "--p", "4"],
        ["exponents", "--p-count", "0"],
        ["exponents", "--p-count", "-2"],
        ["exponents", "--family", "cpswf", "--alpha", "nan", "--p", "2"],
        ["exponents", "--family", "cpswf", "--alpha", "inf", "--p", "2"],
        ["exponents", "--family", "cpswf", "--alpha", "-7", "--p", "2"],
        ["exponents", "--family", "gpswf", "--alpha", "nan", "--p", "2"],
        ["exponents", "--p-stop", "inf", "--p-count", "3"],
        ["exponents", "--p-start", "nan"],
        ["basis", "--n", "64", "--c", "1e200"],  # c * c overflows
    ])
    def test_exit_1(self, args, tmp_path, capsys):
        out = tmp_path / "x.json"
        code, _, err = run_cli(args + ["--output", str(out)], capsys)
        assert code == 1
        assert "error:" in err
        assert not out.exists()


class TestDefaults:
    @pytest.mark.parametrize("command", ["basis", "verify", "sweep", "kernel", "exponents"])
    def test_defaults_are_run_config_defaults(self, command):
        assert config_from_args(build_parser().parse_args([command])) == RunConfig(command=command)

    def test_artifact_config_block(self, tmp_path, capsys):
        out = tmp_path / "es.json"
        assert main(["basis", "--n", "16", "--output", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert config == asdict(RunConfig(command="basis", N=16, output=str(out)))


class TestRowsOnlyForCsv:
    @pytest.mark.parametrize("args", [
        ["basis", "--n", "32"],
        ["sweep", "--n", "64", "--quad-size", "128", "--r-count", "4"],
        ["kernel", "--n", "32", "--grid-points", "5"],
        ["exponents", "--p-count", "3"],
    ])
    @pytest.mark.parametrize("fmt,builds", [("json", 0), ("csv", 1)])
    def test_table_rows_built_only_for_csv(self, args, fmt, builds, tmp_path, capsys, monkeypatch):
        # a JSON run never calls rows(): the kernel's would hold grid_points**2 floats
        original, built = cli._emit, []

        def spying(cfg, results, csv=None, checks=()):
            header, rows = csv

            def counted_rows():
                built.append(1)
                return rows()

            return original(cfg, results, csv=(header, counted_rows), checks=checks)

        monkeypatch.setattr(cli, "_emit", spying)
        out = tmp_path / f"artifact.{fmt}"
        assert main([*args, "--format", fmt, "--output", str(out)]) == 0
        assert len(built) == builds
        assert out.exists()


class TestModeTable:
    @pytest.mark.parametrize("p", ["1.5", "2", "4"])
    def test_sweep_evaluates_modes_twice(self, p, tmp_path, capsys, monkeypatch):
        # once on the quadrature rule, once at the four bump centres
        calls = []
        original = EigenSystem.mode_matrix

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(EigenSystem, "mode_matrix", counting)
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--n", "64", "--quad-size", "128", "--p", p,
                     "--r-count", "4", "--output", str(out)]) == 0
        assert len(calls) == 2

    def test_sweep_builds_only_its_own_rule(self, tmp_path, capsys, monkeypatch):
        sizes = []
        original = EigenSystem.default_rule

        def recording(self, size=None):
            sizes.append(size)
            return original(self, size)

        monkeypatch.setattr(EigenSystem, "default_rule", recording)
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--n", "64", "--quad-size", "256", "--p", "1.5",
                     "--r-count", "4", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["lemma1_constant"] > 0
        assert sizes and set(sizes) == {256}

    def test_kernel_artifact_is_the_library_table(self, tmp_path, capsys):
        out = tmp_path / "kernel.json"
        assert main(["kernel", "--family", "cpswf", "--alpha", "0.5", "--n", "32",
                     "--grid-points", "7", "--output", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        es = solve(ProlateSpec(family="cpswf", alpha=0.5, c=1.0, N=32))
        K = riesz_kernel_table(es, RieszConfig(R=res["R"], delta=res["delta"]),
                               np.array(res["points"]))
        assert res["kernel"] == K.tolist()


class TestOneKernelPerRule:
    # the transforms of the 9 modes are read in closed form, once; the only
    # kernel verify builds is Q_c's, for gpswf
    @pytest.mark.parametrize("family,alpha,expected", [
        ("gpswf", "0.5", {"mode_transforms": 1, "apply_Qc": 1, "family_transform": 0,
                          "finite_fourier": 0, "finite_hankel": 0}),
        ("cpswf", "0.5", {"mode_transforms": 1, "apply_Qc": 0, "family_transform": 0,
                          "finite_fourier": 0, "finite_hankel": 0}),
    ])
    def test_verify_applies_each_transform_once(self, family, alpha, expected, tmp_path,
                                                capsys, monkeypatch):
        calls = {name: 0 for name in expected}
        for name in expected:
            original = getattr(transforms, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(transforms, name, counting)
        out = tmp_path / "verify.json"
        assert main(["verify", "--family", family, "--alpha", alpha, "--c", "3", "--n", "64",
                     "--quad-size", "128", "--output", str(out)]) == 0
        assert calls == expected


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


# strings that exercise JSON escaping: quotes, separators, brackets, non-ASCII
_TRICKY_TEXT = st.text(alphabet=st.sampled_from('a"\\,:[]{} \n\té€\u2028\U0001f600'), max_size=8)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = (_FINITE | _FINITE.map(np.float64) | st.integers() | st.booleans() | st.none()
           | _TRICKY_TEXT | st.text(max_size=8))
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children, max_size=6) | st.lists(_FINITE, max_size=6)
                      | st.dictionaries(_TRICKY_TEXT | st.text(max_size=8), children, max_size=6)),
    max_leaves=40,
)

# float64 arrays of 0 to 3 axes, some empty; entries include +-0.0, subnormals,
# nan and +-inf, and many arrays are mostly exact zeros
_FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
    elements=st.floats() | st.sampled_from([0.0, 0.0, 0.0, -0.0]),
)


_SPECIAL = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])


@st.composite
def _banded_arrays(draw):
    """2-d float64 arrays shaped like basis coefficients: most rows zero,
    each other row nonzero only on a band of columns, the band's entries
    drawn with +-0.0, nan and +-inf among them."""
    k, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    a = np.zeros((k, n))
    for i in range(k):
        if n and draw(st.booleans()):
            first = draw(st.integers(0, n - 1))
            last = draw(st.integers(first, n - 1))
            a[i, first:last + 1] = draw(hnp.arrays(np.float64, last - first + 1,
                                                   elements=st.floats() | _SPECIAL))
    return a


def _listed(a):
    # the tolist() a strict writer is held to: a non-finite entry is null
    return np.where(np.isfinite(a), a, None).tolist()


class TestArtifactWriter:
    @settings(max_examples=200, deadline=None)
    @given(obj=_JSON_VALUES)
    def test_bytes_equal_the_stdlib_encoder(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_non_finite_floats_are_null(self):
        obj = {"x": [1.0, float("nan"), float("inf")], "y": np.float64("-inf"), "z": [float("nan")]}
        text = _json_text(obj)
        assert json.loads(text, parse_constant=_reject_constant) == {
            "x": [1.0, None, None], "y": None, "z": [None]}

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.floats() | st.floats().map(np.float64)
                                  | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.integers(),
                                  min_size=1, max_size=4), max_size=5))
    def test_csv_text_equals_the_fstring_rows(self, rows):
        # floats include +-0.0, nan, +-inf and subnormals; an integer is
        # written exactly, also beyond 2**53 where ".17g" would round it
        expected = ["h"] + [",".join(f"{v}" if isinstance(v, (int, np.integer)) else f"{v:.17g}"
                                     for v in row) for row in rows]
        assert _csv_text("h", rows) == "\n".join(expected) + "\n"
        for row in rows:
            for v in row:
                if isinstance(v, (int, np.integer)):
                    assert _csv_text("h", [[v]]) == f"h\n{v}\n"

    def test_csv_text_integers_beyond_2_53(self):
        big = 2**53 + 1
        assert _csv_text("h", [[big, np.int64(-big), True, 0.5]]) == f"h\n{big},{-big},1,0.5\n"

    @settings(max_examples=300, deadline=None)
    @given(a=_FLOAT_ARRAYS)
    def test_float_array_bytes_equal_its_list(self, a):
        expected = json.dumps(np.where(np.isfinite(a), a, None).tolist(), indent=2, sort_keys=True)
        assert _json_text(a) == _json_text(a.tolist()) == expected
        # a transposed view has rows that are not contiguous
        transposed = json.dumps(np.where(np.isfinite(a.T), a.T, None).tolist(), indent=2, sort_keys=True)
        assert _json_text(a.T) == transposed

    @settings(max_examples=300, deadline=None)
    @given(a=_banded_arrays())
    @example(a=np.zeros((4, 1)))
    @example(a=np.array([[1.5], [0.0], [-0.0], [np.nan]]))
    @example(a=np.zeros((0, 3)))
    @example(a=np.zeros((3, 0)))
    @example(a=np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -3.0], [-0.0, 0.0, np.inf]]))
    @example(a=np.array([[0.0, -np.inf, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    def test_banded_matrix_bytes_equal_its_list(self, a):
        # all-zero rows, bands that touch the first or last column, one-column
        # and empty shapes, at the top level and nested one level deeper
        assert _json_text(a) == json.dumps(_listed(a), indent=2)
        assert _json_text({"x": [a, 0.5]}) == json.dumps({"x": [_listed(a), 0.5]}, indent=2)
        for row in a:
            assert _json_text(row) == json.dumps(_listed(row), indent=2)

    @settings(max_examples=100, deadline=None)
    @given(a=_FLOAT_ARRAYS, b=_FLOAT_ARRAYS, ints=hnp.arrays(np.int64, hnp.array_shapes(min_dims=0)),
           single=hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_side=3)))
    def test_arrays_in_dicts_are_written_as_their_lists(self, a, b, ints, single):
        obj = {"a": a, "nested": {"b": [b, 1.5, a]}, "ints": ints, "single": single}
        listed = {"a": a.tolist(), "nested": {"b": [b.tolist(), 1.5, a.tolist()]},
                  "ints": ints.tolist(), "single": single.tolist()}
        assert _json_text(obj) == _json_text(listed)

    def test_gpswf_basis_artifact_equals_its_list_encoding(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        args = ["basis", "--family", "gpswf", "--alpha", "0.5", "--c", "16", "--n", "64",
                "--output", str(out)]
        assert main(args) == 0
        cfg = config_from_args(build_parser().parse_args(args))
        es = solve(ProlateSpec(family="gpswf", alpha=0.5, c=16.0, N=64))
        results = dict(es.to_dict(), chi=es.chi.tolist(), coeffs=es.coeffs.tolist())
        expected = _json_text({"config": asdict(cfg), "results": results, "checks": []}) + "\n"
        text = out.read_text()
        assert text == expected
        # at c = 16 some columns are flipped; 0.0 - v leaves their zeros at +0.0
        assert not any(line.strip() in ("-0.0", "-0.0,") for line in text.splitlines())

    def test_stdout_and_file_artifacts_differ_only_in_config_output(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        args = ["basis", "--family", "gpswf", "--c", "4", "--n", "512"]
        code, text, _ = run_cli(args, capsys)
        assert code == 0
        assert main(args + ["--output", str(out)]) == 0
        written = out.read_text()
        assert written != text
        assert written == text.replace('"output": null', '"output": ' + json.dumps(str(out)), 1)
        assert json.loads(written)["config"]["output"] == str(out)
        assert json.loads(text)["config"]["output"] is None
        # a replaced stdout with no bytes layer gets the same text
        replaced = io.StringIO()
        with contextlib.redirect_stdout(replaced):
            assert main(args) == 0
        assert replaced.getvalue() == text

    def test_basis_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # divide-and-conquer merges call dgemm, which OpenBLAS may split over threads
        src = os.path.dirname(os.path.dirname(prolatesum.__file__))
        out, outputs = tmp_path / "basis.json", []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-m", "prolatesum.cli", "basis", "--family", "gpswf",
                                  "--c", "4", "--n", "2048", "--output", str(out)],
                                 env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_csv_comment_lines_are_strict_json(self, tmp_path, capsys):
        csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        args = ["sweep", "--n", "64", "--p", "inf", "--quad-size", "64"]
        assert main(args + ["--format", "csv", "--output", str(csv_out)]) == 0
        assert main(args + ["--output", str(json_out)]) == 0
        line = csv_out.read_text().split("\n")[0].removeprefix("# config: ")
        config = json.loads(line, parse_constant=_reject_constant)
        expected = json.loads(json_out.read_text(), parse_constant=_reject_constant)["config"]
        assert config["p"] is None
        assert config == dict(expected, fmt="csv", output=str(csv_out))

    def test_verify_csv_lines_agree_with_the_json_artifact(self, tmp_path, capsys):
        csv_out, json_out = tmp_path / "verify.csv", tmp_path / "verify.json"
        args = ["verify", "--family", "cpswf", "--alpha", "1.5", "--n", "32", "--quad-size", "64"]
        assert main(args + ["--format", "csv", "--output", str(csv_out)]) == 0
        assert main(args + ["--output", str(json_out)]) == 0
        _, results, checks, end = csv_out.read_text().split("\n")
        loads = lambda text: json.loads(text, parse_constant=_reject_constant)  # noqa: E731
        expected = loads(json_out.read_text())
        assert end == ""
        assert loads(results) == expected["results"]
        assert loads(checks.removeprefix("# checks: ")) == expected["checks"]

    def test_finite_csv_config_line_is_the_stdlib_line(self, tmp_path, capsys):
        out = tmp_path / "basis.csv"
        args = ["basis", "--n", "16", "--c", "0.1", "--format", "csv", "--output", str(out)]
        assert main(args) == 0
        cfg = config_from_args(build_parser().parse_args(args))
        line = out.read_text().split("\n")[0]
        assert line == "# config: " + json.dumps(asdict(cfg), sort_keys=True)

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            _json_text({1: 2.0})

    def test_sweep_artifact_is_strict_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--n", "64", "--r-count", "4", "--output", str(out)]) == 0
        res = json.loads(out.read_text(), parse_constant=_reject_constant)["results"]
        assert res["slope_so_far"][0] is None
        assert all(isinstance(v, float) for v in res["slope_so_far"][1:])

    @pytest.mark.parametrize("args", [
        ["basis", "--family", "cpswf", "--alpha", "1.5", "--c", "4", "--n", "32"],
        ["kernel", "--n", "32", "--grid-points", "5"],
        ["verify", "--n", "64", "--quad-size", "128"],
        ["sweep", "--n", "64", "--r-count", "4", "--p", "1.5"],
    ])
    def test_artifact_layout_is_the_stdlib_layout(self, args, tmp_path, capsys):
        out = tmp_path / "artifact.json"
        assert main(args + ["--output", str(out)]) == 0
        text = out.read_text()
        data = json.loads(text, parse_constant=_reject_constant)
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
