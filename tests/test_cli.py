import json

import pytest

from prolatesum.cli import main


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
        args = ["basis", "--n", "32", "--c", "2.5", "--seed", "7", "--output", str(out)]
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
        code, _, err = run_cli(["verify", "--n", "4"], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "have 2" in err

    def test_verify_deterministic(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        args = ["verify", "--n", "64", "--seed", "3", "--output", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        capsys.readouterr()
        assert out.read_bytes() == first


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

    @pytest.mark.parametrize("n,retained", [("10", 5), ("8", 4), ("4", 2)])
    def test_default_grid_too_few_modes_exit_1(self, n, retained, capsys):
        code, _, err = run_cli(["sweep", "--n", n], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert f"have {retained}" in err

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


class TestErrors:
    def test_usage_error_exit_1(self, capsys):
        assert main(["sweep", "--n", "not-a-number"]) == 1

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
