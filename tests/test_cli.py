"""Command line behavior: formats, exit codes, and the verify driver."""

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from gregory import cli
from gregory.properties import CmReport


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommand:
    def test_series_csv(self, capsys):
        """CSV output carries exact fractions and leaves numeric cells empty."""
        code, out, err = run_cli(
            ["compute", "--n-max", "5", "--method", "series", "--format", "csv"],
            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,exact,numeric,method,error_estimate"
        assert lines[-1] == "5,3/160,,series,"
        assert len(lines) == 7
        assert err == ""

    def test_integral_json(self, capsys):
        """JSON output is one top-level array; b_3 comes out near 1/24."""
        code, out, err = run_cli(
            ["compute", "--n-max", "3", "--method", "integral",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list)
        assert [rec["n"] for rec in payload] == [1, 2, 3]
        last = payload[-1]
        assert last["method"] == "integral"
        assert last["exact"] is None
        assert abs(last["numeric"] - 1.0 / 24.0) < 1e-9
        assert last["error_estimate"] <= 1e-10

    def test_csv_and_json_agree(self, capsys):
        """The two machine formats serialize the same records."""
        code, csv_out, _ = run_cli(
            ["compute", "--n-max", "6", "--method", "all", "--format", "csv"],
            capsys)
        assert code == 0
        code, json_out, _ = run_cli(
            ["compute", "--n-max", "6", "--method", "all", "--format", "json"],
            capsys)
        assert code == 0

        rows = list(csv.DictReader(io.StringIO(csv_out)))
        payload = json.loads(json_out)
        assert len(rows) == len(payload)
        for row, rec in zip(rows, payload):
            assert int(row["n"]) == rec["n"]
            assert row["method"] == rec["method"]
            assert (row["exact"] or None) == rec["exact"]
            if rec["numeric"] is None:
                assert row["numeric"] == ""
            else:
                assert float(row["numeric"]) == rec["numeric"]

    def test_n_max_zero_all(self, capsys):
        """Only the constant term exists; the integral column shows n/a."""
        code, out, err = run_cli(
            ["compute", "--n-max", "0", "--method", "all"], capsys)
        assert code == 0
        assert "1/1" in out
        assert "n/a" in out
        assert "max cross-method deviation: 0.000e+00" in out

    def test_cross_method_deviation_stays_small(self, capsys):
        """Exact and quadrature columns agree to 1e-9 out to n = 20."""
        code, out, err = run_cli(
            ["compute", "--n-max", "20", "--method", "all", "--format", "csv"],
            capsys)
        assert code == 0
        prefix = "max cross-method deviation: "
        footer = [l for l in err.splitlines() if l.startswith(prefix)]
        assert len(footer) == 1
        assert float(footer[0][len(prefix):]) <= 1e-9

    def test_records_are_ordered(self, capsys):
        """Rows sort by n, then series before explicit before integral."""
        code, out, _ = run_cli(
            ["compute", "--n-max", "2", "--method", "all", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        keys = [(rec["n"], rec["method"]) for rec in payload]
        assert keys == [(0, "series"), (0, "explicit"),
                        (1, "series"), (1, "explicit"), (1, "integral"),
                        (2, "series"), (2, "explicit"), (2, "integral")]

    def test_rejects_negative_n_max(self, capsys):
        code, out, err = run_cli(
            ["compute", "--n-max", "-1", "--method", "series"], capsys)
        assert code == 2
        assert "error:" in err

    def test_rejects_bad_tolerance_for_integral(self, capsys):
        code, _, err = run_cli(
            ["compute", "--n-max", "3", "--method", "integral", "--tol", "0"],
            capsys)
        assert code == 2
        assert "tol" in err

    def test_exact_methods_ignore_tolerance(self, capsys):
        """A zero tolerance only matters when quadrature actually runs."""
        code, out, _ = run_cli(
            ["compute", "--n-max", "2", "--method", "series", "--tol", "0",
             "--format", "csv"], capsys)
        assert code == 0
        assert "2,-1/12,,series," in out


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        """The default run emits one JSON line per suite and exits 0."""
        code, out, err = run_cli(["verify"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        json_lines = [l for l in lines if l.startswith("{")]
        assert len(json_lines) == len(cli._SUITE_RUNNERS)
        seen = set()
        for line in json_lines:
            payload = json.loads(line)
            seen.add(payload["suite"])
            if payload["suite"] == "minimality":
                assert payload["passed"] is False
                assert payload["first_violation"] is None
            else:
                assert payload["passed"] is True
        assert seen == set(cli._SUITE_RUNNERS)
        assert any("inconclusive" in l for l in lines)

    def test_hankel_suite(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "hankel", "--n-max", "12"], capsys)
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["suite"] == "hankel"
        assert payload["passed"] is True

    def test_minimality_is_inconclusive_not_failing(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "minimality"], capsys)
        assert code == 0
        assert "inconclusive" in out

    def test_undersized_horizon_is_usage_error(self, capsys):
        """log-convexity needs four coefficients, so n_max 2 cannot run."""
        code, _, err = run_cli(
            ["verify", "--suite", "log-convexity", "--n-max", "2"], capsys)
        assert code == 2
        assert "n-max" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        code = cli.main(["verify", "--suite", "does-not-exist"])
        capsys.readouterr()
        assert code == 2

    def test_failing_suite_sets_exit_code(self, capsys, monkeypatch):
        """Any red suite other than minimality must drive exit status 1."""
        def broken(n_max, tol):
            return CmReport("degree", False, (1, 1), (0, 0, "-1/1"))

        monkeypatch.setitem(cli._SUITE_RUNNERS, "degree", broken)
        code, out, _ = run_cli(["verify", "--suite", "degree"], capsys)
        assert code == 1
        payload = json.loads(out.strip())
        assert payload["first_violation"] == {"k": 0, "n": 0, "value": "-1/1"}

    def test_synthetic_minimality_violation_still_passes(self, capsys,
                                                          monkeypatch):
        """A minimality run that does find a violation is a success."""
        def witnessed(n_max, tol):
            return CmReport("minimality", True, (30, 30), (1, 0, "-1/12"))

        monkeypatch.setitem(cli._SUITE_RUNNERS, "minimality", witnessed)
        code, out, _ = run_cli(["verify", "--suite", "minimality"], capsys)
        assert code == 0
        assert "inconclusive" not in out

    def test_rejects_bad_tolerance(self, capsys):
        code, _, err = run_cli(["verify", "--tol", "-1"], capsys)
        assert code == 2
        assert "tol" in err


class TestEvalCommand:
    def test_genfun_at_one(self, capsys):
        """x/ln(1+x) at x = 1 is 1/ln 2 = 1.4426950409..."""
        code, out, err = run_cli(
            ["eval", "--function", "genfun", "--x", "1", "--tol", "1e-8"],
            capsys)
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        fields = {k.strip(): v.strip() for k, v in fields.items()}
        assert abs(float(fields["value"]) - 1.4426950409) < 1e-8
        assert float(fields["deviation"]) < 1e-8
        assert fields["converged"] == "True"
        assert err == ""

    def test_derivative_at_origin(self, capsys):
        """The third derivative of x/ln(1+x) at 0 is 3! b_3 = 1/4."""
        code, out, _ = run_cli(
            ["eval", "--function", "derivative", "--x", "0", "--k", "3",
             "--tol", "1e-9"], capsys)
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        fields = {k.strip(): v.strip() for k, v in fields.items()}
        assert abs(float(fields["value"]) - 0.25) < 1e-9
        assert fields["reference"] == "0.25"

    def test_derivative_deep_order_has_no_reference(self, capsys):
        """Past k = 4 at interior points no finite-difference check is shown."""
        code, out, _ = run_cli(
            ["eval", "--function", "derivative", "--x", "1", "--k", "6"],
            capsys)
        assert code == 0
        assert "reference      = n/a" in out
        assert "deviation      = n/a" in out

    def test_bernstein_identity(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--function", "bernstein-identity", "--x", "1"], capsys)
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        fields = {k.strip(): v.strip() for k, v in fields.items()}
        assert abs(float(fields["value"]) - 1.4426950408889634) < 1e-10

    def test_recip_log_rejects_nonpositive_x(self, capsys):
        code, _, err = run_cli(
            ["eval", "--function", "recip-log", "--x", "-1"], capsys)
        assert code == 2
        assert "error:" in err

    def test_derivative_rejects_zero_order(self, capsys):
        code, _, err = run_cli(
            ["eval", "--function", "derivative", "--x", "1", "--k", "0"],
            capsys)
        assert code == 2
        assert "--k" in err

    def test_unknown_function_is_usage_error(self, capsys):
        code = cli.main(["eval", "--function", "nope", "--x", "1"])
        capsys.readouterr()
        assert code == 2


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv", [
        ["compute", "--method", "integral", "--n-max", "2", "--tol", "inf"],
        ["compute", "--method", "all", "--n-max", "2", "--tol", "nan"],
        ["compute", "--method", "series", "--n-max", "2", "--tol", "nan"],
        ["verify", "--suite", "cm-sequence", "--tol", "nan"],
        ["verify", "--suite", "cm-sequence", "--tol", "inf"],
        ["eval", "--function", "genfun", "--x", "inf"],
        ["eval", "--function", "recip-log", "--x", "nan"],
        ["eval", "--function", "derivative", "--x", "nan"],
        ["eval", "--function", "genfun", "--x", "1e999"],
        ["eval", "--function", "genfun", "--x", "1", "--tol", "nan"],
        ["eval", "--function", "genfun", "--x", "1", "--tol=-inf"],
    ])
    def test_rejected_as_usage_error(self, argv, capsys):
        """inf and nan in --tol or --x exit 2 with an error line, no traceback."""
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err
        assert "Traceback" not in err


class TestModuleEntry:
    def test_python_dash_m(self):
        """The package runs as a module and emits the same CSV."""
        proc = subprocess.run(
            [sys.executable, "-m", "gregory", "compute", "--n-max", "2",
             "--method", "series", "--format", "csv"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "2,-1/12,,series," in proc.stdout
