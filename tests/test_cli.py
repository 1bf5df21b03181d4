"""Command line behavior: formats, exit codes, and the verify driver."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gregory import IntegrandEvaluationError, cli
from gregory.properties import CmReport, DegreeBracket, DeterminantVariant


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
        assert len(json_lines) == len(cli._SUITES)
        seen = set()
        for line in json_lines:
            payload = json.loads(line)
            seen.add(payload["suite"])
            if payload["suite"] == "minimality":
                assert payload["passed"] is False
                assert payload["first_violation"] is None
            else:
                assert payload["passed"] is True
        assert seen == set(cli._SUITES)
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
        def broken(n_max, tol, table):
            return CmReport("degree", False, (1, 1), (0, 0, "-1/1"))

        monkeypatch.setitem(cli._SUITES, "degree", cli._SUITES["degree"][:2] + (broken,))
        code, out, _ = run_cli(["verify", "--suite", "degree"], capsys)
        assert code == 1
        payload = json.loads(out.strip())
        assert payload["first_violation"] == {"k": 0, "n": 0, "value": "-1/1"}

    def test_synthetic_minimality_violation_still_passes(self, capsys,
                                                          monkeypatch):
        """A minimality run that does find a violation is a success."""
        def witnessed(n_max, tol, table):
            return CmReport("minimality", True, (30, 30), (1, 0, "-1/12"))

        monkeypatch.setitem(cli._SUITES, "minimality",
                            cli._SUITES["minimality"][:2] + (witnessed,))
        code, out, _ = run_cli(["verify", "--suite", "minimality"], capsys)
        assert code == 0
        assert "inconclusive" not in out

    def test_rejects_bad_tolerance(self, capsys):
        code, _, err = run_cli(["verify", "--tol", "-1"], capsys)
        assert code == 2
        assert "tol" in err


BIG = 2.0 ** 60    # BIG - e rounds to BIG for |e| < 64: an exact evidence value
BIG_STR = "1152921504606846976/1"


def _when(match, bad):
    # a fake for a cli-level function: bad(real, *args) where match(*args),
    # the real call elsewhere
    def install(real):
        def fake(*args, **kwargs):
            if match(*args, **kwargs):
                return bad(real, *args, **kwargs)
            return real(*args, **kwargs)
        return fake
    return install


def _off(real, *args, **kwargs):
    # the real quadrature result with its value replaced by BIG
    return dataclasses.replace(real(*args, **kwargs), value=BIG)


def _const(value):
    return lambda real, *args, **kwargs: value


def _failing(suite, violation):
    return _const(CmReport(suite, False, (2, 8), violation))


# (suite, horizon, cli attribute, fake, expected first_violation (k, n, value))
_STAGE_CASES = [
    ("hankel", [30, 3], "hankel_determinant",
     _when(lambda table, idx, variant: idx == (0, 1, 2),
           lambda real, *args: real(*args) + 1),
     (0, 2, "1/1")),
    ("hankel", [30, 3], "hankel_determinant",
     _when(lambda table, idx, variant: idx == (1,) and variant is DeterminantVariant.SIGNED,
           lambda real, *args: real(*args) - 1),
     (1, 1, "1/1")),
    ("hankel", [30, 3], "hankel_determinant",
     _when(lambda table, idx, variant: idx == (2,), _const(Fraction(-1))),
     (2, 2, "-1/1")),
    ("hankel", [30, 3], "check_shifted_kernel_determinants",
     _when(lambda x, tol: x == 1.0, _failing("kernel-determinants", (1, 4, "-1/3"))),
     (3, 1, "-1/3")),
    ("majorization", [3, 6], "check_majorization_inequality",
     _when(lambda table, lam, mu: (lam, mu) == ((1, 1), (0, 2)),
           _failing("majorization", (0, 0, "-1/5"))),
     (14, 9, "-1/5")),
    ("integrals", [20, 12], "bernoulli2_integral",
     _when(lambda n, tol: n == 5, _off), (0, 5, BIG_STR)),
    ("integrals", [20, 12], "stieltjes_recip_log",
     _when(lambda x, tol: x == 2.0, _off), (1, 3, BIG_STR)),
    ("integrals", [20, 12], "genfun_integral",
     _when(lambda x, tol: x == 10.0, _off), (2, 4, BIG_STR)),
    ("integrals", [20, 12], "genfun_derivative_integral",
     _when(lambda x, k, tol: k == 3, _off), (3, 3, BIG_STR)),
    ("integrals", [20, 12], "stieltjes_weight_unit",
     _when(lambda s: s == 0.75, _const(BIG)), (4, 1, "-" + BIG_STR)),
    ("integrals", [20, 12], "moment_integral",
     _when(lambda n, tol: n == 4, _off), (5, 2, BIG_STR)),
    ("integrals", [20, 12], "shifted_kernel_integral",
     _when(lambda p, x, tol: (p, x) == (2, 0.0), _off), (6, 0, BIG_STR)),
    ("integrals", [20, 12], "shifted_kernel_integral",
     _when(lambda p, x, tol: (p, x) == (1, 1000.0), _off), (6, 1, BIG_STR)),
    ("integrals", [20, 12], "shifted_kernel_integral",
     _when(lambda p, x, tol: (p, x) == (3, 1.0), _off), (6, 2, BIG_STR)),
    ("bernstein", [2, 7], "bernstein_identity",
     _when(lambda x, tol: x == 1.0, _off), (1, 1, BIG_STR)),
    ("bernstein", [2, 7], "bernstein_identity",
     _when(lambda x, tol: x == 1e-8, _off), (2, 0, BIG_STR)),
    ("bernstein", [2, 7], "genfun_derivative_integral",
     _when(lambda x, k, tol: (x, tol) == (4.0, 1e-10), _off), (3, 2, BIG_STR)),
    ("degree", [4, 8], "estimate_cm_degree",
     _when(lambda f, r_grid, x_grid: r_grid[0] == -1.0, _const(DegreeBracket(-0.5, 0.0))),
     (0, 0, "bracket (-0.5, 0.0)")),
    ("degree", [4, 8], "estimate_cm_degree",
     _when(lambda f, r_grid, x_grid: r_grid[0] == 0.0, _const(DegreeBracket(None, 0.5))),
     (1, 0, "bracket (None, 0.5)")),
    ("degree", [4, 8], "cm_grid_test",
     _when(lambda f, grid, **kw: grid == (1.0,), _const(CmReport("cm-grid", True, (0, 2), None))),
     (2, 0, "ln(1+x) screen did not fail at k=1")),
    ("degree", [4, 8], "cm_grid_test",
     _when(lambda f, grid, **kw: grid == (0.1, 1.0, 5.0), _failing("cm-grid", (5, 2, "-1/9"))),
     (3, 0, "-1/9")),
    ("degree", [4, 8], "cm_grid_test",
     _when(lambda f, grid, **kw: grid == (0.5, 1.0, 2.0), _failing("cm-grid", (5, 2, "-1/9"))),
     (4, 0, "-1/9")),
]


def _report_line(suite, horizon, violation):
    k, n, value = violation
    return json.dumps({"suite": suite, "passed": False, "horizon": horizon,
                       "first_violation": {"k": k, "n": n, "value": value}}) + "\n"


class TestVerifyStageEvidence:
    """Each stage of each aggregate suite, made to fail in turn, reports
    (k = stage, n = index within it, value) under the suite's horizon."""

    @pytest.mark.parametrize("suite, horizon, attr, fake, violation", _STAGE_CASES,
                             ids=[f"{c[0]}-{c[4][0]}-{c[4][1]}" for c in _STAGE_CASES])
    def test_stage_violation(self, suite, horizon, attr, fake, violation,
                             capsys, monkeypatch):
        monkeypatch.setattr(cli, attr, fake(getattr(cli, attr)))
        code, out, err = run_cli(["verify", "--suite", suite], capsys)
        assert (code, out, err) == (1, _report_line(suite, horizon, violation), "")

    def test_bernstein_grid_screen_is_passed_on_verbatim(self, capsys, monkeypatch):
        """A failing grid screen (here on -f') is the suite's report as it stands."""
        real, screens = cli.check_bernstein, []

        def negated(f, f_prime, grid, **kwargs):
            screens.append(real(f, lambda x: -f_prime(x), grid, **kwargs))
            return screens[-1]

        monkeypatch.setattr(cli, "check_bernstein", negated)
        code, out, err = run_cli(["verify", "--suite", "bernstein"], capsys)
        assert screens[0].first_violation[:2] == (1, 0)
        assert (code, out, err) == (1, json.dumps(screens[0].to_json_dict()) + "\n", "")

    def test_first_violation_stops_the_suite(self, capsys, monkeypatch):
        """No stage after the first violation runs, nor the rest of its own."""
        def later(*args, **kwargs):
            raise AssertionError("ran after the first violation")

        real = cli.bernoulli2_integral

        def first_fails(n, tol):
            if n > 1:
                later()
            return dataclasses.replace(real(n, tol), value=BIG)

        monkeypatch.setattr(cli, "bernoulli2_integral", first_fails)
        for attr in ("stieltjes_recip_log", "genfun_integral", "genfun_derivative_integral",
                     "stieltjes_weight_unit", "moment_integral", "shifted_kernel_integral"):
            monkeypatch.setattr(cli, attr, later)
        code, out, err = run_cli(["verify", "--suite", "integrals"], capsys)
        assert (code, out, err) == (1, _report_line("integrals", [20, 12], (0, 1, BIG_STR)), "")

    def test_integrand_error_aborts_the_suite(self, capsys, monkeypatch):
        def raising(x, tol):
            raise IntegrandEvaluationError(x, math.inf)

        monkeypatch.setattr(cli, "genfun_integral", raising)
        code, out, err = run_cli(["verify", "--suite", "integrals"], capsys)
        assert (code, out) == (1, "")
        assert err == "suite integrals aborted: integrand evaluated to inf at s=0.1\n"


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


class TestInputBoundary:
    """Inputs that pass argument parsing must not end in a traceback."""

    @pytest.mark.parametrize("argv, expected", [
        # the kernel power (1 + x s)^(k+1) overflows a double
        (["eval", "--function", "derivative", "--x", "1e150", "--k", "2"], 0),
        *((["eval", "--function", "derivative", "--x", "1e300", "--k", str(k)], 0)
          for k in range(1, 21)),
        # the inner tolerance tol/x or tol/k! underflows to zero
        (["eval", "--function", "genfun", "--x", "1e300", "--tol", "1e-30"], 0),
        (["eval", "--function", "derivative", "--x", "1", "--k", "30",
          "--tol", "1e-320"], 0),
        (["verify", "--suite", "integrals", "--n-max", "20", "--tol", "5e-324"], 0),
        # k! overflows a double
        (["eval", "--function", "derivative", "--x", "0", "--k", "200"], 2),
        # the finite-difference step underflows
        (["eval", "--function", "derivative", "--x", "1e-100", "--k", "4"], 0),
        (["eval", "--function", "derivative", "--x", "5e-324", "--k", "3"], 0),
        # f(s) * jac overflows in the generic integrate_01 path
        (["eval", "--function", "bernstein-identity", "--x", "1e308"], 1),
    ])
    def test_regression(self, argv, expected, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == expected
        assert "Traceback" not in err

    def test_order_above_170_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["eval", "--function", "derivative", "--x", "0", "--k", "171"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --k must be <= 170\n"

    @pytest.mark.parametrize("x, k, exact", [
        ("1e-100", 4, Fraction(-19, 30)),
        ("5e-324", 3, Fraction(1, 4)),
        ("5e-324", 1, Fraction(1, 2)),
    ])
    def test_underflowing_stencil_uses_exact_reference(self, x, k, exact, capsys):
        """f^(k)(x) equals k! b_k to double precision where the step underflows."""
        code, out, _ = run_cli(
            ["eval", "--function", "derivative", "--x", x, "--k", str(k)], capsys)
        assert code == 0
        assert f"reference      = {float(exact)!r}" in out.splitlines()

    @pytest.mark.parametrize("x, k", [("1e150", 1), ("1e300", 2), ("1e20", 4)])
    def test_collapsed_stencil_has_no_reference(self, x, k, capsys):
        """At huge x the stencil's abscissas round to one double, so there is
        no numeric reference; k! b_k is only right for tiny x, so n/a."""
        code, out, _ = run_cli(
            ["eval", "--function", "derivative", "--x", x, "--k", str(k)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert "reference      = n/a" in lines
        assert "deviation      = n/a" in lines


_NUMBER = st.one_of(
    st.sampled_from(["0", "-0.0", "5e-324", "1e-320", "2.2250738585072014e-308",
                     "1e-300", "1e-100", "1e-30", "1e-10", "0.5", "1", "2", "1e6",
                     "1e150", "1e300", "1e307", "1.7976931348623157e308", "-1",
                     "inf", "nan", "1e999"]),
    st.floats().map(repr))

_ARGV = st.one_of(
    st.builds(lambda n, method, tol, fmt: ["compute", "--n-max", str(n), "--method",
                                           method, "--tol", tol, "--format", fmt],
              st.integers(-2, 40),
              st.sampled_from(["series", "explicit", "integral", "all"]),
              _NUMBER, st.sampled_from(["csv", "json", "table"])),
    st.builds(lambda suite, n, tol: ["verify", "--suite", suite, "--n-max", str(n),
                                     "--tol", tol],
              st.sampled_from(["cm-sequence", "minimality", "hankel", "majorization",
                               "log-convexity", "integrals", "bernstein", "degree",
                               "all"]),
              st.integers(-1, 40), _NUMBER),
    st.builds(lambda function, x, k, tol: ["eval", "--function", function, "--x", x,
                                           "--k", str(k), "--tol", tol],
              st.sampled_from(["genfun", "recip-log", "derivative",
                               "bernstein-identity"]),
              _NUMBER, st.integers(-3, 400), _NUMBER))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_ARGV)
def test_fuzz_exit_code_without_traceback(argv):
    """Any argv over the three commands exits 0, 1 or 2 and raises nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)


class TestModuleEntry:
    def test_python_dash_m(self):
        """The package runs as a module and emits the same CSV."""
        proc = subprocess.run(
            [sys.executable, "-m", "gregory", "compute", "--n-max", "2",
             "--method", "series", "--format", "csv"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "2,-1/12,,series," in proc.stdout
