"""Command line behavior: formats, exit codes, and the verify driver."""

import contextlib
import csv
import dataclasses
import functools
import importlib.util
import io
import json
import math
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gregory import (GregoryTable, IntegrandEvaluationError, TableMethod, bernoulli2_series,
                     cli)
from gregory.exact import format_rational
from gregory.properties import (CmReport, DegreeBracket, _integer_determinant, _report,
                                check_majorization_inequality, closed_derivative,
                                hankel_positive_definite, is_majorized)


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

    def test_all_table_formats_each_exact_value_once(self, capsys, monkeypatch):
        """--method all --format table reads the exact strings from the rows
        that csv and json write: one format_rational per series and
        explicit value."""
        formatted = []
        real = cli.format_rational

        def counting(value):
            formatted.append(value)
            return real(value)

        monkeypatch.setattr(cli, "format_rational", counting)
        code, _, _ = run_cli(["compute", "--n-max", "9", "--method", "all"], capsys)
        assert code == 0
        assert len(formatted) == 2 * 10

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


_SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                   math.nan, math.inf, -math.inf)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
_EXACT_ROWS = st.tuples(
    st.integers(0, 10**4),
    st.builds("{}/{}".format, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
    st.none(), st.sampled_from(["series", "explicit"]), st.none())
_INTEGRAL_ROWS = st.tuples(st.integers(1, 10**4), st.none(), _FLOATS, st.just("integral"),
                           st.one_of(st.none(), _FLOATS))


def _dicts(rows):
    return [dict(zip(cli._RECORD_FIELDS, row)) for row in rows]


class TestRecordWriters:
    """The compute emitters write what json.dumps and csv.DictWriter write
    for the same records, as dicts."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.one_of(_EXACT_ROWS, _INTEGRAL_ROWS), max_size=8))
    @example(rows=[])
    @example(rows=[(0, "-1/12", None, "series", None)])
    @example(rows=[(n, None, x, "integral", e) for n, (x, e) in enumerate(
        zip(_SPECIAL_FLOATS, reversed(_SPECIAL_FLOATS)), 1)])
    def test_json_and_csv(self, rows):
        out = io.StringIO()
        cli._write_json(rows, out)
        assert out.getvalue() == json.dumps(_dicts(rows), indent=2) + "\n"

        out, want = io.StringIO(), io.StringIO()
        cli._write_csv(rows, out)
        writer = csv.DictWriter(want, cli._RECORD_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_dicts(rows))
        assert out.getvalue() == want.getvalue()

    @pytest.mark.parametrize("method, lines", [("series", 11), ("integral", 10), ("all", 11)])
    def test_table_is_one_write(self, method, lines, monkeypatch):
        """The header and every row reach stdout in one write; only the
        footer of --method all follows."""
        writes = []

        class Recording(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Recording())
        assert cli.main(["compute", "--n-max", "9", "--method", method]) == 0
        assert writes[0].count("\n") == lines
        rest = "".join(writes[1:])
        assert rest.startswith("max cross-method deviation: ") if method == "all" else rest == ""


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

    def test_bernstein_identity_stage_runs_at_its_own_tol(self, capsys, monkeypatch):
        """Stage 1 checks a residual of 1e-10, so it computes the identity at
        1e-11 whatever --tol is; stage 2 keeps --tol."""
        tols = []
        real = cli.bernstein_identity

        def recording(x, tol):
            tols.append(tol)
            return real(x, tol)

        monkeypatch.setattr(cli, "bernstein_identity", recording)
        code, out, _ = run_cli(["verify", "--suite", "bernstein", "--tol", "1e-6"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert tols == [1e-11, 1e-11, 1e-11, 1e-6]

    def test_integrals_table_reaches_b12(self, capsys, monkeypatch):
        """The integrals suite reads at most b_12 (stage 3, k <= 12) below
        --n-max 12, so the run builds its exact table through b_12."""
        built = []
        real = cli.bernoulli2_series

        def recording(n_max):
            built.append(n_max)
            return real(n_max)

        monkeypatch.setattr(cli, "bernoulli2_series", recording)
        code, out, _ = run_cli(["verify", "--suite", "integrals", "--n-max", "5"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert built == [12]

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


def _off_at(n):
    # a fake for the coefficient sweep: the real results with b_n's value
    # replaced by BIG
    def install(real):
        def fake(*args, **kwargs):
            results = real(*args, **kwargs)
            results[n - 1] = dataclasses.replace(results[n - 1], value=BIG)
            return results
        return fake
    return install


def _failing(suite, violation):
    return _const(CmReport(suite, False, (2, 8), violation))


# (suite, horizon, cli attribute, fake, expected first_violation (k, n, value))
_STAGE_CASES = [
    ("hankel", [30, 3], "hankel_determinant",
     _when(lambda table, idx: idx == (0, 1, 2),
           lambda real, *args: real(*args) + 1),
     (0, 2, "1/1")),
    ("hankel", [30, 3], "hankel_determinant",
     _when(lambda table, idx: idx == (2,), _const(Fraction(-1))),
     (1, 2, "-1/1")),
    ("hankel", [30, 3], "check_shifted_kernel_determinants",
     _when(lambda x, tol: x == 1.0, _failing("kernel-determinants", (0, 4, "-1/3"))),
     (2, 1, "-1/3")),
    ("majorization", [3, 6], "check_majorization_inequality",
     _when(lambda table, lam, mu: (lam, mu) == ((1, 1), (2,)),
           _failing("majorization", (0, 0, "-1/5"))),
     (14, 2, "-1/5")),
    ("integrals", [20, 12], "bernoulli2_integrals", _off_at(5), (0, 5, BIG_STR)),
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
        if attr == "hankel_determinant":
            # the exact table's matrix is positive definite, which skips the
            # sweep; a faked sweep determinant is read only when it is not
            monkeypatch.setattr(cli, "hankel_positive_definite", lambda table, size: False)
        code, out, err = run_cli(["verify", "--suite", suite], capsys)
        assert (code, out, err) == (1, _report_line(suite, horizon, violation), "")

    def test_bernstein_grid_screen_is_stage_zero(self, capsys, monkeypatch):
        """A failing grid screen (here on -f', at order 1 and grid point 0)
        reports stage 0 with n = 3 * order + point, its own evidence."""
        real, screens = cli.check_bernstein, []

        def negated(f, f_prime, grid, **kwargs):
            screens.append(real(f, lambda x: -f_prime(x), grid, **kwargs))
            return screens[-1]

        monkeypatch.setattr(cli, "check_bernstein", negated)
        code, out, err = run_cli(["verify", "--suite", "bernstein"], capsys)
        order, point, value = screens[0].first_violation
        assert (order, point) == (1, 0)
        assert (code, out, err) == (1, _report_line("bernstein", [2, 7], (0, 3, value)), "")

    def test_majorization_decides_on_the_15_unit_transfers(self, capsys, monkeypatch):
        """On the exact table the suite tests and checks only the 15 unit
        transfers (b-1, a+1, 0) < (b, a, 0), 0 <= a and a+2 <= b <= 6, in
        order of b and then a, each padded form passed as its first tuple."""
        first = {}
        for t in _MAJORIZATION_TUPLES:
            first.setdefault(t[::-1] + (0,) * (3 - len(t)), t)
        transfers = [(first[(b - 1, a + 1, 0)], first[(b, a, 0)])
                     for b in range(2, 7) for a in range(b - 1)]
        calls = []
        real_test, real_check = cli.is_majorized, cli.check_majorization_inequality

        def testing(lam, mu):
            calls.append(("test", lam, mu))
            return real_test(lam, mu)

        def checking(table, lam, mu):
            calls.append(("check", lam, mu))
            return real_check(table, lam, mu)

        monkeypatch.setattr(cli, "is_majorized", testing)
        monkeypatch.setattr(cli, "check_majorization_inequality", checking)
        code, out, _ = run_cli(["verify", "--suite", "majorization"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert len(transfers) == 15 and transfers[:2] == [((1, 1), (2,)), ((1, 2), (3,))]
        assert calls == [(kind, lam, mu) for lam, mu in transfers for kind in ("test", "check")]

    def test_majorization_walks_the_equal_sum_pairs_in_order(self, capsys, monkeypatch):
        """Once a unit transfer fails, the walk runs: of the 973 equal-sum
        pairs among the 119 tuples, the 416 whose padded forms differ and
        did not occur at an earlier pair are tested for majorization, and
        the 196 majorizing ones checked, each in canonical (i, j) order.
        Here the first transfer's check fails once, and the walk passes."""
        tuples = [t for m in range(1, 4) for t in combinations_with_replacement(range(7), m)]
        padded = {t: t[::-1] + (0,) * (3 - len(t)) for t in tuples}
        equal_sum = [(lam, mu) for lam in tuples for mu in tuples if sum(lam) == sum(mu)]
        first, seen = [], set()
        for lam, mu in equal_sum:
            forms = padded[lam], padded[mu]
            if forms[0] != forms[1] and forms not in seen:
                seen.add(forms)
                first.append((lam, mu))
        tested, checked = [], []
        real_test, real_check = cli.is_majorized, cli.check_majorization_inequality

        def testing(lam, mu):
            tested.append((lam, mu))
            return real_test(lam, mu)

        def checking(table, lam, mu):
            checked.append((lam, mu))
            if len(checked) == 1:
                return CmReport("majorization", False, (2, 2), (0, 0, "-1/5"))
            return real_check(table, lam, mu)

        monkeypatch.setattr(cli, "is_majorized", testing)
        monkeypatch.setattr(cli, "check_majorization_inequality", checking)
        code, _, _ = run_cli(["verify", "--suite", "majorization"], capsys)
        assert code == 0
        assert len(equal_sum) == 973
        assert tested[0] == checked[0] == ((1, 1), (2,))
        assert len(tested) == 1 + 416 and tested[1:] == first
        assert len(checked) == 1 + 196 and checked[1:] == [p for p in first if real_test(*p)]

    def test_hankel_sweep_skipped_on_a_positive_definite_matrix(self, capsys, monkeypatch):
        """The exact table's 6 x 6 factorial-moment matrix is positive
        definite, so the suite takes only its 3 golden determinants."""
        real, calls = cli.hankel_determinant, []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "hankel_determinant", counting)
        code, _, _ = run_cli(["verify", "--suite", "hankel", "--n-max", "30"], capsys)
        assert code == 0
        assert calls == [(0,), (0, 1), (0, 1, 2)]

    def test_hankel_takes_one_determinant_per_matrix(self, monkeypatch):
        """On the rank-one table b_{s+1} = t**s/(2 s!), t = -1/3, whose
        matrix [m_{i+j}] = [t**(i+j)/2] is not positive definite, the sweep
        runs: with the goldens passed through, 3 goldens and the 56 of the
        209 sweep tuples with distinct entries, 59 determinants, none twice;
        the 153 tuples skipped are exactly those with a repeated entry."""
        t = Fraction(-1, 3)
        values = [Fraction(1)] + [t ** s / (2 * math.factorial(s)) for s in range(11)]
        table = GregoryTable(tuple(values), TableMethod.SERIES_RECURRENCE)
        goldens = dict(_HANKEL_GOLDENS)
        real, calls = cli.hankel_determinant, []

        def counting(table, indices):
            calls.append(indices)
            return goldens[indices] if len(calls) <= 3 else real(table, indices)

        monkeypatch.setattr(cli, "hankel_determinant", counting)
        report = cli._SUITES["hankel"][2](11, 1e-10, table)
        sweep = [t for m in range(1, 5) for t in combinations_with_replacement(range(6), m)]
        assert report == _report("hankel", (11, 3), None)
        assert len(calls) == 59
        assert calls[:3] == [(0,), (0, 1), (0, 1, 2)]
        assert calls[3:] == [t for t in sweep if len(set(t)) == len(t)]
        skipped = [t for t in sweep if t not in calls[3:]]
        assert len(skipped) == 153 and all(len(set(t)) < len(t) for t in skipped)

    def test_factorial_moment_row_built_once_per_table(self, capsys, monkeypatch):
        """Hankel, majorization and log-convexity share the run's table and
        build its factorial-moment row once; log-convexity reads a prefix."""
        built = []
        real = GregoryTable.factorial_moments.func

        def counting(table):
            built.append(table)
            return real(table)

        row = functools.cached_property(counting)
        row.__set_name__(GregoryTable, "factorial_moments")
        monkeypatch.setattr(GregoryTable, "factorial_moments", row)
        code, _, _ = run_cli(["verify", "--suite", "all", "--n-max", "30"], capsys)
        assert code == 0
        assert [t.max_index for t in built] == [31]

    def test_first_violation_stops_the_suite(self, capsys, monkeypatch):
        """No stage after the first violation runs, and the report carries
        the first of the stage's violations: every coefficient is off."""
        def later(*args, **kwargs):
            raise AssertionError("ran after the first violation")

        real = cli.bernoulli2_integrals

        def all_fail(n_max, tol):
            return [dataclasses.replace(result, value=BIG) for result in real(n_max, tol)]

        monkeypatch.setattr(cli, "bernoulli2_integrals", all_fail)
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


# The two sweeps as they were before they skipped the checks that hold by
# construction: every one of the 209 Hankel determinants, and every one of
# the 973 equal-sum majorization pairs.  The differential tests below run
# them beside the suites on perturbed tables.
_HANKEL_GOLDENS = [((0,), Fraction(1, 2)), ((0, 1), Fraction(5, 144)),
                   ((0, 1, 2), Fraction(407, 86400))]
_HANKEL_SWEEP = [t for m in range(1, 5) for t in combinations_with_replacement(range(6), m)]
_MAJORIZATION_TUPLES = [t for m in range(1, 4)
                        for t in combinations_with_replacement(range(7), m)]
# the 568 majorizing pairs among the 973 of equal sum, in canonical (i, j) order
_MAJORIZING = [(i, j, lam, mu) for i, lam in enumerate(_MAJORIZATION_TUPLES)
               for j, mu in enumerate(_MAJORIZATION_TUPLES)
               if sum(lam) == sum(mu) and is_majorized(lam, mu)]


def _hankel_full_walk(table, tol):
    for idx, (indices, expected) in enumerate(_HANKEL_GOLDENS):
        got = cli.hankel_determinant(table, indices)
        if got != expected:
            yield 0, idx, format_rational(got - expected)
    for idx, indices in enumerate(_HANKEL_SWEEP):
        det = cli.hankel_determinant(table, indices)
        if det < 0:
            yield 1, idx, format_rational(det)
    for idx, x in enumerate((0.5, 1.0)):
        probe = cli.check_shifted_kernel_determinants(x, tol=tol)
        if not probe.passed:
            yield 2, idx, probe.first_violation[2]


def _majorization_full_walk(table, tol):
    for i, j, lam, mu in _MAJORIZING:
        probe = check_majorization_inequality(table, lam, mu)
        if not probe.passed:
            yield i, j, probe.first_violation[2]


# a scale for one coefficient: 1, or p/q * 10**e for 1 <= p, q <= 20 and |e| <= 30
_SCALE = st.one_of(st.just(Fraction(1)),
                   st.builds(lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
                             st.integers(1, 20), st.integers(1, 20), st.integers(-30, 30)))


def _one_scaled(s, factor):
    # scales for b_2..b_7 that multiply m_s = s! |b_{s+1}| alone by factor
    return [Fraction(1)] * (s - 1) + [Fraction(factor)] + [Fraction(1)] * (6 - s)


def _perturbed_tables(seed, first, last, count):
    """count copies of the exact b_0..b_11, each with 1 to 3 of b_first..b_last
    scaled by a seeded positive rational (the sign pattern stays valid)."""
    rng, exact = random.Random(seed), bernoulli2_series(11)
    for _ in range(count):
        values = list(exact.values)
        for n in rng.sample(range(first, last + 1), rng.randint(1, 3)):
            values[n] *= Fraction(rng.randint(1, 12), rng.randint(1, 12))
        yield GregoryTable(tuple(values), exact.method)


class TestSweepsSkipOnlyChecksThatCannotFail:
    """The Hankel sweep skips the determinants of matrices with two equal
    rows, and the majorization sweep tests each pair of padded forms once;
    on any table the report equals that of the full walk."""

    # b_2..b_7 is what the majorization suite reads; b_6..b_11 leaves the
    # Hankel goldens (b_1..b_5) intact, so that its sweep decides
    @pytest.mark.parametrize("suite, walk, horizon, first, last", [
        ("majorization", _majorization_full_walk, (3, 6), 2, 7),
        ("hankel", _hankel_full_walk, (11, 3), 2, 7),
        ("hankel", _hankel_full_walk, (11, 3), 6, 11),
    ], ids=["majorization-b2-b7", "hankel-b2-b7", "hankel-b6-b11"])
    def test_report_equals_the_full_walk(self, suite, walk, horizon, first, last,
                                         monkeypatch):
        # the stage-2 screens read no table: take each once
        monkeypatch.setattr(cli, "check_shifted_kernel_determinants",
                            functools.cache(cli.check_shifted_kernel_determinants))
        tests = []
        monkeypatch.setattr(cli, "is_majorized",
                            lambda lam, mu: tests.append((lam, mu)) or is_majorized(lam, mu))
        run = cli._SUITES[suite][2]
        firsts, shortcut = set(), set()
        for table in _perturbed_tables(25, first, last, 1000):
            violation = next(walk(table, 1e-10), None)
            tests.clear()
            assert run(11, 1e-10, table) == _report(suite, horizon, violation)
            firsts.add(violation and violation[:2])
            # Hankel stage 1 skips its sweep on a positive definite matrix;
            # majorization walks only after a failed unit transfer
            shortcut.add(hankel_positive_definite(table, 6) if suite == "hankel"
                         else len(tests) == 15)
        # passing tables and many distinct first violations among the 1,000;
        # each suite's shortcut decides some tables and its walk others
        assert None in firsts and len(firsts) > 10
        assert shortcut == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SCALE, min_size=6, max_size=6))
    @example(_one_scaled(1, 1))
    @example(_one_scaled(1, 10))
    @example(_one_scaled(2, Fraction(3, 2)))
    @example(_one_scaled(3, Fraction(3, 2)))
    @example(_one_scaled(4, Fraction(3, 2)))
    @example(_one_scaled(5, Fraction(3, 2)))
    def test_majorization_report_equals_the_full_walk(self, scales):
        """b_2..b_7 scaled by positive rationals over 60 orders of magnitude,
        so the signs stay valid: the suite reports the first violation of
        the walk over all 568 majorizing pairs, or passes with it.  Each
        example after the exact table fails exactly one of the 15 unit
        transfers: m_s**2 <= m_{s-1} m_{s+1}, for one s in 1..5."""
        values = list(bernoulli2_series(7).values)
        for n, scale in enumerate(scales, 2):
            values[n] *= scale
        table = GregoryTable(tuple(values), TableMethod.SERIES_RECURRENCE)
        violation = next(_majorization_full_walk(table, 1e-10), None)
        assert (cli._SUITES["majorization"][2](7, 1e-10, table)
                == _report("majorization", (3, 6), violation))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-10**12, max_value=10**12), min_size=11, max_size=11))
    def test_repeated_index_determinant_is_zero(self, moments):
        """On any integer moment row, every sweep tuple with a repeated entry
        gives a matrix with two equal rows, whose determinant is 0."""
        repeated = [t for t in _HANKEL_SWEEP if len(set(t)) < len(t)]
        assert len(repeated) == 153
        for indices in repeated:
            matrix = [[moments[ai + aj] for aj in indices] for ai in indices]
            assert _integer_determinant(matrix)[0] == 0


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

    @staticmethod
    def _reference(x, k, capsys):
        code, out, _ = run_cli(
            ["eval", "--function", "derivative", "--x", x, "--k", str(k)], capsys)
        assert code == 0
        return next(line.split("=")[1].strip() for line in out.splitlines()
                    if line.startswith("reference"))

    @pytest.mark.parametrize("x", ["1e-300", "1e-100", "1e-20", "1e-8", "1e-3", "0.25", "0.5"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_small_x_reference_matches_the_exact_taylor_sum(self, x, k, capsys):
        """For 0 < x <= 1/2 the reference is f^(k)(x) to 1e-15 relative,
        against the exact sum of n!/(n-k)! b_n x^(n-k) over n < k + 100."""
        reference = self._reference(x, k, capsys)
        b, xq = bernoulli2_series(k + 100), Fraction(float(x))
        exact = sum(math.perm(n, k) * b[n] * xq ** (n - k) for n in range(k, k + 100))
        assert abs(Fraction(float(reference)) - exact) <= Fraction(1e-15) * abs(exact)

    def test_derivative_deep_order_has_no_reference(self, capsys):
        """Past k = 4 at interior points the reference is n/a."""
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

    def test_derivative_at_1e300_converges_to_the_closed_form(self, capsys):
        """f'(x) = 1/L - x/((1+x) L^2), L = ln(1+x), at x = 1e300: the
        integrand's mass sits at s ~ 1/x, which a side forced to stop three
        small terms past tau = 6 missed (2.67e-6, reported unconverged)."""
        code, out, err = run_cli(
            ["eval", "--function", "derivative", "--x", "1e300", "--k", "1"], capsys)
        assert (code, err) == (0, "")
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        fields = {k.strip(): v.strip() for k, v in fields.items()}
        with localcontext() as ctx:
            ctx.prec = 40
            x = Decimal(1e300)
            log = (1 + x).ln()
            exact = float(1 / log - x / ((1 + x) * log * log))
        assert fields["converged"] == "True"
        assert abs(float(fields["value"]) - exact) <= 1e-10

    @pytest.mark.parametrize("x", ["1e9", "1e11", "1e12", "4e12", "1e150"])
    def test_large_x_first_derivative_reference(self, x, capsys):
        """At k = 1 the reference is f'(x) = 1/L - x/((1+x) L^2), L = ln(1+x),
        correctly rounded from 40 digits; a fixed-step stencil was 2.8 % off
        at x = 1e11 and collapsed to n/a at 1e150."""
        with localcontext() as ctx:
            ctx.prec = 40
            xd = Decimal(float(x))
            log = (1 + xd).ln()
            exact = float(1 / log - xd / ((1 + xd) * log * log))
        assert self._reference(x, 1, capsys) == repr(exact)

    @pytest.mark.parametrize("x, k", [("100", 4), ("1e6", 2), ("1e6", 3), ("1e6", 4),
                                      ("1e300", 2), ("1e20", 4)])
    def test_large_x_higher_derivative_reference(self, x, k, capsys):
        """The reference is the correctly rounded f^(k)(x) where a stencil
        had the wrong sign (k = 4 at x = 100), read 0.0 or 1e11 to 1e18 times
        the value (x = 1e6), or collapsed to n/a (1e300, 1e20)."""
        mpmath = pytest.importorskip("mpmath")
        assert self._reference(x, k, capsys) == repr(_mpmath_derivative(mpmath, float(x), k))

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
        # x so small that the closed-form reference is k! b_k
        (["eval", "--function", "derivative", "--x", "1e-100", "--k", "4"], 0),
        (["eval", "--function", "derivative", "--x", "5e-324", "--k", "3"], 0),
        # base^(s-1) keeps every term finite up to the largest double
        (["eval", "--function", "bernstein-identity", "--x", "1e307"], 0),
        (["eval", "--function", "bernstein-identity", "--x", "1e308"], 0),
        (["eval", "--function", "bernstein-identity", "--x", "1.7976931348623157e308"], 0),
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
    def test_tiny_x_reference_is_k_factorial_b_k(self, x, k, exact, capsys):
        """The closed-form reference equals k! b_k to double precision at tiny x."""
        code, out, _ = run_cli(
            ["eval", "--function", "derivative", "--x", x, "--k", str(k)], capsys)
        assert code == 0
        assert f"reference      = {float(exact)!r}" in out.splitlines()


def _mpmath_derivative(mpmath, x, k):
    """f^(k)(x) of x/ln(1+x) by mpmath at 500 digits, rounded to a double.

    The step is given explicitly: mpmath's default step is far too small
    against a large x."""
    with mpmath.workdps(500):
        xm = mpmath.mpf(x)
        return float(mpmath.diff(lambda t: t / mpmath.log1p(t), xm, k,
                                 h=xm * mpmath.mpf("1e-20")))


@pytest.mark.parametrize("x, k", [(1e-3, 1), (1e-3, 20), (0.3, 3), (0.3, 12), (1.0, 2),
                                  (1.0, 7), (7.5, 4), (1e3, 5), (1e3, 16), (1e20, 1),
                                  (1e20, 9), (1e150, 3), (1e150, 14), (1e300, 2),
                                  (1e300, 20)])
def test_closed_derivative_matches_mpmath(x, k):
    """closed_derivative is the correctly rounded f^(k)(x)."""
    mpmath = pytest.importorskip("mpmath")
    assert closed_derivative(x, k) == _mpmath_derivative(mpmath, x, k)


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


# back-to-back calls of one process: an eval, a usage error, a verify, a compute
_ONE_PROCESS_RUN = (
    ["eval", "--function", "derivative", "--x", "0.25", "--k", "3", "--tol", "1e-10"],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", "cm-sequence", "--n-max", "12"],
    ["compute", "--n-max", "5", "--method", "series", "--format", "csv"],
)


class TestSharedParser:
    def test_back_to_back_calls_match_fresh_processes(self, monkeypatch):
        """main builds its parser once per process; each of several calls in
        one process, a usage error among them, prints and exits exactly as
        it does alone in a fresh interpreter."""
        monkeypatch.setenv("COLUMNS", "80")     # usage lines wrap at this width
        in_process = []
        for argv in _ONE_PROCESS_RUN:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            in_process.append((code, out.getvalue(), err.getvalue()))
        assert [run[0] for run in in_process] == [0, 2, 0, 0]
        for argv, run in zip(_ONE_PROCESS_RUN, in_process):
            proc = subprocess.run([sys.executable, "-m", "gregory", *argv],
                                  capture_output=True, text=True, timeout=60)
            assert run == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_build_parser_parses_every_subcommand(self):
        """build_parser returns the one shared parser, and a parse leaves no
        option of one subcommand in the namespace of the next."""
        parser = cli.build_parser()
        assert parser is cli.build_parser()
        for argv, keys in (
                (["compute", "--n-max", "7"], {"n_max", "method", "tol", "fmt"}),
                (["verify", "--suite", "hankel"], {"suite", "n_max", "tol"}),
                (["eval", "--function", "genfun", "--x", "2"], {"function", "x", "k", "tol"}),
                (["compute"], {"n_max", "method", "tol", "fmt"})):
            args = vars(parser.parse_args(argv))
            assert args.pop("command") == argv[0]
            assert set(args) == keys
        assert parser.parse_args(["compute"]).n_max == 30


def _golden_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_golden.py"
    spec = importlib.util.spec_from_file_location("cli_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenTool:
    def test_usage_error_block_ignores_terminal_width(self, monkeypatch):
        """argparse wraps usage text at the terminal width; the tool records
        every argv at 80 columns, so a usage error gives one block at any
        width."""
        tool = _golden_tool()
        blocks = []
        for columns in ("200", "80"):
            monkeypatch.setenv("COLUMNS", columns)
            blocks.append(tool.run_one(cli.main, ["compute", "--method", "nope"])[0])
        assert blocks[0] == blocks[1]
        assert "\nusage: gregory compute [-h] [--n-max N_MAX]\n" in blocks[0]

    def test_suite_minimums_match_the_cli(self):
        """The set probes each suite just below and at its smallest usable
        --n-max, read from the tool's own table: it must agree with
        cli._SUITES (0 where the tool lists no suite), and "all" with the
        largest of them."""
        tool = _golden_tool()
        minimums = {name: entry[0] for name, entry in cli._SUITES.items()}
        assert set(tool.SUITES) == set(minimums) | {"all"}
        for name, low in minimums.items():
            assert tool.SUITE_MIN_N_MAX.get(name, 0) == low, name
        assert tool.SUITE_MIN_N_MAX["all"] == max(minimums.values())

    def test_digest_file_lists_the_argv_set(self):
        """tools/golden.sha256 holds one digest per argv of the set, in order."""
        tool = _golden_tool()
        lines = tool.DIGESTS.read_text(encoding="utf-8").splitlines()
        assert [line.split("  ", 1)[1] for line in lines] == [
            " ".join(argv) for argv in tool.golden_argvs()]

    def test_version_files_hold_only_their_own_argv(self):
        """A per-version digest file names argv of the set, each with a digest
        other than the recorded one; on 3.13 it holds the three argv that
        print the eval usage line, read in place of the recorded lines."""
        tool = _golden_tool()
        argvs = {" ".join(argv) for argv in tool.golden_argvs()}
        recorded = tool.read_digests(tool.DIGESTS)
        for path in tool.DIGESTS.parent.glob("golden-*.sha256"):
            own = tool.read_digests(path)
            assert own and set(own) <= argvs
            assert all(recorded[argv] != digest for argv, digest in own.items())
        own = tool.read_digests(tool.version_file((3, 13)))
        assert set(own) == {"eval --function genfun --x inf", "eval --function nope --x 1",
                            "eval --x 1"}
        assert tool.committed_digests((3, 13)) == {**recorded, **own}
        assert tool.committed_digests(tool.RECORDED_ON) == recorded
