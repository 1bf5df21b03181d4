"""The repository tools: the Tier-1 gate, the engine, exact-builder and
verify-suite A/B comparisons, the benchmark snapshot recorder and the
code-line counter."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _case(name: str, outcome: str = "") -> str:
    body = {"": "", "failure": '<failure message="assert 0">assert 0</failure>',
            "error": '<error message="boom">boom</error>',
            "skipped": '<skipped type="pytest.skip" message="no module">skip</skipped>'}[outcome]
    return (f'<testcase classname="tests.test_acceptance.TestAcceptanceGate" '
            f'name="{name}" time="0.001">{body}</testcase>')


def _report(tmp_path, cases: list[str]) -> str:
    path = tmp_path / "tier1.xml"
    path.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                    f'<testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>',
                    encoding="utf-8")
    return str(path)


_RED = [_case("test_criterion_04a_hankel_golden_as_commissioned", "failure"),
        _case("test_criterion_06b_minimality_violation_at_tenth", "failure")]
_GREEN = [_case("test_criterion_01_series_golden"), _case("test_other")]


class TestTier1Gate:
    def test_exactly_the_two_red_tests_pass_the_gate(self, tmp_path, capsys):
        gate = _tool("check_tier1")
        assert gate.main(["check_tier1.py", _report(tmp_path, _GREEN + _RED)]) == 0
        assert capsys.readouterr().out.endswith(
            "tier-1: 4 tests, 2 passed, 2 failed, 0 skipped -> OK\n")

    @pytest.mark.parametrize("cases", [
        pytest.param(_GREEN + _RED + [_case("test_new", "failure")], id="extra-failure"),
        pytest.param(_GREEN + _RED + [_case("test_new", "error")], id="extra-error"),
        pytest.param(_GREEN + _RED[:1] + [_case("test_criterion_06b_x")], id="surprise-pass"),
        pytest.param(_GREEN + _RED + [_case("test_mpmath", "skipped")], id="skipped"),
        pytest.param([], id="empty"),
    ])
    def test_anything_else_fails_the_gate(self, tmp_path, capsys, cases):
        gate = _tool("check_tier1")
        assert gate.main(["check_tier1.py", _report(tmp_path, cases)]) == 1
        assert capsys.readouterr().out.endswith("-> FAIL\n")

    def test_skipped_case_is_named_and_counted_apart(self, tmp_path, capsys):
        gate = _tool("check_tier1")
        gate.main(["check_tier1.py",
                   _report(tmp_path, _GREEN + _RED + [_case("test_mpmath", "skipped")])])
        out = capsys.readouterr().out
        assert "skipped: tests.test_acceptance.TestAcceptanceGate::test_mpmath\n" in out
        assert out.endswith("tier-1: 5 tests, 2 passed, 2 failed, 1 skipped -> FAIL\n")


class TestEngineAB:
    """tools/engine_ab.py tells an identical engine from a changed one."""

    def test_this_tree_against_itself_differs_nowhere(self):
        ab = _tool("engine_ab")
        head, again = ab.load(ab.HERE, "ab_test_head"), ab.load(ab.HERE, "ab_test_again")
        assert head is not again
        assert ab.differences(head, again, draws=60) == []

    def test_a_changed_engine_differs(self, tmp_path):
        """A copy that claims convergence one level later gives other bits."""
        ab = _tool("engine_ab")
        source = (ab.HERE / "gregory" / "quadrature.py").read_text(encoding="utf-8")
        assert source.count("\n_MIN_LEVEL = 2 ") == 1
        (tmp_path / "gregory").mkdir()
        (tmp_path / "gregory" / "quadrature.py").write_text(
            source.replace("\n_MIN_LEVEL = 2 ", "\n_MIN_LEVEL = 3 "), encoding="utf-8")
        head, changed = ab.load(ab.HERE, "ab_test_head"), ab.load(tmp_path, "ab_test_changed")
        assert changed._MIN_LEVEL == 3
        assert ab.differences(head, changed, draws=60)

    def test_fixed_calls_catch_an_early_x_free_tail(self, tmp_path):
        """A copy whose a = 0 kernels read node-table terms from where
        1.0 + x*s < 1.5, not == 1.0, gives other bits on the fixed calls,
        past the draw's x range among them; the x = 0 sweeps cannot see it."""
        ab = _tool("engine_ab")
        source = (ab.HERE / "gregory" / "quadrature.py").read_text(encoding="utf-8")
        assert source.count("1.0 + flat * s == 1.0") == 1
        (tmp_path / "gregory").mkdir()
        (tmp_path / "gregory" / "quadrature.py").write_text(
            source.replace("1.0 + flat * s == 1.0", "1.0 + flat * s < 1.5"),
            encoding="utf-8")
        head, changed = ab.load(ab.HERE, "ab_test_head"), ab.load(tmp_path, "ab_test_changed")
        differ = ab.differences(head, changed, draws=0)
        assert differ and not any(line.startswith("bernoulli2_integrals") for line in differ)
        assert any(line.startswith("stieltjes_recip_log(0.001,") for line in differ)
        assert any(line.startswith("genfun_integral(1.7976931348623157e+308,") for line in differ)

    def test_draw_covers_every_public_function_and_invalid_inputs(self):
        ab = _tool("engine_ab")
        head = ab.load(ab.HERE, "ab_test_head")
        calls = ab.draw_calls(ab.SEED, ab.DRAWS)
        assert {name for name, _ in calls} == {
            "bernoulli2_integral", "bernoulli2_integrals", "moment_integral",
            "stieltjes_recip_log", "genfun_integral", "genfun_derivative_integral",
            "shifted_kernel_integral", "bernstein_identity"}
        errors = {name for name, args in calls
                  if ab.outcome(head, name, args)[:1] == ("ValueError",)}
        assert len(errors) == 8

    def test_rotation_gives_every_load_every_place(self):
        """Over each three rounds, each of the three loads is timed first,
        second and last exactly once."""
        ab = _tool("engine_ab")
        loads = ("head", "other", "control")
        orders = [ab.rotation(loads, i) for i in range(6)]
        assert all(sorted(order) == sorted(loads) for order in orders)
        for place in range(3):
            for load in loads:
                assert [order[place] for order in orders].count(load) == 2
        assert orders[:3] == orders[3:]

    def test_timing_times_in_the_rotated_order(self, monkeypatch, capsys):
        """timing() warms each load up once, then times the rounds in the
        rotation's order, for each of the three workloads: lone calls and
        sweeps at two tolerances."""
        ab = _tool("engine_ab")
        functions = dict.fromkeys(("genfun_integral", "stieltjes_recip_log",
                                   "genfun_derivative_integral", "bernstein_identity",
                                   "bernoulli2_integrals"))
        loads = tuple(SimpleNamespace(label=label, **functions)
                      for label in ("head", "other", "control"))
        owner, timed = {}, []
        for name in ("lone_workload", "sweep_workload"):
            build = getattr(ab, name)
            monkeypatch.setattr(ab, name, lambda module, rng, *tol, build=build: _owned(
                owner, module, build(module, rng, *tol)))
        monkeypatch.setattr(ab, "_timed", lambda calls: timed.append(owner[id(calls)]) or 1.0)
        ab.timing(*loads, rounds=6)
        labels = ("head", "other", "control")
        expected = list(labels) + [label for i in range(6) for label in ab.rotation(labels, i)]
        assert timed == expected * 3
        assert capsys.readouterr().out.count("A/A") == 4


def _owned(owner: dict, module, calls: list) -> list:
    owner[id(calls)] = module.label
    return calls


class TestExactAB:
    """tools/exact_ab.py compares both exact builders' N = 256 tables by
    digest and times them through engine_ab.py's rotation."""

    def test_this_tree_against_itself_differs_nowhere(self, capsys):
        ab = _tool("exact_ab")
        assert ab.main([str(ab.engine_ab.HERE), "--rounds", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count(" sha256 ") == 4
        assert out.endswith("2 tables at N = 256, 0 differ\n")

    def test_a_changed_builder_differs(self, tmp_path, capsys):
        """A copy whose explicit table doubles its last value is named."""
        ab = _tool("exact_ab")
        source = (ab.engine_ab.HERE / "gregory" / "exact.py").read_text(encoding="utf-8")
        (tmp_path / "gregory").mkdir()
        (tmp_path / "gregory" / "exact.py").write_text(source + (
            "\n_table = bernoulli2_explicit_table\n\n\n"
            "def bernoulli2_explicit_table(n_max):\n"
            "    table = _table(n_max)\n"
            "    return GregoryTable(table.values[:-1] + (2 * table.values[-1],), table.method)\n"),
            encoding="utf-8")
        assert ab.main([str(tmp_path), "--rounds", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        series = [line.split()[-1] for line in lines if line.startswith("bernoulli2_series(")]
        explicit = [line.split()[-1] for line in lines if line.startswith("bernoulli2_explicit")]
        assert series[0] == series[1] and explicit[0] != explicit[1]
        assert lines[-1] == "2 tables at N = 256, 1 differ"

    def test_workloads_time_both_builders_over_the_range(self):
        ab = _tool("exact_ab")
        module = SimpleNamespace(bernoulli2_series="series", bernoulli2_explicit_table="explicit")
        calls = {label: build(module, None) for label, build in ab.workloads()}
        assert len(calls) == 4
        for label, work in calls.items():
            assert {fn for fn, _ in work} == {"series" if "series" in label else "explicit"}
            sizes = sorted({args for _, args in work})
            assert sizes == ([(1,), (8,)] if "N=1,8" in label else [(64,), (128,), (256,)])
            assert len(work) == (2000 if "N=1,8" in label else 3)


_SUITE_AB_SUMMARY = ("8 suites at --n-max 11, 30, 80, 160 and majorization, hankel "
                     "on 200 perturbed tables each, {} differ")


class TestSuiteAB:
    """tools/suite_ab.py compares every verify suite's output between two
    trees, and the hankel and majorization runners' reports on perturbed
    tables, and times the suites through engine_ab.py's rotation."""

    def test_this_tree_against_itself_differs_nowhere(self, capsys):
        ab = _tool("suite_ab")
        assert ab.main([str(ab.engine_ab.HERE), "--rounds", "0"]) == 0
        assert capsys.readouterr().out == _SUITE_AB_SUMMARY.format(0) + "\n"

    def test_a_changed_report_line_differs(self, tmp_path, capsys):
        """A copy whose degree suite reports another horizon is named at
        every --n-max, and nothing else is."""
        ab = _tool("suite_ab")
        (tmp_path / "gregory").mkdir()
        for source in (ab.engine_ab.HERE / "gregory").glob("*.py"):
            text = source.read_text(encoding="utf-8")
            if source.name == "cli.py":
                assert text.count('@_aggregate("degree", lambda n_max: (4, 8))') == 1
                text = text.replace('@_aggregate("degree", lambda n_max: (4, 8))',
                                    '@_aggregate("degree", lambda n_max: (4, 9))')
            (tmp_path / "gregory" / source.name).write_text(text, encoding="utf-8")
        assert ab.main([str(tmp_path), "--rounds", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition(": this tree")[0] for line in lines[:-1]] == [
            f"differs: --suite degree --n-max {n}" for n in (11, 30, 80, 160)]
        assert lines[-1] == _SUITE_AB_SUMMARY.format(4)

    def test_a_failing_fallback_check_differs_on_perturbed_tables(self, monkeypatch):
        """A load whose majorization check fails every pair that is not an
        adjacent transfer passes on the exact table, so no verify run
        differs; the fallback walk on the perturbed tables does, and only
        there."""
        ab = _tool("suite_ab")
        head = ab.load(ab.engine_ab.HERE, "suite_ab_head")
        other = ab.load(ab.engine_ab.HERE, "suite_ab_other")
        real = other.cli.check_majorization_inequality
        transfers = [((s, s), (s - 1, s + 1)) for s in range(1, 6)]

        def failing(table, lam, mu):
            if (lam, mu) in transfers:
                return real(table, lam, mu)
            return other.properties.CmReport("majorization", False, (2, 2), (0, 0, "-1/5"))

        monkeypatch.setattr(other.cli, "check_majorization_inequality", failing)
        lines = ab.differences(head, other)
        assert lines and all(line.startswith("--suite majorization on perturbed table ")
                             for line in lines)
        assert len(lines) < ab.TABLES

    def test_workloads_time_each_runner_on_its_table(self):
        ab = _tool("suite_ab")
        package = ab.load(ab.engine_ab.HERE, "suite_ab_test")
        calls = {label: build(package, None)
                 for label, build in ab.workloads(package.cli._SUITES)}
        assert list(calls) == list(package.cli._SUITES)
        for suite, work in calls.items():
            assert len(work) == ab.REPEATS and len(set(map(id, work))) == 1
            runner, (n_max, tol, table) = work[0]
            _, last, expected = package.cli._SUITES[suite]
            assert (runner, n_max, tol) == (expected, 30, 1e-10)
            assert (table and table.max_index) == (last and last(30))


_RESULT = {"correct": True, "attempted": 40, "failed": 0,
           "metrics": {"jobs_per_s": {"value": 99.5, "unit": "1/s"},
                       "job_ms.p50": {"value": 4.25, "unit": "ms"}}}
_LAYERS = {"correct": True, "attempted": 128, "failed": 0,
           "metrics": {"quadrature.calls": {"value": 500, "unit": "count"}}}


class TestBenchRecord:
    """tools/bench_record.py turns run.py result lines into one BENCH file."""

    def test_result_line_is_the_last_line(self):
        rec = _tool("bench_record")
        stdout = "workload evaluate, seed 1\n  jobs_per_s 99.5 1/s\n" + \
            json.dumps(_RESULT) + "\n\n"
        assert rec.result_line(stdout) == _RESULT

    @pytest.mark.parametrize("stdout", ["", "\n", "jobs_per_s 99.5\n", "[1, 2]\n",
                                        '{"correct": true}\n'])
    def test_anything_else_is_no_result(self, stdout):
        rec = _tool("bench_record")
        with pytest.raises(ValueError):
            rec.result_line(stdout)

    def test_assembly_keeps_each_run_in_its_place(self):
        rec = _tool("bench_record")
        broken = dict(_LAYERS, correct=False)
        host = {"cpu": "test cpu", "cores": 2, "python": "3.11.7"}
        record = rec.assemble("x", host, 7, 30.0, {"verify": {0: _RESULT, 1: _LAYERS},
                                                   "evaluate": {0: _RESULT, 1: broken}})
        assert record["label"] == "x" and record["machine"] == host
        assert record["settings"] == {"command": "python3 perfbench/run.py", "seed": 7,
                                      "seconds": 30.0}
        assert list(record["workloads"]) == ["verify", "evaluate"]
        verify = record["workloads"]["verify"]
        assert verify == {"correct": True, "attempted": {"trace 0": 40, "trace 1": 128},
                          "end_to_end": _RESULT["metrics"], "per_layer": _LAYERS["metrics"]}
        assert record["workloads"]["evaluate"]["correct"] is False

    def test_main_writes_the_file_from_every_run(self, tmp_path, monkeypatch, capsys):
        rec = _tool("bench_record")
        runs = []
        monkeypatch.setattr(rec, "ROOT", tmp_path)
        monkeypatch.setattr(rec, "run", lambda workload, seed, seconds, trace: runs.append(
            (workload, seed, seconds, trace)) or (_LAYERS if trace else _RESULT))
        assert rec.main(["t1"]) == 0
        assert runs == [(w, rec.SEED, rec.SECONDS, t) for w in rec.WORKLOADS for t in (0, 1)]
        written = json.loads((tmp_path / "BENCH_t1.json").read_text())
        assert written["workloads"]["tabulate"]["end_to_end"] == _RESULT["metrics"]
        assert written["machine"]["python"] and written["settings"]["seed"] == rec.SEED
        assert capsys.readouterr().out.endswith("wrote BENCH_t1.json\n")

    def test_a_failed_run_writes_nothing(self, tmp_path, monkeypatch, capsys):
        rec = _tool("bench_record")
        monkeypatch.setattr(rec, "ROOT", tmp_path)

        def failing(workload, seed, seconds, trace):
            raise RuntimeError(f"{workload} --trace {trace} exited 1: boom")
        monkeypatch.setattr(rec, "run", failing)
        assert rec.main(["t2"]) == 1
        assert not list(tmp_path.iterdir())
        assert "exited 1: boom" in capsys.readouterr().err

    def test_rejects_a_label_that_is_no_file_name(self):
        rec = _tool("bench_record")
        with pytest.raises(SystemExit):
            rec.main(["../x"])


_SYNTHETIC = '''"""Module docstring,
two lines."""

# a comment-only line
import math  # a trailing comment keeps the line


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring, then an implicit concatenation:"""  " second piece"
        text = """a multi-line string
# not a comment here
that is no docstring"""
        return math.pi, text
'''


class TestCodeLines:
    """tools/code_lines.py counts lines without blanks, comments and docstrings."""

    def test_synthetic_module(self):
        # code: import, class, def, the three lines of text, return
        assert _tool("code_lines").count(_SYNTHETIC) == (16, 7)

    def test_main_prints_each_file_and_a_total(self, tmp_path, capsys):
        tool = _tool("code_lines")
        one, two = tmp_path / "one.py", tmp_path / "two.py"
        one.write_text(_SYNTHETIC, encoding="utf-8")
        two.write_text("x = 1\n\n", encoding="utf-8")
        assert tool.main(["code_lines.py", str(one), str(two)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [["16", "7", str(one)], ["2", "1", str(two)], ["18", "8", "total"]]

    def test_usage(self, capsys):
        assert _tool("code_lines").main(["code_lines.py"]) == 2
        assert "usage" in capsys.readouterr().err
