"""The repository tools: the Tier-1 gate, the comparison with another
checkout, the benchmark snapshot recorder and the code-line counter."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = TOOLS.parent / "src"


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


def _copy(tmp_path, *edits: tuple[str, str, str]) -> Path:
    """This tree's gregory package under tmp_path, with each (file name,
    old, new) edit made where old occurs exactly once."""
    (tmp_path / "gregory").mkdir()
    for source in (SRC / "gregory").glob("*.py"):
        text = source.read_text(encoding="utf-8")
        for name, old, new in edits:
            if name == source.name:
                assert text.count(old) == 1
                text = text.replace(old, new)
        (tmp_path / "gregory" / source.name).write_text(text, encoding="utf-8")
    return tmp_path


# a few argv of the golden set, in place of all of it where a test runs main
_GOLDEN = [["compute", "--method", "all", "--n-max", "13"],
           ["verify", "--suite", "degree", "--n-max", "11"],
           ["verify", "--suite", "majorization", "--n-max", "11"],
           ["eval", "--function", "genfun", "--x", "2"]]
_ENGINE_SUMMARY = "600 drawn calls, 37 fixed calls and 18 sweeps, {} differ"
_FALLBACK_SUMMARY = "majorization, hankel on 200 perturbed tables each, {} differ"


def _run_ab(monkeypatch, capsys, other_src: Path) -> tuple[int, list[str]]:
    """tools/ab.py's exit code and output lines against other_src, with no
    timing and the golden set cut to _GOLDEN."""
    ab = _tool("ab")
    monkeypatch.setattr(ab.cli_golden, "golden_argvs", lambda: _GOLDEN)
    code = ab.main([str(other_src), "--rounds", "0"])
    return code, capsys.readouterr().out.splitlines()


class TestAB:
    """tools/ab.py compares this tree with another checkout: golden CLI
    blocks, engine bits and fallback reports, each naming what differs,
    then sizes, the setup job and time."""

    def test_this_tree_against_itself_differs_nowhere(self, monkeypatch, capsys):
        code, lines = _run_ab(monkeypatch, capsys, SRC)
        assert code == 0
        assert lines[:3] == ["4 golden argv, 0 differ", _ENGINE_SUMMARY.format(0),
                             _FALLBACK_SUMMARY.format(0)]
        assert any(line.split()[:1] == ["quadrature.py"] for line in lines)
        setup = [line for line in lines if line.startswith("setup job, ")]
        assert [line.split(":")[0] for line in setup] == ["setup job, other",
                                                          "setup job, this tree"]
        assert not any(line.startswith("time ratio") for line in lines)

    def test_a_changed_golden_block_differs(self, tmp_path, monkeypatch, capsys):
        """A copy whose degree suite reports another horizon changes one
        block of the set, which the tool names and shows as a diff."""
        other = _copy(tmp_path, ("cli.py", '@_aggregate("degree", lambda n_max: (4, 8))',
                                 '@_aggregate("degree", lambda n_max: (4, 9))'))
        code, lines = _run_ab(monkeypatch, capsys, other)
        assert code == 1
        summary = lines.index("4 golden argv, 1 differ")
        diff = lines[:summary]
        assert diff[:2] == ["--- other: gregory verify --suite degree --n-max 11",
                            "+++ this tree: gregory verify --suite degree --n-max 11"]
        assert any(line.startswith("-") for line in diff[3:])
        assert any(line.startswith("+") for line in diff[3:])
        assert lines[summary + 1:summary + 3] == [_ENGINE_SUMMARY.format(0),
                                                  _FALLBACK_SUMMARY.format(0)]

    def test_a_changed_engine_constant_differs(self, tmp_path, monkeypatch, capsys):
        """A copy that claims convergence one level later gives other bits."""
        other = _copy(tmp_path, ("quadrature.py", "\n_MIN_LEVEL = 2 ", "\n_MIN_LEVEL = 3 "))
        code, lines = _run_ab(monkeypatch, capsys, other)
        assert code == 1
        engine = [line for line in lines if line.startswith("600 drawn calls")]
        assert engine and engine != [_ENGINE_SUMMARY.format(0)]
        assert any(line.startswith("differs: bernoulli2_integrals(") for line in lines)

    def test_a_failing_fallback_check_differs_on_perturbed_tables(
            self, tmp_path, monkeypatch, capsys):
        """A copy whose majorization check fails every pair that is not an
        adjacent transfer passes on the exact table, so no golden block and
        no engine call differs; the fallback walk on the perturbed tables
        does, and only there."""
        other = _copy(tmp_path, ("cli.py", "\n_SUITES", (
            "\n_real_check = check_majorization_inequality\n\n\n"
            "def check_majorization_inequality(table, lam, mu):\n"
            "    if (lam, mu) in [((s, s), (s - 1, s + 1)) for s in range(1, 6)]:\n"
            "        return _real_check(table, lam, mu)\n"
            "    return CmReport(\"majorization\", False, (2, 2), (0, 0, \"-1/5\"))\n\n\n"
            "_SUITES")))
        code, lines = _run_ab(monkeypatch, capsys, other)
        assert code == 1
        assert lines[:2] == ["4 golden argv, 0 differ", _ENGINE_SUMMARY.format(0)]
        walks = [line for line in lines if line.startswith("differs: ")]
        assert walks and all(line.startswith("differs: --suite majorization on perturbed table ")
                             for line in walks)
        assert len(walks) < 200
        assert _FALLBACK_SUMMARY.format(len(walks)) in lines

    def test_the_setup_job_reports_each_trees_own_peak_rss(self, tmp_path):
        """A tree whose job holds 96 MB, then one whose job holds nothing,
        both started by a process that holds 96 MB more than it did: the
        second reads its own peak, not the first's or this process's, and
        its exit code."""
        ab = _tool("ab")
        ballast = b"x" * (96 << 20)     # noqa: F841  (held until the jobs are done)
        for name, main in (("big", "data = b'x' * (96 << 20)\n"), ("small", "raise SystemExit(3)\n")):
            (tmp_path / name / "gregory").mkdir(parents=True)
            (tmp_path / name / "gregory" / "__init__.py").write_text("", encoding="utf-8")
            (tmp_path / name / "gregory" / "__main__.py").write_text(main, encoding="utf-8")
        _, big, big_code = ab.setup_job(tmp_path / "big")
        _, small, small_code = ab.setup_job(tmp_path / "small")
        assert (big_code, small_code) == (0, 3)
        assert big > 96 and small < 48

    def test_fixed_calls_catch_an_early_x_free_tail(self, tmp_path):
        """A copy whose a = 0 kernels read node-table terms from where
        1.0 + x*s < 1.5, not == 1.0, gives other bits on the fixed calls,
        past the draw's x range among them; the x = 0 sweeps cannot see it."""
        ab = _tool("ab")
        other = _copy(tmp_path, ("quadrature.py", "1.0 + flat * s == 1.0", "1.0 + flat * s < 1.5"))
        head, changed = ab.load(SRC, "ab_test_head"), ab.load(other, "ab_test_changed")
        differ = ab.engine_differences(head, changed, draws=0)
        assert differ and not any(line.startswith("bernoulli2_integrals") for line in differ)
        assert any(line.startswith("stieltjes_recip_log(0.001,") for line in differ)
        assert any(line.startswith("genfun_integral(1.7976931348623157e+308,") for line in differ)

    def test_the_engine_comparison_starts_from_no_kept_kernel_results(self, monkeypatch, tmp_path):
        """A kernel result that an earlier call left, as a golden argv of
        the integrals suite leaves moment_integral(0, 1e-10), is dropped
        before the comparison, so that FIXED's moment calls are computed
        again in a tree that keeps kernel results.  A tree without the memo
        compares as it is.  (FIXED is cut to its moment calls and SWEEPS
        to none, to keep the test short.)"""
        ab = _tool("ab")
        other = _copy(tmp_path, ("quadrature.py", "@functools.lru_cache(maxsize=1024)\ndef _kernel(",
                                 "def _kernel("))
        head, unkept = ab.load(SRC, "ab_test_head"), ab.load(other, "ab_test_unkept")
        moments = [call for call in ab.FIXED if call[0] == "moment_integral"]
        monkeypatch.setattr(ab, "FIXED", moments)
        monkeypatch.setattr(ab, "SWEEPS", [])
        head.moment_integral(0, 1e-10)
        assert ab.engine_differences(head, unkept, draws=0) == []
        info = head.quadrature._kernel.cache_info()
        assert (info.hits, info.misses) == (0, len(moments)) == (0, 3)
        assert not hasattr(unkept.quadrature._kernel, "cache_clear")

    def test_draw_covers_every_public_function_and_invalid_inputs(self):
        ab = _tool("ab")
        head = ab.load(SRC, "ab_test_head")
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
        ab = _tool("ab")
        loads = ("head", "other", "control")
        orders = [ab.rotation(loads, i) for i in range(6)]
        assert all(sorted(order) == sorted(loads) for order in orders)
        for place in range(3):
            for load in loads:
                assert [order[place] for order in orders].count(load) == 2
        assert orders[:3] == orders[3:]

    def test_timing_times_in_the_rotated_order(self, monkeypatch, capsys):
        """timing() warms each load up once, then times the rounds in the
        rotation's order, for each of the engine's five workloads: lone
        calls and sweeps at 1e-10, each warm and then cold, and sweeps at
        1e-13."""
        ab = _tool("ab")
        functions = dict.fromkeys(("genfun_integral", "stieltjes_recip_log",
                                   "genfun_derivative_integral", "bernstein_identity",
                                   "bernoulli2_integrals"))
        loads = tuple(SimpleNamespace(label=label, **functions)
                      for label in ("head", "other", "control"))
        owner, timed = {}, []
        for name in ("lone_workload", "sweep_workload"):
            build = getattr(ab, name)
            monkeypatch.setattr(ab, name, lambda package, rng, *tol, build=build: _owned(
                owner, package, build(package, rng, *tol)))
        monkeypatch.setattr(ab, "_timed", lambda calls, cold: timed.append(
            (owner[id(calls)], cold)) or 1.0)
        ab.timing(*loads, 6, ab.workloads(())[:5])
        labels = ("head", "other", "control")
        expected = list(labels) + [label for i in range(6) for label in ab.rotation(labels, i)]
        assert timed == [(label, cold) for cold in (False, True, False, True, False)
                         for label in expected]
        out = capsys.readouterr().out
        assert out.count("A/A") == 6 and out.count(", cold A/B") == 2

    def test_a_cold_pass_moves_every_tolerance_to_a_new_one(self):
        """Each cold pass calls with tolerances that no earlier call used,
        a relative 2**-40 steps or more from the workload's own."""
        ab = _tool("ab")
        seen = []
        calls = [(lambda *args: seen.append(args), (n, 1e-10)) for n in (20, 300)]
        ab._timed(calls, cold=True)
        ab._timed(calls, cold=True)
        tols = [args[-1] for args in seen]
        assert [args[0] for args in seen] == [20, 300] * 6
        assert len(set(tols)) == 12
        assert all(0.0 < t / 1e-10 - 1.0 < 1e-6 for t in tols)
        seen.clear()
        ab._timed(calls)
        assert [args[-1] for args in seen] == [1e-10] * 6

    def test_every_workload_runs_through_timing(self, monkeypatch, capsys):
        """The engine's five workloads, one per suite and two per exact
        builder each give a pair of rows."""
        ab = _tool("ab")
        package = ab.load(SRC, "ab_test_head")
        monkeypatch.setattr(ab, "_timed", lambda calls, cold: 1.0)
        ab.timing(package, package, package, 2, ab.workloads(package.cli._SUITES))
        assert capsys.readouterr().out.count(" A/B ") == 5 + len(package.cli._SUITES) + 4

    def test_workloads_time_each_runner_on_its_table(self):
        ab = _tool("ab")
        package = ab.load(SRC, "ab_test_head")
        calls = {label: build(package, None)
                 for label, build, cold in ab.workloads(package.cli._SUITES)[5:-4]}
        assert list(calls) == list(package.cli._SUITES)
        for suite, work in calls.items():
            assert len(work) == ab.REPEATS and len(set(map(id, work))) == 1
            runner, (n_max, tol, table) = work[0]
            _, last, expected = package.cli._SUITES[suite]
            assert (runner, n_max, tol) == (expected, 30, 1e-10)
            assert (table and table.max_index) == (last and last(30))

    def test_workloads_time_both_builders_over_the_range(self):
        ab = _tool("ab")
        package = SimpleNamespace(bernoulli2_series="series", bernoulli2_explicit_table="explicit")
        calls = {label: build(package, None) for label, build, cold in ab.workloads(())[5:]}
        assert all(cold is False for _, _, cold in ab.workloads(("hankel",))[5:])
        assert len(calls) == 4
        for label, work in calls.items():
            assert {fn for fn, _ in work} == {"series" if "series" in label else "explicit"}
            sizes = sorted({args for _, args in work})
            assert sizes == ([(1,), (8,)] if "N=1,8" in label else [(64,), (128,), (256,)])
            assert len(work) == (2000 if "N=1,8" in label else 3)


def _owned(owner: dict, module, calls: list) -> list:
    owner[id(calls)] = module.label
    return calls


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
        record = rec.assemble("x", host, (7, 8), 30.0, {"verify": ([_RESULT] * 2, _LAYERS),
                                                        "evaluate": ([_RESULT] * 2, broken)})
        assert record["label"] == "x" and record["machine"] == host
        assert record["settings"] == {"command": "python3 perfbench/run.py", "seeds": [7, 8],
                                      "layer_seed": 7, "seconds": 30.0}
        assert list(record["workloads"]) == ["verify", "evaluate"]
        verify = record["workloads"]["verify"]
        assert verify == {"correct": True, "attempted": {"trace 0": [40, 40], "trace 1": 128},
                          "end_to_end": {"jobs_per_s": {"value": 99.5, "unit": "1/s",
                                                        "runs": [99.5, 99.5]},
                                         "job_ms.p50": {"value": 4.25, "unit": "ms",
                                                        "runs": [4.25, 4.25]}},
                          "per_layer": _LAYERS["metrics"]}
        assert record["workloads"]["evaluate"]["correct"] is False

    def test_end_to_end_metrics_are_the_median_of_the_seeds(self):
        """Each end-to-end metric is the median of the three seeds' values,
        listed in seed order; one failing seed marks the workload."""
        rec = _tool("bench_record")
        runs = [{"correct": correct, "attempted": attempted, "failed": 0,
                 "metrics": {"jobs_per_s": {"value": rate, "unit": "1/s"}}}
                for correct, attempted, rate in ((True, 40, 101.0), (False, 39, 95.0),
                                                 (True, 41, 99.0))]
        record = rec.assemble("m", {}, (1, 2, 3), 30.0, {"verify": (runs, _LAYERS)})
        verify = record["workloads"]["verify"]
        assert verify["end_to_end"] == {"jobs_per_s": {"value": 99.0, "unit": "1/s",
                                                       "runs": [101.0, 95.0, 99.0]}}
        assert verify["attempted"] == {"trace 0": [40, 39, 41], "trace 1": 128}
        assert verify["correct"] is False

    def test_main_writes_the_file_from_every_run(self, tmp_path, monkeypatch, capsys):
        rec = _tool("bench_record")
        runs = []
        monkeypatch.setattr(rec, "ROOT", tmp_path)
        monkeypatch.setattr(rec, "run", lambda workload, seed, seconds, trace: runs.append(
            (workload, seed, seconds, trace)) or (_LAYERS if trace else _RESULT))
        assert rec.main(["t1"]) == 0
        assert rec.SEEDS == (1, 2, 3)
        assert runs == [run for w in rec.WORKLOADS
                        for run in [(w, 1, rec.SECONDS, 0), (w, 2, rec.SECONDS, 0),
                                    (w, 3, rec.SECONDS, 0), (w, 1, rec.SECONDS, 1)]]
        written = json.loads((tmp_path / "BENCH_t1.json").read_text())
        assert written["workloads"]["tabulate"]["end_to_end"]["jobs_per_s"]["value"] == 99.5
        assert written["workloads"]["tabulate"]["per_layer"] == _LAYERS["metrics"]
        assert written["machine"]["python"] and written["settings"]["seeds"] == [1, 2, 3]
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
