"""The repository tools: the Tier-1 gate and the engine A/B comparison."""

import importlib.util
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
        rotation's order, for both workloads."""
        ab = _tool("engine_ab")
        functions = dict.fromkeys(("genfun_integral", "stieltjes_recip_log",
                                   "genfun_derivative_integral", "bernstein_identity",
                                   "bernoulli2_integrals"))
        loads = tuple(SimpleNamespace(label=label, **functions)
                      for label in ("head", "other", "control"))
        owner, timed = {}, []
        for name in ("lone_workload", "sweep_workload"):
            build = getattr(ab, name)
            monkeypatch.setattr(ab, name, lambda module, rng, build=build: _owned(
                owner, module, build(module, rng)))
        monkeypatch.setattr(ab, "_timed", lambda calls: timed.append(owner[id(calls)]) or 1.0)
        ab.timing(*loads, rounds=6)
        labels = ("head", "other", "control")
        expected = list(labels) + [label for i in range(6) for label in ab.rotation(labels, i)]
        assert timed == expected * 2
        assert capsys.readouterr().out.count("A/A") == 3


def _owned(owner: dict, module, calls: list) -> list:
    owner[id(calls)] = module.label
    return calls
