"""Self-tests of the benchmark's own code: job generators, oracle, span arithmetic.

Run from the repository root (a few seconds; not part of the package tests):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
import unittest
from collections import Counter
from fractions import Fraction

import hostspeed
import oracle
import run
import tracing
import workloads

gregory = run.import_package()


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gregory.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _alter_a_digit(out: str):
    """Change the last numerator digit of an exact value, the leading digit of
    an eval value, or the last digit of a verify report; None for other output."""
    exact = list(re.finditer(r"\d/\d", out))
    if exact:
        i = exact[-1].start()
    elif out.startswith("function"):
        i = out.index("= ", out.index("\nvalue")) + 2
        i += out[i] == "-"
    elif out.startswith("{"):
        i = max(j for j, ch in enumerate(out) if ch.isdigit())
    else:
        return None
    return out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:]


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_same_jobs(self):
        for workload in workloads.WORKLOADS:
            for seed in (0, 1, 7, 2**31):
                first = workloads.take(workload, seed, 200)
                self.assertEqual(first, workloads.take(workload, seed, 200))
                self.assertNotEqual(first, workloads.take(workload, seed + 1, 200))

    def test_rounds_have_the_same_mix_for_every_seed(self):
        def kinds(round_jobs):
            return Counter((j["cmd"], j.get("method"), j.get("suite"), j.get("function"),
                            j.get("tol") == workloads.UNREACHABLE_TOL) for j in round_jobs)
        for workload in workloads.WORKLOADS:
            mixes = [kinds(next(workloads.rounds(workload, seed))) for seed in range(5)]
            self.assertTrue(all(mix == mixes[0] for mix in mixes), workload)

    def test_inputs_are_valid_and_in_range(self):
        parser = gregory.cli.build_parser()
        for workload in workloads.WORKLOADS:
            for job in workloads.take(workload, 3, 300):
                parser.parse_args(workloads.to_argv(job))
                if job["cmd"] == "verify":
                    self.assertTrue(11 <= job["n_max"] <= 160)
                elif job["cmd"] == "compute":
                    lo, hi = (20, 300) if job["method"] == "integral" else (32, 256)
                    self.assertTrue(lo <= job["n_max"] <= hi)
                elif job["function"] == "derivative":
                    self.assertTrue(1 <= job["k"] <= 20 and 0.0 <= job["x"] <= 0.5)
                else:
                    self.assertTrue(1e-3 <= job["x"] <= 1e3)
                if job["cmd"] == "eval" and job["tol"] != workloads.UNREACHABLE_TOL:
                    self.assertTrue(1e-13 <= job["tol"] <= 1e-6)


class OracleTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.oracle = oracle.Oracle(run.ORACLE_N_MAX)

    def test_first_coefficients(self):
        expected = [Fraction(1), Fraction(1, 2), Fraction(-1, 12), Fraction(1, 24),
                    Fraction(-19, 720), Fraction(3, 160)]
        self.assertEqual(oracle.gregory_coefficients(5), expected)

    def test_agrees_with_the_series_table(self):
        self.assertEqual(tuple(self.oracle.b[:61]), gregory.bernoulli2_series(60).values)

    def test_derivative_at_zero_and_taylor_sum_meet(self):
        for k in (1, 5, 20):
            at_zero = self.oracle.derivative(0.0, k)
            self.assertEqual(at_zero, float(math.factorial(k) * self.oracle.b[k]))
            near_zero = self.oracle.derivative(1e-12, k)
            self.assertAlmostEqual(near_zero / at_zero, 1.0, places=6)
        # the slowest-converging Taylor sum the workloads ask for
        self.assertTrue(math.isfinite(self.oracle.derivative(0.5, 20)))

    def test_closed_forms(self):
        for x in (1e-3, 1.0, 1e3):
            for function, value in (("genfun", x / math.log1p(x)),
                                    ("recip-log", 1.0 / math.log1p(x))):
                self.assertLessEqual(abs(self.oracle.closed_form(function, x) - value),
                                     2 * math.ulp(value))

    def test_accepts_real_outputs_and_rejects_altered_ones(self):
        jobs = [{"cmd": "compute", "method": m, "n_max": 12, "fmt": f}
                for m in ("series", "explicit", "integral", "all")
                for f in workloads.FORMATS]
        jobs += [{"cmd": "verify", "suite": s, "n_max": 12}
                 for s in workloads.SUITES + ("all",)]
        jobs += [{"cmd": "eval", "function": f, "x": 2.0, "tol": 1e-9}
                 for f in workloads.CLOSED_FORM_FUNCTIONS]
        jobs += [{"cmd": "eval", "function": "derivative", "x": x, "k": k, "tol": t}
                 for x, k, t in ((0.0, 3, 1e-9), (0.3, 2, 1e-9), (0.3, 7, 1e-30))]
        for job in jobs:
            rc, out, err = _cli(workloads.to_argv(job))
            self.assertIsNone(self.oracle.check(job, rc, out, err), job)
            self.assertIsNotNone(self.oracle.check(job, rc + 1, out, err), job)
            altered = _alter_a_digit(out)
            # an unconverged value is not checked: an honest stall is no failure
            if altered is not None and "= False" not in out:
                self.assertIsNotNone(self.oracle.check(job, rc, altered, err), job)

    def test_rejects_a_converged_value_off_by_more_than_tol(self):
        job = {"cmd": "eval", "function": "genfun", "x": 2.0, "tol": 1e-9}
        rc, out, err = _cli(workloads.to_argv(job))
        value = float(next(line for line in out.splitlines()
                           if line.startswith("value")).partition("= ")[2])
        shifted = out.replace(repr(value), repr(value + 3e-9))
        self.assertIsNotNone(self.oracle.check(job, rc, shifted, err))

        job = {"cmd": "compute", "method": "integral", "n_max": 5, "fmt": "json"}
        rc, out, err = _cli(workloads.to_argv(job))
        rows = json.loads(out)
        rows[2]["numeric"] += 3e-10
        self.assertIsNotNone(self.oracle.check(job, rc, json.dumps(rows), err))


class SelfTimeTests(unittest.TestCase):
    def test_synthetic_span_tree(self):
        Span = tracing.Span
        spans = [Span("cli.job", 0.0, 10.0, None, 0),
                 Span("exact.bernoulli2_series", 1.0, 4.0, 0, 0),
                 Span("properties.check_cm_sequence", 5.0, 9.0, 0, 0),
                 Span("quadrature.genfun_integral", 6.0, 8.0, 2, 0),
                 Span("cli.job", 10.0, 12.0, None, 1)]
        folded = {2: 0.5, 4: 0.25}
        self.assertEqual(tracing.self_times(spans, folded), [3.0, 3.0, 1.5, 2.0, 1.75])

    def test_tracer_partitions_job_time_and_restores_the_package(self):
        original = gregory.cli.bernoulli2_series
        tracer = tracing.Tracer()
        tracer.install(gregory)
        try:
            self.assertIsNot(gregory.cli.bernoulli2_series, original)
            for index, argv in enumerate((["verify", "--suite", "all", "--n-max", "12"],
                                          ["eval", "--function", "genfun", "--x", "2"])):
                with contextlib.redirect_stdout(io.StringIO()):
                    tracer.run_job(index, lambda: gregory.cli.main(argv))
        finally:
            tracer.uninstall()
        self.assertIs(gregory.cli.bernoulli2_series, original)
        metrics = tracer.layer_metrics()
        shares = sum(metrics[f"{layer}.share"]
                     for layer in ("cli", "exact", "properties", "quadrature"))
        self.assertAlmostEqual(shares, 1.0, places=9)
        self.assertGreater(metrics["properties.majorization.useful_ratio"], 0.0)
        self.assertGreater(metrics["exact.rebuild_ratio"], 1.0)
        self.assertEqual(metrics["quadrature.unconverged_ratio"], 0.0)


class HostSpeedTests(unittest.TestCase):
    def test_scaled_removes_handler_time_and_rescales(self):
        # samples at 0, 1, ..., 9 s; the host runs at half speed from 5 s on
        nominal = hostspeed.REFERENCE_NOMINAL_S
        speed = hostspeed.Speedometer.from_samples(
            1.0, [float(i) for i in range(10)], [nominal] * 5 + [2 * nominal] * 5)
        self.assertAlmostEqual(speed.stolen(3.5, 6.5), (1 + 2 + 2) * nominal)
        # [3.5, 6.5] holds 3 samples and widens by one period to take 5:
        # 2 fast and 3 slow
        self.assertAlmostEqual(speed.local_reference_s(3.5, 6.5), 1.6 * nominal)
        self.assertAlmostEqual(speed.scaled(3.5, 6.5), (3.0 - 5 * nominal) / 1.6)
        self.assertAlmostEqual(speed.scaled(0.0, 4.0),
                               4.0 - 5 * nominal)

    def test_stalled_samples_count_as_stolen_but_not_as_speed(self):
        nominal = hostspeed.REFERENCE_NOMINAL_S
        durations = [nominal] * 10
        durations[4] = 30 * nominal
        speed = hostspeed.Speedometer.from_samples(1.0, [float(i) for i in range(10)], durations)
        self.assertEqual(speed.stalls(), 1)
        self.assertAlmostEqual(speed.local_reference_s(2.5, 5.5), nominal)
        self.assertAlmostEqual(speed.stolen(2.5, 5.5), 32 * nominal)

    def test_timer_samples_during_a_busy_loop(self):
        with hostspeed.Speedometer(period_s=0.002) as speed:
            end = time.perf_counter() + 0.05
            while time.perf_counter() < end:
                pass
        self.assertGreater(len(speed.durations), 5)
        self.assertTrue(all(d > 0 for d in speed.durations))


class ContractTests(unittest.TestCase):
    def test_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_tail_has_ten_jobs_beyond_it(self):
        times = [float(i) for i in range(100)]
        value, percentile = run.tail(times)
        self.assertEqual(percentile, 90.0)
        self.assertTrue(88.5 < value < 90.5, value)

    def test_quantile_weights_ranks_around_the_percentile(self):
        times = [float(i) for i in range(101)]
        self.assertAlmostEqual(run.quantile(times, 0.5), 50.0, places=9)
        self.assertAlmostEqual(run.quantile([3.0, 1.0, 2.0], 0.5), 2.0, places=9)
        # one job's time moves the estimate by a fraction of its own move
        moved = run.quantile(times[:50] + [51.0] + times[51:], 0.5)
        self.assertTrue(50.0 < moved < 50.2, moved)


if __name__ == "__main__":
    unittest.main()
