"""Benchmark of the gregory CLI on seeded, oracle-checked job streams.

Run from the repository root:

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in a
process of its own.

Workloads (see workloads.py for the input distributions):

  tabulate  compute jobs; the exact layer does nearly all the work
  verify    verify jobs; the property layer and repeated table builds
  evaluate  eval jobs plus 15 % compute --method integral; quadrature

Jobs run in-process through ``gregory.cli.main(argv)`` with stdout and
stderr captured, one after another (a closed loop with one client, no
threads).  Every job's exit code and output are checked against the
independent oracle in oracle.py; a traceback, a wrong exit code or a wrong
output counts as a failed job and the run goes on.

--trace 0 warms the lazily built quadrature node table in this process,
then runs jobs from the stream in whole rounds (workloads.py), as many
rounds as fit in --seconds of summed job time and at least one.  Spread
over that phase, outside the job times, it times SETUP_STARTS cold starts:
a fresh interpreter that imports gregory and runs SETUP_ARGV, a job that
fills the node table through its last level, as every CLI invocation must.
It reports setup_s (their median), jobs_per_s, job_ms.p50, job_ms.tail,
ok_ratio and peak_rss_mb, and prints failed_ratio beside them; the result
line carries its complement ok_ratio, since no metric there may read 0.
The two job-time percentiles are Harrell-Davis estimates (quantile()).

Every timing it reports is at the nominal host speed of hostspeed.py: a
reference kernel sampled every SPEED_PERIOD_S on a timer gives each job's
and each cold start's local host speed, and the time is rescaled by it.
The host this runs on slows by up to 1.6x from second to second under
other tenants' load, which moved raw wall times by 15-30 % between runs of
the same jobs; the scaled times moved by 1-7 %.  The wall-clock figures are
printed in brackets beside them.

--trace 1 runs a fixed prefix of TRACE_JOBS jobs four times: with
tracing.py's span wrappers installed, untraced, traced, and traced again.
It reports the per-layer figures of the last pass and
trace.overhead_ratio (the middle traced pass against the untraced one,
both at nominal host speed), and checks that the counts which must repeat
exactly (quadrature.n_evals, exact.series.coeffs, cli.bytes_out,
properties.majorization.useful_ratio) agree between the passes.
End-to-end figures never come from traced runs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Human-readable lines come before it.

selftest.py tests this benchmark's own code; baseline.py times the ROADMAP
baseline rows.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import oracle as oracle_module
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# stalls at the quadrature level cap, so it builds the node table through
# DEFAULT_MAX_LEVELS; used for the cold starts and as the in-process warm-up
SETUP_ARGV = ["eval", "--function", "derivative", "--x", "0.25", "--k", "10",
              "--tol", "1e-13"]
SETUP_STARTS = 9
SPEED_PERIOD_S = 0.005       # wall time between two reference-kernel samples
ORACLE_N_MAX = 300              # largest table any workload asks for
TRACE_JOBS = {"tabulate": 40, "verify": 32, "evaluate": 590}
TAIL_BEYOND = 10                # job_ms.tail has at least this many jobs above it
SHOWN_FAILURES = 20

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms.p50": "ms",
                    "job_ms.tail": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.share": "ratio", "cli.bytes_out": "count",
    "exact.series.calls": "count", "exact.series.coeffs": "count",
    "exact.series.self_s": "s", "exact.explicit.self_s": "s",
    "exact.rebuild_ratio": "ratio", "exact.share": "ratio",
    "properties.cm.self_s": "s", "properties.log_convexity.self_s": "s",
    "properties.det.self_s": "s", "properties.majorization.self_s": "s",
    "properties.majorization.useful_ratio": "ratio", "properties.grid.self_s": "s",
    "properties.share": "ratio",
    "quadrature.calls": "count", "quadrature.n_evals": "count",
    "quadrature.evals_per_call": "count", "quadrature.ns_per_eval": "ns",
    "quadrature.self_s": "s", "quadrature.share": "ratio",
    "quadrature.unconverged_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
EXACT_REPEAT = ("quadrature.n_evals", "exact.series.coeffs", "cli.bytes_out",
                "properties.majorization.useful_ratio")

_SETUP_CODE = """\
import contextlib, io, sys
import gregory.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = gregory.cli.main(sys.argv[1:])
sys.exit(code)
"""


def import_package():
    """Import gregory from this checkout's src/, never from elsewhere."""
    if not (SRC / "gregory" / "__init__.py").is_file():
        raise SystemExit(f"error: no gregory package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gregory
    import gregory.cli
    if SRC not in Path(gregory.__file__).resolve().parents:
        raise SystemExit(f"error: imported gregory from {gregory.__file__}, not {SRC}")
    return gregory


def cold_start() -> tuple[float, float]:
    """Start and end of one fresh interpreter running SETUP_ARGV, spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, *SETUP_ARGV],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return start, time.perf_counter()


def warm_up(main) -> None:
    """Fill the lazy state in this process before any job is timed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(SETUP_ARGV)


class Pass:
    """Job times, failures and output volume of a sequence of jobs."""

    def __init__(self):
        self.times: list[float] = []
        self.intervals: list[tuple[float, float]] = []     # perf_counter start, end
        self.failures: list[tuple[int, list[str], str]] = []
        self.bytes_out = 0
        self.busy = 0.0         # summed job time, s
        self._argv_hash = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.times)

    def digest(self) -> str:
        """sha256 of the argument lists of the jobs run, for comparing job lists."""
        return self._argv_hash.hexdigest()

    def jobs_per_s(self) -> float:
        completed = self.attempted - len(self.failures)
        return completed / self.busy if self.busy else 0.0

    def run(self, jobs, check, call, before_job=None) -> None:
        """Run each job through call(job_index, argv) and check its output."""
        for job in jobs:
            if before_job is not None:
                before_job()
            index = self.attempted
            argv = workloads.to_argv(job)
            self._argv_hash.update(json.dumps(argv).encode() + b"\n")
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = call(index, argv)
                reason = None
            except (Exception, SystemExit):
                reason = "raised " + traceback.format_exc().strip().splitlines()[-1]
            end = time.perf_counter()
            elapsed = end - start
            self.intervals.append((start, end))
            self.times.append(elapsed)
            self.busy += elapsed
            stdout = out.getvalue()
            self.bytes_out += len(stdout.encode())
            if reason is None:
                reason = check(job, rc, stdout, err.getvalue())
            if reason is not None:
                self.failures.append((index, argv, reason))


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of values.

    A mean of all order statistics, each weighted by the mass that the
    Beta((n+1)q, (n+1)(1-q)) density puts on its rank interval
    [(i-1)/n, i/n].  It moves a little when one job's time moves, where a
    single order statistic jumps from one job to the next.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q - 1, (n + 1) * (1 - q) - 1     # powers of t and 1 - t
    steps = 16                                          # midpoints per rank interval
    logs = [a * math.log(t) + b * math.log1p(-t)
            for t in ((j + 0.5) / (n * steps) for j in range(n * steps))]
    top = max(logs)
    mass = [math.exp(v - top) for v in logs]
    weights = [math.fsum(mass[i * steps:(i + 1) * steps]) for i in range(n)]
    return math.fsum(w * v for w, v in zip(weights, ordered)) / math.fsum(weights)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND jobs above it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0
    q = (n - TAIL_BEYOND) / n
    return quantile(times, q), 100.0 * q


def end_to_end(args, main, oracle) -> tuple[dict, Pass]:
    warm_up(main)
    run = Pass()
    starts: list[tuple[float, float]] = []

    def spread_cold_starts():
        # cold starts are spread over the timed phase (outside any job's
        # time) so that their median samples the machine's speed throughout
        if run.busy >= len(starts) * args.seconds / SETUP_STARTS:
            starts.append(cold_start())

    with hostspeed.Speedometer(SPEED_PERIOD_S) as speed:
        for jobs in workloads.rounds(args.workload, args.seed):
            before = run.busy
            run.run(jobs, oracle.check, lambda _, argv: main(argv), spread_cold_starts)
            if run.busy + (run.busy - before) > args.seconds:
                break       # the next round would not fit
        while len(starts) < SETUP_STARTS:
            starts.append(cold_start())
    # every timing at the reference kernel's nominal speed (hostspeed.py)
    times = [speed.scaled(start, end) for start, end in run.intervals]
    tail_s, percentile = tail(times)
    completed = run.attempted - len(run.failures)
    failed_ratio = len(run.failures) / run.attempted
    wall = {"setup_s": statistics.median(end - start for start, end in starts),
            "jobs_per_s": run.jobs_per_s(),
            "job_ms.p50": 1e3 * quantile(run.times, 0.5),
            "job_ms.tail": 1e3 * tail(run.times)[0]}
    metrics = {
        "setup_s": statistics.median(speed.scaled(start, end) for start, end in starts),
        "jobs_per_s": completed / math.fsum(times),
        "job_ms.p50": 1e3 * quantile(times, 0.5),
        "job_ms.tail": 1e3 * tail_s,
        "ok_ratio": 1.0 - failed_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"job list: the first {run.attempted} jobs of the stream (whole rounds), "
          f"sha256 {run.digest()}; {run.busy:.3f} s of job time")
    print(f"host speed: reference kernel {1e6 * speed.mean_reference_s():.2f} us over "
          f"{len(speed.durations)} samples ({speed.stalls()} stalls left out), "
          f"nominal {1e6 * hostspeed.REFERENCE_NOMINAL_S:g} us; "
          f"timings below are at nominal speed (wall time in brackets)")
    for name, value in metrics.items():
        line = f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}"
        if name in wall:
            line += f"  [{wall[name]:.6g}]"
        if name == "job_ms.tail":
            line += f"  (p{percentile:.2f}, n={run.attempted})"
        if name == "setup_s":
            line += f"  (median of {SETUP_STARTS} cold starts)"
        print(line)
    print(f"  {'failed_ratio':<14} {failed_ratio:.6g}  ({len(run.failures)}/{run.attempted})")
    return metrics, run


def per_layer(args, gregory, main, oracle) -> tuple[dict, list[Pass], list[str]]:
    jobs = workloads.take(args.workload, args.seed, TRACE_JOBS[args.workload])
    warm_up(main)

    def traced_pass() -> tuple[Pass, dict]:
        run, tracer = Pass(), tracing.Tracer()
        tracer.install(gregory)
        try:
            run.run(jobs, oracle.check,
                    lambda index, argv: tracer.run_job(index, lambda: main(argv)))
        finally:
            tracer.uninstall()
        figures = tracer.layer_metrics()
        figures["cli.bytes_out"] = run.bytes_out
        return run, figures

    # The first traced pass warms the job mix.  The overhead comes from an
    # untraced and a traced pass timed at nominal host speed (hostspeed.py);
    # the figures come from a last traced pass without the speedometer's
    # signal handler, whose time would land in the spans.
    first, first_figures = traced_pass()
    untraced = Pass()
    with hostspeed.Speedometer(SPEED_PERIOD_S) as speed:
        untraced.run(jobs, oracle.check, lambda _, argv: main(argv))
        timed, timed_figures = traced_pass()
    second, metrics = traced_pass()
    passes = [first, untraced, timed, second]

    def scaled_busy(run: Pass) -> float:
        return math.fsum(speed.scaled(start, end) for start, end in run.intervals)

    # untraced / traced jobs_per_s - 1, over the same jobs
    metrics["trace.overhead_ratio"] = scaled_busy(timed) / scaled_busy(untraced) - 1.0
    errors = [f"{name} differs between traced passes: {figures[name]} vs {metrics[name]}"
              for figures in (first_figures, timed_figures)
              for name in EXACT_REPEAT if figures[name] != metrics[name]]
    if untraced.bytes_out != second.bytes_out:
        errors.append(f"cli.bytes_out differs between untraced and traced passes: "
                      f"{untraced.bytes_out} vs {second.bytes_out}")
    print(f"job list: the first {len(jobs)} jobs of the stream, sha256 {passes[0].digest()}")
    for name in PER_LAYER_UNITS:
        value = metrics[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<38} {shown} {PER_LAYER_UNITS[name]}")
    print("exact-repeat counts: " + json.dumps({name: metrics[name] for name in EXACT_REPEAT}))
    return metrics, passes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so that peak_rss_mb is each workload's own
        codes = [subprocess.run([sys.executable, __file__, "--workload", workload,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for workload in workloads.WORKLOADS]
        return max(codes)

    gregory = import_package()
    oracle = oracle_module.Oracle(ORACLE_N_MAX)
    print(f"workload {args.workload}, seed {args.seed}")

    errors: list[str] = []
    if args.trace:
        values, passes, errors = per_layer(args, gregory, gregory.cli.main, oracle)
        units = PER_LAYER_UNITS
    else:
        values, run = end_to_end(args, gregory.cli.main, oracle)
        passes = [run]
        units = END_TO_END_UNITS
    failures = [f for p in passes for f in p.failures]
    for index, argv, reason in failures[:SHOWN_FAILURES]:
        print(f"FAILED job {index} ({' '.join(argv)}): {reason}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": not failures and not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
