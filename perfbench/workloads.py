"""Seeded job streams for the benchmark workloads.

A job is a dict of CLI inputs; :func:`to_argv` turns it into the argument
list for ``gregory.cli.main``.  ``rounds(workload, seed)`` is an endless
iterator of rounds (lists of jobs) and a pure function of its two
arguments, so the same seed always yields the same jobs in the same order.

Sampling design.  Every input is drawn from the distribution its workload
names, but by stratified sampling: a round holds a fixed number of jobs of
each kind (method, suite, function), each continuous input of a kind takes
one jittered point in each of equally likely strata, the strata of
different inputs are paired at random (a Latin hypercube), and the round is
shuffled.  The benchmark runs whole rounds, so every run has the same job
mix up to the jitter; a tabulate or verify round is one run's worth of
work, an evaluate round a fiftieth of it.  Job cost grows steeply with the inputs (about n^3.5
for the exact tables, a 100x stall in a few quadrature corners), and with
independent draws one seed's mix, and with it every timing, would differ
from the next seed's by more than any useful bound.
"""

from __future__ import annotations

import random
from itertools import chain, islice
from typing import Iterator

WORKLOADS = ("tabulate", "verify", "evaluate")

FORMATS = ("csv", "json", "table")
SUITES = ("cm-sequence", "minimality", "hankel", "majorization",
          "log-convexity", "integrals", "bernstein", "degree")
CLOSED_FORM_FUNCTIONS = ("genfun", "recip-log", "bernstein-identity")
UNREACHABLE_TOL = 1e-30


def _strata(rng: random.Random, m: int) -> list[float]:
    """One uniform point in each of m equal strata of [0, 1), in random order."""
    points = [(i + rng.random()) / m for i in range(m)]
    rng.shuffle(points)
    return points


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _formats(rng: random.Random, m: int) -> list[str]:
    return [FORMATS[int(u * len(FORMATS))] for u in _strata(rng, m)]


def _eval_tols(rng: random.Random, m: int) -> list[float]:
    # a tenth of the jobs ask for the unreachable 1e-30, the rest log-uniform
    unreachable = m // 10
    tols = [UNREACHABLE_TOL] * unreachable + [
        _log_uniform(u, 1e-13, 1e-6) for u in _strata(rng, m - unreachable)]
    rng.shuffle(tols)
    return tols


def _tabulate_round(rng: random.Random) -> list[dict]:
    # compute jobs, 32 per method: n_max log-uniform in [32, 256]
    jobs = []
    for method in ("series", "explicit", "all"):
        for u, fmt in zip(_strata(rng, 32), _formats(rng, 32)):
            jobs.append({"cmd": "compute", "method": method,
                         "n_max": round(_log_uniform(u, 32, 256)), "fmt": fmt})
    return jobs


def _verify_round(rng: random.Random) -> list[dict]:
    # half "--suite all", half single suites (each suite equally often);
    # n_max uniform in [11, 160]
    jobs = []
    for suite, count in [("all", 6 * len(SUITES))] + [(s, 6) for s in SUITES]:
        for u in _strata(rng, count):
            jobs.append({"cmd": "verify", "suite": suite, "n_max": 11 + int(u * 150)})
    return jobs


def _evaluate_round(rng: random.Random) -> list[dict]:
    # 50 eval jobs and 9 compute --method integral jobs (15 %)
    jobs = []
    for function in CLOSED_FORM_FUNCTIONS:
        for u, tol in zip(_strata(rng, 10), _eval_tols(rng, 10)):
            jobs.append({"cmd": "eval", "function": function,
                         "x": _log_uniform(u, 1e-3, 1e3), "tol": tol})
    # derivative: k = 1..20 once each, half at x = 0, half with x in (0, 1/2]
    xs = [0.0] * 10 + [0.5 * (1.0 - u) for u in _strata(rng, 10)]
    rng.shuffle(xs)
    for k, x, tol in zip(range(1, 21), xs, _eval_tols(rng, 20)):
        jobs.append({"cmd": "eval", "function": "derivative", "x": x, "k": k, "tol": tol})
    for u, fmt in zip(_strata(rng, 9), _formats(rng, 9)):
        jobs.append({"cmd": "compute", "method": "integral",
                     "n_max": 20 + int(u * 281), "fmt": fmt})
    return jobs


_ROUNDS = {"tabulate": _tabulate_round, "verify": _verify_round,
           "evaluate": _evaluate_round}


def rounds(workload: str, seed: int) -> Iterator[list[dict]]:
    """Endless rounds of one workload; a pure function of (workload, seed)."""
    build = _ROUNDS[workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        jobs = build(rng)
        rng.shuffle(jobs)
        yield jobs


def take(workload: str, seed: int, count: int) -> list[dict]:
    """The first count jobs of a workload's stream."""
    return list(islice(chain.from_iterable(rounds(workload, seed)), count))


def to_argv(job: dict) -> list[str]:
    if job["cmd"] == "compute":
        return ["compute", "--n-max", str(job["n_max"]), "--method", job["method"],
                "--format", job["fmt"]]
    if job["cmd"] == "verify":
        return ["verify", "--suite", job["suite"], "--n-max", str(job["n_max"])]
    argv = ["eval", "--function", job["function"], "--x", repr(job["x"]),
            "--tol", repr(job["tol"])]
    if job["function"] == "derivative":
        argv += ["--k", str(job["k"])]
    return argv

