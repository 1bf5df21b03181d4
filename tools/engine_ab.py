"""Compare this tree's quadrature engine with another checkout's: bits, then time.

    python tools/engine_ab.py OTHER_SRC [--rounds N]

Loads ``OTHER_SRC/gregory/quadrature.py`` and this tree's
``src/gregory/quadrature.py`` by path, as two separate modules (the module
needs nothing but the standard library), and checks that they agree bit
for bit:

- a fixed-seed draw of calls to all eight public quadrature functions,
  invalid inputs among them: the value and estimate as hex, ``n_evals``
  and ``converged`` of every result, or the message of every ValueError;
- fixed calls of the a = 0 kernels, whose terms turn x-free from the first
  s -> 0 node where 1.0 + x*s == 1.0 on: 1/ln(1+x), x/ln(1+x), f'(x) and
  h_1(x) at x in {5e-324, 1e-17, 1e-3, 1, 1e3, 1e150, the largest double},
  outside the draw's x range at both ends, at tol 1e-10, and mu_0, b_1 and
  f'(0) at tol 1e-10, 1e-13 and 1e-30;
- ``bernoulli2_integrals(N)`` for N in {0, 1, 7, 50, 300} at tol 1e-10,
  1e-13 and 1e-30, and for the benchmark's sizes N in {20, 160, 256} at
  tol 1e-10.

It names every call that differs and exits 1 if any does.  Then, unless
``--rounds 0``, it times five workloads over N rotating rounds (default
40): lone calls (genfun, 1/ln(1+x), f^(k) with k <= 20 and the Bernstein
identity, x in 1e-3..1e3 and tol in 1e-13..1e-6) and coefficient sweeps
(``bernoulli2_integrals`` with N in 20..300) at tol 1e-10, the tolerance
of ``compute --method integral`` and of the ``all`` jobs, each warm and
then cold, and sweeps at 1e-13.  A warm workload repeats its calls, so
every pass after the first finds the side plans that the engine keeps
per (alpha, beta, tol); a cold one moves every call of every pass,
warm-up included, to a tolerance no earlier call used, so no call finds
a kept plan, as in a one-shot CLI run.  It prints the median
and quartiles of the per-round time ratio of this tree to OTHER_SRC,
next to an A/A control: this tree against a second load of itself,
whose spread is what a ratio of two equal engines shows.  The three
loads take turns at each place in the timing order, one cyclic shift
per round.  Every module fills its own node table in a warm-up pass
before the timed rounds.  tools/exact_ab.py times the exact table
builders with the same loader, rotation and timing.
Stdlib only; 40 rounds take about 40 seconds on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import math
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1] / "src"
SEED = 22
DRAWS = 600
SWEEPS = ([(n_max, tol) for n_max in (0, 1, 7, 50, 300) for tol in (1e-10, 1e-13, 1e-30)]
          + [(n_max, 1e-10) for n_max in (20, 160, 256)])
CUTOVER_X = (5e-324, 1e-17, 1e-3, 1.0, 1e3, 1e150, sys.float_info.max)
FIXED = ([(name, args + (1e-10,)) for x in CUTOVER_X
          for name, args in (("stieltjes_recip_log", (x,)), ("genfun_integral", (x,)),
                             ("genfun_derivative_integral", (x, 1)),
                             ("shifted_kernel_integral", (1, x)))]
         + [(name, args + (tol,)) for tol in (1e-10, 1e-13, 1e-30)
            for name, args in (("moment_integral", (0,)), ("bernoulli2_integral", (1,)),
                               ("genfun_derivative_integral", (0.0, 1)))])
BAD_TOLS = (0.0, -1e-10, math.nan, math.inf)
BAD_X = (0.0, -1.0, math.nan, math.inf)
_FRESH = itertools.count(1)


def load(src: Path, name: str, stem: str = "quadrature"):
    """src/gregory/<stem>.py as a module of its own under `name`; the file
    must import nothing but the standard library."""
    spec = importlib.util.spec_from_file_location(name, Path(src) / "gregory" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _tol(rng: random.Random) -> float:
    return 1e-30 if rng.random() < 0.1 else 10.0 ** rng.uniform(-14.0, -4.0)


def _x(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-8.0, 8.0)


def draw_calls(seed: int, count: int) -> list[tuple[str, tuple]]:
    """`count` (function name, args) pairs, about one in eight invalid."""
    rng = random.Random(seed)
    valid = {
        "bernoulli2_integral": lambda: (rng.randint(1, 300), _tol(rng)),
        "bernoulli2_integrals": lambda: (rng.randint(0, 40), _tol(rng)),
        "moment_integral": lambda: (rng.randint(0, 300), _tol(rng)),
        "stieltjes_recip_log": lambda: (_x(rng), _tol(rng)),
        "genfun_integral": lambda: (_x(rng), _tol(rng)),
        "genfun_derivative_integral": lambda: (
            0.0 if rng.random() < 0.2 else _x(rng), rng.randint(1, 30), _tol(rng)),
        "shifted_kernel_integral": lambda: (
            rng.randint(1, 40), 0.0 if rng.random() < 0.2 else _x(rng), _tol(rng)),
        "bernstein_identity": lambda: (_x(rng), _tol(rng)),
    }
    invalid = {
        "bernoulli2_integral": lambda: rng.choice(
            [(rng.randint(-3, 0), 1e-10), (5, rng.choice(BAD_TOLS))]),
        "bernoulli2_integrals": lambda: rng.choice(
            [(rng.randint(-3, -1), 1e-10), (rng.randint(0, 3), rng.choice(BAD_TOLS))]),
        "moment_integral": lambda: rng.choice(
            [(rng.randint(-3, -1), 1e-10), (2, rng.choice(BAD_TOLS))]),
        "stieltjes_recip_log": lambda: rng.choice(
            [(rng.choice(BAD_X), 1e-10), (2.0, rng.choice(BAD_TOLS))]),
        "genfun_integral": lambda: rng.choice(
            [(rng.choice(BAD_X), 1e-10), (2.0, rng.choice(BAD_TOLS))]),
        "genfun_derivative_integral": lambda: rng.choice(
            [(1.0, rng.choice((-1, 0, 171, 200)), 1e-10),
             (rng.choice((-1.0, math.nan, math.inf)), 3, 1e-10),
             (0.5, 3, rng.choice(BAD_TOLS))]),
        "shifted_kernel_integral": lambda: rng.choice(
            [(rng.randint(-3, 0), 1.0, 1e-10),
             (3, rng.choice((-1.0, math.nan, math.inf)), 1e-10),
             (3, 1.0, rng.choice(BAD_TOLS))]),
        "bernstein_identity": lambda: rng.choice(
            [(rng.choice(BAD_X), 1e-10), (2.0, rng.choice(BAD_TOLS))]),
    }
    names = sorted(valid)
    calls = []
    for _ in range(count):
        name = rng.choice(names)
        calls.append((name, (invalid if rng.random() < 0.125 else valid)[name]()))
    return calls


def outcome(module, name: str, args: tuple):
    """The bits of a call's result (a list of them for a sweep), or its error."""
    try:
        result = getattr(module, name)(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    results = result if isinstance(result, list) else [result]
    return [(r.value.hex(), r.abs_error_estimate.hex(), r.n_evals, r.converged)
            for r in results]


def differences(head, other, draws: int = DRAWS, seed: int = SEED) -> list[str]:
    """One line per call of the draw, of FIXED and of SWEEPS on which the modules differ."""
    calls = draw_calls(seed, draws) + FIXED
    calls += [("bernoulli2_integrals", args) for args in SWEEPS]
    lines = []
    for name, args in calls:
        mine, theirs = outcome(head, name, args), outcome(other, name, args)
        if mine != theirs:
            lines.append(f"{name}{args!r}: this tree {mine!r} != other {theirs!r}")
    return lines


def lone_workload(module, rng: random.Random):
    calls = []
    for _ in range(300):
        x, tol = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-13.0, -6.0)
        kind = rng.randrange(4)
        if kind == 0:
            calls.append((module.genfun_integral, (x, tol)))
        elif kind == 1:
            calls.append((module.stieltjes_recip_log, (x, tol)))
        elif kind == 2:
            calls.append((module.genfun_derivative_integral, (x, rng.randint(1, 20), tol)))
        else:
            calls.append((module.bernstein_identity, (x, tol)))
    return calls


def sweep_workload(module, rng: random.Random, tol: float = 1e-10):
    return [(module.bernoulli2_integrals, (rng.randint(20, 300), tol)) for _ in range(8)]


def _timed(calls, cold: bool = False) -> float:
    # the best of three passes: one pass is too short to be steady.  A cold
    # pass moves each call's tol, its last argument, by a relative 2**-40
    # times a number no earlier call drew, so that no call finds the plans
    # of an earlier one
    gc.collect()
    best = math.inf
    for _ in range(3):
        if cold:
            calls = [(call, args[:-1] + (args[-1] * (1.0 + next(_FRESH) * 2.0 ** -40),))
                     for call, args in calls]
        start = time.perf_counter()
        for call, args in calls:
            call(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _summary(ratios: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return f"{median:.3f}   {q1:.3f}-{q3:.3f}"


def rotation(loads: tuple, i: int) -> tuple:
    """The timing order of round i: a cyclic shift of `loads`, so that in
    every three rounds each load is timed first, second and last once."""
    shift = i % len(loads)
    return loads[shift:] + loads[:shift]


def timing(head, other, control, rounds: int, workloads=None) -> None:
    """Print head/other and head/control time ratios over rotating rounds.

    `workloads` holds (label, build, cold) triples, where build(module, rng)
    gives the (function, args) calls to time, and cold says whether every
    pass moves each call to a tolerance no earlier pass used; by default
    the engine's lone calls and its sweeps at tol 1e-10, warm and cold, and
    its sweeps at 1e-13.
    """
    if workloads is None:
        workloads = (("lone calls", lone_workload, False),
                     ("lone calls, cold", lone_workload, True),
                     ("sweeps 1e-10", sweep_workload, False),
                     ("sweeps 1e-10, cold", sweep_workload, True),
                     ("sweeps 1e-13", lambda module, rng: sweep_workload(module, rng, 1e-13),
                      False))
    print(f"time ratio, this tree / other, over {rounds} rotating rounds "
          "(A/A: this tree / a second load of it)")
    width = max(len(label) for label, _, _ in workloads) + 6
    print(f"{'workload':<{width}} median  quartiles")
    for label, build, cold in workloads:
        work = {id(m): build(m, random.Random(SEED)) for m in (head, other, control)}
        for module in (head, other, control):
            _timed(work[id(module)], cold)   # warm-up: fills the module's node table
        ab, aa = [], []
        for i in range(rounds):
            spent = {id(m): _timed(work[id(m)], cold)
                     for m in rotation((head, other, control), i)}
            ab.append(spent[id(head)] / spent[id(other)])
            aa.append(spent[id(head)] / spent[id(control)])
        print(f"{label + ' A/B':<{width}} {_summary(ab)}")
        print(f"{label + ' A/A':<{width}} {_summary(aa)}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the other checkout's src directory")
    parser.add_argument("--rounds", type=int, default=40,
                        help="timed rounds, 0 for the bit comparison only (default 40)")
    args = parser.parse_args(argv)
    if args.rounds == 1 or args.rounds < 0:
        parser.error("--rounds must be 0 or at least 2")     # quartiles need two
    head = load(HERE, "engine_ab_head")
    other = load(args.other_src, "engine_ab_other")
    differ = differences(head, other)
    for line in differ:
        print(f"differs: {line}")
    print(f"{DRAWS} drawn calls, {len(FIXED)} fixed calls and {len(SWEEPS)} sweeps, "
          f"{len(differ)} differ")
    if args.rounds:
        timing(head, other, load(HERE, "engine_ab_control"), args.rounds)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
