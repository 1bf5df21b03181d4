"""Compare this tree with another checkout: CLI output, engine bits, fallback reports, size, then time.

    python tools/ab.py OTHER_SRC [--rounds N]

Loads this tree's ``src/gregory`` and ``OTHER_SRC/gregory`` by path as
packages of their own under distinct names (stdlib only), each with its
own node table, side plans and argparse parser.  Then, in order:

1. Every argv of ``cli_golden.golden_argvs()`` runs through each tree's
   ``cli.main``, and each record block that differs is printed as a
   unified diff, the other tree's block first.
2. The public quadrature functions must agree bit for bit (value and
   estimate as hex, ``n_evals``, ``converged``, or a ValueError's
   message) on a fixed-seed draw of calls to all eight, invalid inputs
   among them; on fixed calls of the a = 0 kernels, whose terms turn
   x-free from the first s -> 0 node where 1.0 + x*s == 1.0 on, at x from
   5e-324 to the largest double, outside the draw's range at both ends;
   and on ``bernoulli2_integrals`` sweeps up to N = 300 at tol 1e-10,
   1e-13 and 1e-30.  A tree that keeps kernel results (``_kernel``'s
   memo) has it cleared first, as the golden argv of section 1 already
   made some of these calls.
3. No argv reaches the fallback walks of the ``hankel`` and
   ``majorization`` suites, since ``verify`` builds the true table, so
   each tree's two runners run at --n-max 11 on seeded perturbed tables.
4. Shown only: each tree's lines and code lines per module
   (``code_lines.count``), and the wall time and peak RSS of the
   benchmark's setup job (``SETUP_ARGV`` of ``perfbench/run.py``) in a
   fresh interpreter per tree.
5. Unless ``--rounds 0``, each workload is timed in this tree, in
   OTHER_SRC and in a second load of this tree, the A/A control, taking
   turns at each place in the order, one cyclic shift per round, over N
   rounds (default 40), after one warm-up pass each.  It prints the
   median and quartiles of the per-round time ratio of this tree to
   OTHER_SRC and to the control.  The workloads: the engine's lone calls
   (genfun, 1/ln(1+x), f^(k) with k <= 20, the Bernstein identity) and
   sweeps (N in 20..300) at tol 1e-10, each warm and then cold, and
   sweeps at 1e-13; each verify suite's runner at --n-max 30 and tol
   1e-10 on its exact table; and each exact table builder, 1,000 calls at
   N = 1 and at 8, and one at N = 64, 128 and 256.  A warm workload
   repeats its calls, so every pass after the first finds the side plans
   the engine keeps per (alpha, beta, tol); a cold one moves every call
   of every pass to a tolerance no earlier call used, as in a one-shot
   CLI run.  In a tree that keeps kernel results, the warm lone calls and
   every suite runner therefore time kept results, while the cold rows
   still time the engine.

Sections 1 to 3 name every argv, call or table that differs, and the tool
exits 1 if any does.  Sections 1 to 4 take about 15 s and 40 rounds about
two minutes on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import difflib
import gc
import importlib
import importlib.util
import itertools
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
import cli_golden  # noqa: E402  (sibling scripts, not a package)
import code_lines  # noqa: E402

HERE = TOOLS.parent / "src"
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
# the coefficients each fallback walk's tables scale: b_2..b_7 is what the
# majorization suite reads; b_6..b_11 leaves the Hankel goldens (b_1..b_5)
# intact, so that its sweep decides
PERTURBED = {"majorization": (2, 7), "hankel": (6, 11)}
TABLES = 200        # perturbed tables per suite
TABLE_SEED = 25
TIMED_N_MAX = 30
TOL = 1e-10
REPEATS = 10        # runner calls per timed pass: one is too short to be steady
BUILDERS = ("bernoulli2_series", "bernoulli2_explicit_table")
SMALL = (1, 8)
SMALL_CALLS = 1000
LARGE = (64, 128, 256)
_FRESH = itertools.count(1)


def load(src: Path, name: str):
    """src/gregory as a package of its own under `name`, with its cli
    submodule loaded; each load has its own node table and caches."""
    package = Path(src) / "gregory"
    for loaded in [key for key in sys.modules if key.startswith(f"{name}.")]:
        del sys.modules[loaded]     # submodules of an earlier load under this name
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # relative imports look the package up by name
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


# 1. CLI output

def golden_diffs(head, other) -> list[str]:
    """A unified diff, the other tree's block first, of each golden record
    block that differs between the trees."""
    diffs = []
    for argv in cli_golden.golden_argvs():
        mine = cli_golden.run_one(head.cli.main, argv)[0]
        theirs = cli_golden.run_one(other.cli.main, argv)[0]
        if mine != theirs:
            shown = " ".join(["gregory"] + argv)
            diffs.append("".join(difflib.unified_diff(
                theirs.splitlines(keepends=True), mine.splitlines(keepends=True),
                f"other: {shown}", f"this tree: {shown}")))
    return diffs


# 2. engine bits

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


def outcome(package, name: str, args: tuple):
    """The bits of a call's result (a list of them for a sweep), or its error."""
    try:
        result = getattr(package, name)(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    results = result if isinstance(result, list) else [result]
    return [(r.value.hex(), r.abs_error_estimate.hex(), r.n_evals, r.converged)
            for r in results]


def engine_differences(head, other, draws: int = DRAWS) -> list[str]:
    """One line per call of the draw, of FIXED and of SWEEPS on which the trees differ.

    Each tree that keeps kernel results starts from none, so that the
    calls the golden argv already made are computed again, not read back."""
    for package in (head, other):
        clear = getattr(package.quadrature._kernel, "cache_clear", None)
        if clear is not None:
            clear()
    calls = draw_calls(SEED, draws) + FIXED
    calls += [("bernoulli2_integrals", args) for args in SWEEPS]
    lines = []
    for name, args in calls:
        mine, theirs = outcome(head, name, args), outcome(other, name, args)
        if mine != theirs:
            lines.append(f"{name}{args!r}: this tree {mine!r} != other {theirs!r}")
    return lines


# 3. fallback reports

def perturbed_tables(package, first: int, last: int):
    """TABLES copies of package's exact b_0..b_11, each with 1 to 3 of
    b_first..b_last scaled by a seeded positive rational (the sign pattern
    stays valid), as package's own GregoryTables."""
    rng, exact = random.Random(TABLE_SEED), package.bernoulli2_series(11)
    for _ in range(TABLES):
        values = list(exact.values)
        for n in rng.sample(range(first, last + 1), rng.randint(1, 3)):
            values[n] *= Fraction(rng.randint(1, 12), rng.randint(1, 12))
        yield package.GregoryTable(tuple(values), exact.method)


def fallback_differences(head, other) -> list[str]:
    """One line per perturbed table whose hankel or majorization report
    differs between the trees."""
    lines = []
    for suite, (first, last) in PERTURBED.items():
        run_mine, run_theirs = head.cli._SUITES[suite][2], other.cli._SUITES[suite][2]
        tables = zip(perturbed_tables(head, first, last), perturbed_tables(other, first, last))
        for idx, (table_mine, table_theirs) in enumerate(tables):
            mine = run_mine(11, TOL, table_mine).to_json_dict()
            theirs = run_theirs(11, TOL, table_theirs).to_json_dict()
            if mine != theirs:
                lines.append(f"--suite {suite} on perturbed table {idx}: "
                             f"this tree {mine!r} != other {theirs!r}")
    return lines


# 4. size and start-up

_LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "gregory", *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status))
"""


def sizes(src: Path) -> dict[str, tuple[int, int]]:
    """(lines, code lines) of each module of src/gregory."""
    return {path.name: code_lines.count(path.read_text(encoding="utf-8"))
            for path in sorted((Path(src) / "gregory").glob("*.py"))}


def setup_job(src: Path) -> tuple[float, float, int]:
    """Wall time (s), peak RSS (MB) and exit code of the benchmark's setup
    job run from src by a fresh interpreter, which a small launcher spawns
    and reaps: on Linux a child's peak RSS starts at its parent's."""
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    from run import SETUP_ARGV
    del sys.path[0]
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *SETUP_ARGV], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(Path(src).resolve())))
    wall, rss, code = launched.stdout.split()
    return float(wall), float(rss), int(code)


def show_size_and_setup(head_src: Path, other_src: Path) -> None:
    trees = {"other": sizes(other_src), "this tree": sizes(head_src)}
    print("lines and code lines of gregory:   other       this tree")
    for name in sorted(set().union(*trees.values())):
        cells = [" ".join(f"{n:5d}" for n in tree[name]) if name in tree else f"{'-':>11}"
                 for tree in trees.values()]
        print(f"  {name:<32} {cells[0]}   {cells[1]}")
    totals = [" ".join(f"{sum(col):5d}" for col in zip(*tree.values())) for tree in trees.values()]
    print(f"  {'total':<32} {totals[0]}   {totals[1]}")
    for label, src in (("other", other_src), ("this tree", head_src)):
        wall, rss, code = setup_job(src)
        print(f"setup job, {label}: {wall:.3f} s, peak RSS {rss:.1f} MB"
              + (f", exit {code}" if code else ""))


# 5. time

def lone_workload(package, rng: random.Random):
    calls = []
    for _ in range(300):
        x, tol = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-13.0, -6.0)
        kind = rng.randrange(4)
        if kind == 0:
            calls.append((package.genfun_integral, (x, tol)))
        elif kind == 1:
            calls.append((package.stieltjes_recip_log, (x, tol)))
        elif kind == 2:
            calls.append((package.genfun_derivative_integral, (x, rng.randint(1, 20), tol)))
        else:
            calls.append((package.bernstein_identity, (x, tol)))
    return calls


def sweep_workload(package, rng: random.Random, tol: float = 1e-10):
    return [(package.bernoulli2_integrals, (rng.randint(20, 300), tol)) for _ in range(8)]


def suite_calls(package, suite: str) -> list:
    """REPEATS calls of the suite's runner at TIMED_N_MAX on its exact table."""
    _, last, runner = package.cli._SUITES[suite]
    table = package.bernoulli2_series(last(TIMED_N_MAX)) if last else None
    return [(runner, (TIMED_N_MAX, TOL, table))] * REPEATS


def workloads(suites) -> list:
    """(label, build, cold) triples: build(package, rng) gives the
    (function, args) calls to time, and cold says whether every pass moves
    each call to a tolerance no earlier pass used.  The engine's five, then
    one per suite in `suites`, then two per exact builder."""
    out = [("lone calls", lone_workload, False),
           ("lone calls, cold", lone_workload, True),
           ("sweeps 1e-10", sweep_workload, False),
           ("sweeps 1e-10, cold", sweep_workload, True),
           ("sweeps 1e-13", lambda package, rng: sweep_workload(package, rng, 1e-13), False)]
    out += [(suite, lambda package, rng, suite=suite: suite_calls(package, suite), False)
            for suite in suites]
    for name in BUILDERS:
        out.append((f"{name} N=1,8", lambda package, rng, name=name: [
            (getattr(package, name), (n,)) for n in SMALL for _ in range(SMALL_CALLS)], False))
        out.append((f"{name} N=64-256", lambda package, rng, name=name: [
            (getattr(package, name), (n,)) for n in LARGE], False))
    return out


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


def timing(head, other, control, rounds: int, work: list) -> None:
    """Print head/other and head/control time ratios over rotating rounds,
    one pair of rows per (label, build, cold) triple of `work`."""
    print(f"time ratio, this tree / other, over {rounds} rotating rounds "
          "(A/A: this tree / a second load of it)")
    width = max(len(label) for label, _, _ in work) + 6
    print(f"{'workload':<{width}} median  quartiles")
    for label, build, cold in work:
        calls = {id(p): build(p, random.Random(SEED)) for p in (head, other, control)}
        for package in (head, other, control):
            _timed(calls[id(package)], cold)   # warm-up: fills the load's node table
        ab, aa = [], []
        for i in range(rounds):
            spent = {id(p): _timed(calls[id(p)], cold)
                     for p in rotation((head, other, control), i)}
            ab.append(spent[id(head)] / spent[id(other)])
            aa.append(spent[id(head)] / spent[id(control)])
        print(f"{label + ' A/B':<{width}} {_summary(ab)}")
        print(f"{label + ' A/A':<{width}} {_summary(aa)}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the other checkout's src directory")
    parser.add_argument("--rounds", type=int, default=40,
                        help="timed rounds, 0 for the comparisons only (default 40)")
    args = parser.parse_args(argv)
    if args.rounds == 1 or args.rounds < 0:
        parser.error("--rounds must be 0 or at least 2")     # quartiles need two
    head, other = load(HERE, "ab_head"), load(args.other_src, "ab_other")
    diffs = golden_diffs(head, other)
    print("".join(diffs), end="")
    print(f"{len(cli_golden.golden_argvs())} golden argv, {len(diffs)} differ")
    engine = engine_differences(head, other)
    for line in engine:
        print(f"differs: {line}")
    print(f"{DRAWS} drawn calls, {len(FIXED)} fixed calls and {len(SWEEPS)} sweeps, "
          f"{len(engine)} differ")
    fallback = fallback_differences(head, other)
    for line in fallback:
        print(f"differs: {line}")
    print(f"{', '.join(PERTURBED)} on {TABLES} perturbed tables each, {len(fallback)} differ")
    show_size_and_setup(HERE, args.other_src)
    if args.rounds:
        timing(head, other, load(HERE, "ab_control"), args.rounds, workloads(head.cli._SUITES))
    return 1 if diffs or engine or fallback else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
