"""Compare this tree's verify suites with another checkout's: report lines, then time.

    python tools/suite_ab.py OTHER_SRC [--rounds N]

Loads ``OTHER_SRC/gregory`` and this tree's ``src/gregory`` by path, as two
packages of their own under distinct names (the package needs nothing but
the standard library).  For every suite of ``verify`` at --n-max 11, 30, 80
and 160 it runs ``verify --suite NAME --n-max N`` through each tree's
``cli.main`` and compares the exit code, stdout and stderr byte for byte,
report line included.  No argv reaches the fallback walks of the
``hankel`` and ``majorization`` suites, since ``verify`` always builds the
true table, so it also runs those two runners of each tree at --n-max 11
on a fixed seeded set of perturbed tables, each built with that tree's
own ``GregoryTable``, and compares their reports.  It names every run and
every table that differs and exits 1 if any does.  Then, unless
``--rounds 0``, it times each suite's runner at --n-max 30 and tol 1e-10,
the defaults, on the run's exact table, built beforehand as ``verify``
builds it, over N rotating rounds (default 30).
As in engine_ab.py, it prints the median and quartiles of the per-round
time ratio of this tree to OTHER_SRC next to an A/A control (this tree
against a second load of itself), and the three loads take turns at each
place in the timing order.
Stdlib only; 30 rounds take about 20 s on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import engine_ab  # noqa: E402  (a sibling script, not a package)

N_MAX = (11, 30, 80, 160)
TIMED_N_MAX = 30
TOL = 1e-10
REPEATS = 10        # runner calls per timed pass: one is too short to be steady
# the coefficients each fallback walk's tables scale: b_2..b_7 is what the
# majorization suite reads; b_6..b_11 leaves the Hankel goldens (b_1..b_5)
# intact, so that its sweep decides
PERTURBED = {"majorization": (2, 7), "hankel": (6, 11)}
TABLES = 200        # perturbed tables per suite
SEED = 25


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


def verify_output(package, suite: str, n_max: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``verify --suite suite --n-max n_max``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = package.cli.main(["verify", "--suite", suite, "--n-max", str(n_max)])
    return code, out.getvalue(), err.getvalue()


def perturbed_tables(package, first: int, last: int):
    """TABLES copies of package's exact b_0..b_11, each with 1 to 3 of
    b_first..b_last scaled by a seeded positive rational (the sign pattern
    stays valid), as package's own GregoryTables."""
    rng, exact = random.Random(SEED), package.bernoulli2_series(11)
    for _ in range(TABLES):
        values = list(exact.values)
        for n in rng.sample(range(first, last + 1), rng.randint(1, 3)):
            values[n] *= Fraction(rng.randint(1, 12), rng.randint(1, 12))
        yield package.GregoryTable(tuple(values), exact.method)


def differences(head, other) -> list[str]:
    """One line per suite and --n-max whose verify output differs between
    the trees, then one per perturbed table whose report differs."""
    lines = []
    for suite in head.cli._SUITES:
        for n_max in N_MAX:
            mine, theirs = verify_output(head, suite, n_max), verify_output(other, suite, n_max)
            if mine != theirs:
                lines.append(f"--suite {suite} --n-max {n_max}: "
                             f"this tree {mine!r} != other {theirs!r}")
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


def suite_calls(package, suite: str) -> list:
    """REPEATS calls of the suite's runner at TIMED_N_MAX on its exact table."""
    _, last, runner = package.cli._SUITES[suite]
    table = package.bernoulli2_series(last(TIMED_N_MAX)) if last else None
    return [(runner, (TIMED_N_MAX, TOL, table))] * REPEATS


def workloads(suites) -> list:
    """(label, build) pairs for engine_ab.timing, one per suite."""
    return [(suite, lambda package, rng, suite=suite: suite_calls(package, suite))
            for suite in suites]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the other checkout's src directory")
    parser.add_argument("--rounds", type=int, default=30,
                        help="timed rounds, 0 for the report comparison only (default 30)")
    args = parser.parse_args(argv)
    if args.rounds == 1 or args.rounds < 0:
        parser.error("--rounds must be 0 or at least 2")     # quartiles need two
    head = load(engine_ab.HERE, "suite_ab_head")
    other = load(args.other_src, "suite_ab_other")
    differ = differences(head, other)
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(head.cli._SUITES)} suites at --n-max {', '.join(map(str, N_MAX))} "
          f"and {', '.join(PERTURBED)} on {TABLES} perturbed tables each, {len(differ)} differ")
    if args.rounds:
        engine_ab.timing(head, other, load(engine_ab.HERE, "suite_ab_control"),
                         args.rounds, workloads(head.cli._SUITES))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
