"""Scan the evaluate benchmark stream for falsely converged derivatives.

For each seed of a range, takes the first JOBS jobs of the benchmark's
evaluate stream (perfbench/workloads.py), calls
``genfun_derivative_integral(x, k, tol)`` for every derivative job with
x > 0, and checks each result reported as converged against the
benchmark's independent oracle (perfbench/oracle.py, the exact Taylor
sum): a converged value must lie within tol + 4 ulp of it.  Prints one
line per false convergence, then the totals: calls, converged results,
false convergences and kernel terms summed.

    python tools/derivative_scan.py 1-200
    python tools/derivative_scan.py 35 --jobs 15100
    python tools/derivative_scan.py 1-100 --src /path/to/other/checkout/src

SEEDS is one seed or an inclusive range A-B; JOBS defaults to 20000, the
first jobs of a run that completes that many.  SRC defaults to the
``src`` directory next to this script.  Stdlib only and one process;
seeds 1-100 take about five minutes on one core of a 2-core Xeon, so the
scan is not part of the test suite.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=seed_range, help="a seed or a range A-B")
    parser.add_argument("--jobs", type=int, default=20000)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    from gregory import genfun_derivative_integral
    from oracle import Oracle
    from workloads import take

    oracle = Oracle(300)
    calls = converged = false = terms = 0
    for seed in args.seeds:
        for index, job in enumerate(take("evaluate", seed, args.jobs)):
            if job.get("function") != "derivative" or job["x"] == 0.0:
                continue
            x, k, tol = job["x"], job["k"], job["tol"]
            result = genfun_derivative_integral(x, k, tol)
            calls += 1
            terms += result.n_evals
            if not result.converged:
                continue
            converged += 1
            truth = oracle.derivative(x, k)
            if not oracle._within(result.value, truth, tol):
                false += 1
                print(f"seed {seed} job {index}: k={k} x={x!r} tol={tol!r} "
                      f"value={result.value!r} truth={truth!r} "
                      f"off {abs(result.value - truth) / tol:.2f} tol", flush=True)
    print(f"seeds {args.seeds.start}-{args.seeds.stop - 1}, {args.jobs} jobs each: "
          f"{calls} calls, {converged} converged, {false} false convergences, "
          f"{terms} kernel terms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
