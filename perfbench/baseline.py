"""The ROADMAP baseline rows up to N = 300, as informational figures.

Run from the repository root:

    python3 perfbench/baseline.py

Prints one JSON object: the machine, the Python version, and for each row
the median wall time of REPEATS runs (and the quadrature evaluations where
a row has them).  No row has a bound.  The N = 600 and N = 1000 series rows
take seconds to minutes each and are left out.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import time

from run import import_package, warm_up

REPEATS = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _median_seconds(call, inner: int = 1) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(inner):
            call()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def main() -> int:
    gregory = import_package()

    def cli(*argv):
        def call():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                gregory.cli.main(list(argv))
        return call

    warm_up(gregory.cli.main)
    rows = {}

    def row(name, call, inner=1, **extra):
        seconds = _median_seconds(call, inner)
        rows[name] = {"median_s": seconds, **extra}
        print(f"{name:<44} {seconds * 1e3:10.3f} ms", flush=True)

    row("bernoulli2_series N=300", lambda: gregory.bernoulli2_series(300))
    row("bernoulli2_explicit_table N=300", lambda: gregory.bernoulli2_explicit_table(300))
    row("compute --method all --n-max 300", cli("compute", "--method", "all", "--n-max", "300"))
    row("compute --method integral --n-max 300",
        cli("compute", "--method", "integral", "--n-max", "300"))
    row("verify --suite all --n-max 30", cli("verify", "--suite", "all", "--n-max", "30"))
    for horizon in (120, 200):
        mu = gregory.signed_moment_sequence(gregory.bernoulli2_series(horizon + 1))
        row(f"check_cm_sequence horizon {horizon}", lambda: gregory.check_cm_sequence(mu))
    for n in (1, 10, 100):
        evals = gregory.bernoulli2_integral(n, 1e-10).n_evals
        row(f"bernoulli2_integral n={n} tol=1e-10",
            lambda: gregory.bernoulli2_integral(n, 1e-10), inner=100, n_evals=evals)

    print(json.dumps({
        "machine": {"cpu": _cpu_model(), "cores": os.cpu_count(),
                    "platform": platform.platform()},
        "python": platform.python_version(),
        "repeats": REPEATS,
        "rows": rows,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
