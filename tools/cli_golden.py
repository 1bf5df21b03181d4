"""Record the CLI's exit code, stdout and stderr on a fixed argv set.

Runs ``gregory.cli.main(argv)`` in-process for every argv of
:func:`golden_argvs` and writes one block per argv to OUT.  Two checkouts
whose files compare equal behave byte-identically on the set, which is
the check for a refactor that must not change output:

    python tools/cli_golden.py before.txt /path/to/other/checkout/src
    python tools/cli_golden.py after.txt
    cmp before.txt after.txt

``--check`` compares the SHA-256 digest of every block with the committed
``tools/golden.sha256`` (one line per argv: the digest, two spaces, the
argv) and names every argv whose block differs; ``--update`` rewrites that
file, for a change that alters output on purpose:

    python tools/cli_golden.py --check
    python tools/cli_golden.py --update

Every argv runs with COLUMNS=80, so argparse wraps its usage text alike
in any terminal.  The digests were recorded on Python 3.11; argparse text
may differ on other versions.

SRC defaults to the ``src`` directory next to this script.  The set
holds 603 argv.  It covers every compute method, format and a range of
--n-max (the integral method up to --n-max 300 at tol 1e-10, 1e-13 and
1e-30, the series, explicit and all methods up to --n-max 256, the top of
the benchmark's range), every verify suite (the exact
ones up to --n-max 160, as far as the benchmark goes), and an eval grid
reaching tol 1e-30 and x 1e300, with every derivative order 1..20 at tol
1e-13, derivative references for k <= 4 from x = 5e-324 to 1e300, and
bernstein-identity up to the largest double.  It stays inside inputs
with a settled output; the boundary inputs (overflowing kernel
powers, tolerances that underflow once scaled, k > 170) are pinned by
the regression cases in tests/test_cli.py.
An argv that lets an exception escape is recorded as such, and the
script then exits 1.  Stdlib only; a full run takes about five seconds
on a 2-core Xeon.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

DIGESTS = Path(__file__).with_name("golden.sha256")

SUITES = ("cm-sequence", "minimality", "hankel", "majorization",
          "log-convexity", "integrals", "bernstein", "degree", "all")
SUITE_MIN_N_MAX = {"hankel": 11, "majorization": 7, "log-convexity": 3,
                   "cm-sequence": 1, "minimality": 1, "integrals": 1, "all": 11}


def golden_argvs() -> list[list[str]]:
    out: list[list[str]] = []
    for method in ("series", "explicit", "integral", "all"):
        for fmt in ("table", "csv", "json"):
            for n_max in ("0", "1", "2", "5", "13", "30", "64"):
                out.append(["compute", "--method", method, "--format", fmt,
                            "--n-max", n_max])
    for tol in ("1e-3", "1e-6", "1e-13", "1e-30"):
        for fmt in ("table", "csv", "json"):
            out.append(["compute", "--method", "integral", "--format", fmt,
                        "--n-max", "20", "--tol", tol])
    # the benchmark's largest integral table, also at tolerances where the
    # coefficients leave the shared level loop at different levels (at
    # 1e-30 some by the settled stop), and an all-method table between
    for extra in ([], ["--tol", "1e-13"], ["--tol", "1e-30"]):
        for fmt in ("table", "csv", "json"):
            out.append(["compute", "--method", "integral", "--format", fmt,
                        "--n-max", "300"] + extra)
    for fmt in ("table", "csv", "json"):
        out.append(["compute", "--method", "all", "--format", fmt, "--n-max", "160"])
    # the benchmark's largest exact and all-method tables
    for method in ("series", "explicit", "all"):
        for fmt in ("table", "csv", "json"):
            out.append(["compute", "--method", method, "--format", fmt, "--n-max", "256"])
    out += [["compute", "--n-max", "-1"],
            ["compute", "--method", "integral", "--tol", "0"],
            ["compute", "--method", "all", "--tol", "-1e-10"],
            ["compute", "--method", "series", "--tol", "0"],
            ["compute", "--method", "nope"],
            ["compute", "--tol", "inf"],
            ["compute", "--n-max", "x"],
            ["compute"]]

    for suite in SUITES:
        low = SUITE_MIN_N_MAX.get(suite, 0)
        n_maxes = sorted({max(low - 1, 0), low, 12, 30})
        for n_max in n_maxes:
            for tol in ("1e-10", "1e-6"):
                out.append(["verify", "--suite", suite, "--n-max", str(n_max),
                            "--tol", tol])
    for tol in ("1e-3", "1e-14", "1e-30"):
        out.append(["verify", "--suite", "all", "--n-max", "30", "--tol", tol])
    # the benchmark reaches --n-max 160, where the exact suites cost the most
    for suite in ("cm-sequence", "minimality", "log-convexity", "all"):
        out.append(["verify", "--suite", suite, "--n-max", "160"])
    out += [["verify", "--suite", "all", "--n-max", "60"],
            ["verify", "--suite", "nope"],
            ["verify", "--tol", "0"],
            ["verify", "--n-max", "-1"],
            ["verify", "--tol", "nan"]]

    for function in ("genfun", "recip-log", "bernstein-identity"):
        for x in ("1e-300", "1e-8", "0.5", "1", "2", "100", "1e6", "1e150", "1e300"):
            for tol in ("1e-4", "1e-10", "1e-14", "1e-30"):
                if function == "genfun" and x == "1e300" and tol == "1e-30":
                    continue    # tol/x underflows: a boundary input
                out.append(["eval", "--function", function, "--x", x, "--tol", tol])
    for function in ("genfun", "recip-log"):
        for x in ("1e-3", "0.3", "7", "1e3"):
            out.append(["eval", "--function", function, "--x", x, "--tol", "1e-30"])
    for x in ("0", "1e-8", "0.25", "1", "4", "100", "1e6"):
        for k in ("1", "2", "3", "4", "5", "6", "8", "12", "20", "40"):
            for tol in ("1e-6", "1e-10", "1e-30"):
                out.append(["eval", "--function", "derivative", "--x", x,
                            "--k", k, "--tol", tol])
    # every order the benchmark asks for, deep enough to reach the level cap
    for x in ("0", "0.3"):
        for k in range(1, 21):
            out.append(["eval", "--function", "derivative", "--x", x,
                        "--k", str(k), "--tol", "1e-13"])
    # the closed-form derivative reference at large x, and at tiny x, where
    # its sum needs the most guard digits
    for x, ks in (("1e9", "1"), ("1e11", "1"), ("1e12", "1"), ("4e12", "1"),
                  ("1e150", "234"), ("1e300", "234"),
                  ("1e-300", "1234"), ("5e-324", "1234")):
        for k in ks:
            out.append(["eval", "--function", "derivative", "--x", x, "--k", k])
    # two benchmark evaluate jobs (seed 201 job 3559, seed 1203 job 3110)
    # that claimed convergence 3 and 2.5 tol from the truth under a flat
    # rounding floor of 1.1e-16 of the total
    out += [["eval", "--function", "derivative", "--x", "0.24006516815904422",
             "--tol", "6.126489110153845e-10", "--k", "13"],
            ["eval", "--function", "derivative", "--x", "0.043715986743975865",
             "--tol", "8.396741540373791e-08", "--k", "14"]]
    # every term of the identity stays finite up to the largest double
    for x in ("1e307", "1e308", "1.7976931348623157e308"):
        out.append(["eval", "--function", "bernstein-identity", "--x", x])
    out += [["eval", "--function", "derivative", "--x", "1e150", "--k", "1"],
            ["eval", "--function", "genfun", "--x", "0"],
            ["eval", "--function", "recip-log", "--x", "-1"],
            ["eval", "--function", "derivative", "--x", "-1"],
            ["eval", "--function", "derivative", "--x", "1", "--k", "0"],
            ["eval", "--function", "derivative", "--x", "1", "--k", "-3"],
            ["eval", "--function", "genfun", "--x", "1", "--tol", "0"],
            ["eval", "--function", "genfun", "--x", "inf"],
            ["eval", "--function", "nope", "--x", "1"],
            ["eval", "--x", "1"]]
    return out


def run_one(main, argv: list[str]) -> tuple[str, bool]:
    """One record block for argv, and whether an exception escaped."""
    stdout, stderr = io.StringIO(), io.StringIO()
    raised = False
    with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
          mock.patch.dict(os.environ, {"COLUMNS": "80"})):
        try:
            status = f"exit {main(argv)}"
        except Exception as exc:   # recorded, not hidden: the script exits 1
            status = f"exception {type(exc).__name__}: {exc}"
            raised = True
    block = (f"$ gregory {' '.join(argv)}\n{status}\n"
             f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
    return block, raised


def main(args: list[str]) -> int:
    if len(args) not in (2, 3):
        print("usage: cli_golden.py OUT|--check|--update [SRC]", file=sys.stderr)
        return 2
    src = Path(args[2]) if len(args) == 3 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    from gregory import cli
    print(f"gregory from {Path(cli.__file__).parent}", file=sys.stderr)
    argvs = golden_argvs()
    raised = 0
    blocks, digests = [], {}    # digests: argv as one string -> block digest
    for argv in argvs:
        block, escaped = run_one(cli.main, argv)
        blocks.append(block)
        digests[" ".join(argv)] = hashlib.sha256(block.encode()).hexdigest()
        raised += escaped
    print(f"{len(argvs)} argv recorded, {raised} raised", file=sys.stderr)
    if args[1] == "--check":
        lines = DIGESTS.read_text(encoding="utf-8").splitlines()
        committed = dict(line.split("  ", 1)[::-1] for line in lines)
        differ = [argv for argv in {**digests, **committed}
                  if digests.get(argv) != committed.get(argv)]
        for argv in differ:
            print(f"golden digest differs: {argv}", file=sys.stderr)
        print(f"{len(differ)} argv differ from {DIGESTS.name}", file=sys.stderr)
        return 1 if raised or differ else 0
    if args[1] == "--update":
        DIGESTS.write_text("".join(f"{digest}  {argv}\n" for argv, digest in digests.items()),
                           encoding="utf-8")
    else:
        Path(args[1]).write_text("".join(blocks), encoding="utf-8")
    return 1 if raised else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
