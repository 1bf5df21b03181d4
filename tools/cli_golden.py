"""Check the CLI's exit code, stdout and stderr on a fixed argv set.

Runs ``gregory.cli.main(argv)`` in-process, from the ``src`` directory next
to this script, for every argv of :func:`golden_argvs`, and records one
block per argv.  ``--check`` compares the SHA-256 digest of every block
with the committed ``tools/golden.sha256`` (one line per argv: the digest,
two spaces, the argv) and names every argv whose block differs;
``--update`` rewrites that file, for a change that alters output on
purpose:

    python tools/cli_golden.py --check
    python tools/cli_golden.py --update

``tools/ab.py`` runs the same set through this tree and another checkout
and prints a unified diff of every block that differs.

Every argv runs with COLUMNS=80, so argparse wraps its usage text alike
in any terminal.  The digests were recorded on Python 3.11, and 3.10 and
3.12 give the same blocks.  Where a version's argparse words its usage text
differently, its own file ``tools/golden-<major>.<minor>.sha256`` holds the
digest lines of just those argv, and ``--check`` on that version reads them
in place of the ones in ``golden.sha256``: on 3.13 these are the three argv
whose usage error prints the ``eval`` usage line, which 3.13 wraps
differently.  ``--update`` on 3.11 rewrites ``golden.sha256``; on any other
version it rewrites only that version's file, with the argv whose block
differs from ``golden.sha256`` (none: the file goes), so update on 3.11
first.

The set holds 623 argv.  It covers every compute method, format and a
range of --n-max (the integral method up to --n-max 300 at tol 1e-10,
1e-13 and 1e-30, the series, explicit and all methods up to --n-max 256,
the top of the benchmark's range), every verify suite at --n-max 11, 30,
80 and 160, the benchmark's range, and an eval grid
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
RECORDED_ON = (3, 11)

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
    # with those, every suite at --n-max 11, 30, 80 and 160 at the default tol
    for n_max, suites in (
            ("11", ("cm-sequence", "minimality", "majorization", "log-convexity",
                    "integrals", "bernstein", "degree")),
            ("80", SUITES[:-1]),
            ("160", ("hankel", "majorization", "integrals", "bernstein", "degree"))):
        for suite in suites:
            out.append(["verify", "--suite", suite, "--n-max", n_max])
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


def version_file(version: tuple[int, int]) -> Path:
    """The digest lines that differ on Python `version` from DIGESTS."""
    return DIGESTS.with_name(f"golden-{version[0]}.{version[1]}.sha256")


def read_digests(path: Path) -> dict[str, str]:
    """argv as one string -> digest, from a file of 'digest  argv' lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split("  ", 1)[::-1] for line in lines)


def committed_digests(version: tuple[int, int]) -> dict[str, str]:
    """The digest of every argv on Python `version`: DIGESTS, with the
    version's own lines in place of those of the same argv."""
    committed = read_digests(DIGESTS)
    if version_file(version).exists():
        committed.update(read_digests(version_file(version)))
    return committed


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
    if args[1:] not in (["--check"], ["--update"]):
        print("usage: cli_golden.py --check|--update", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from gregory import cli
    print(f"gregory from {Path(cli.__file__).parent}", file=sys.stderr)
    argvs = golden_argvs()
    raised = 0
    digests = {}    # argv as one string -> block digest
    for argv in argvs:
        block, escaped = run_one(cli.main, argv)
        digests[" ".join(argv)] = hashlib.sha256(block.encode()).hexdigest()
        raised += escaped
    print(f"{len(argvs)} argv recorded, {raised} raised", file=sys.stderr)
    version = sys.version_info[:2]
    if args[1] == "--check":
        committed = committed_digests(version)
        differ = [argv for argv in {**digests, **committed}
                  if digests.get(argv) != committed.get(argv)]
        for argv in differ:
            print(f"golden digest differs: {argv}", file=sys.stderr)
        names = DIGESTS.name + (f" and {version_file(version).name}"
                                if version_file(version).exists() else "")
        print(f"{len(differ)} argv differ from {names}", file=sys.stderr)
        return 1 if raised or differ else 0
    path = DIGESTS if version == RECORDED_ON else version_file(version)
    if path != DIGESTS:
        recorded = read_digests(DIGESTS)
        digests = {argv: digest for argv, digest in digests.items()
                   if recorded.get(argv) != digest}
    if digests:
        path.write_text("".join(f"{digest}  {argv}\n" for argv, digest in digests.items()),
                        encoding="utf-8")
    else:
        path.unlink(missing_ok=True)     # this version needs no lines of its own
    return 1 if raised else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
