"""Compare this tree's exact table builders with another checkout's: bits, then time.

    python tools/exact_ab.py OTHER_SRC [--rounds N]

Loads ``OTHER_SRC/gregory/exact.py`` and this tree's ``src/gregory/exact.py``
by path, as two separate modules (the module needs nothing but the
standard library), through ``tools/engine_ab.py``'s loader.  For each
builder, ``bernoulli2_series`` and ``bernoulli2_explicit_table``, it prints
a SHA-256 of the N = 256 table as its ``format_rational`` strings in both
trees, so that equal digests show bit-identical tables, and it exits 1 if
any pair differs.  Then, unless ``--rounds 0``, it times each builder on
two workloads over N rotating rounds (default 30): 1,000 calls each at
N = 1 and N = 8, the per-call cost, and one call each at N = 64, 128 and
256, the benchmark's range.  As in engine_ab.py, it prints the median and
quartiles of the per-round time ratio of this tree to OTHER_SRC next to an
A/A control (this tree against a second load of itself), and the three
loads take turns at each place in the timing order.
Stdlib only; 30 rounds take about a minute on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import engine_ab  # noqa: E402  (a sibling script, not a package)

BUILDERS = ("bernoulli2_series", "bernoulli2_explicit_table")
DIGEST_N = 256
SMALL = (1, 8)
SMALL_CALLS = 1000
LARGE = (64, 128, 256)


def digests(module) -> dict[str, str]:
    """Each builder's N = DIGEST_N table as a SHA-256 of its format_rational lines."""
    return {name: hashlib.sha256("\n".join(
                map(module.format_rational, getattr(module, name)(DIGEST_N).values)
            ).encode()).hexdigest()
            for name in BUILDERS}


def workloads() -> list:
    """(label, build, cold) triples for engine_ab.timing: per builder, the
    small-N calls and the benchmark-range calls, each warm (the builders
    take no tolerance)."""
    out = []
    for name in BUILDERS:
        out.append((f"{name} N=1,8", lambda module, rng, name=name: [
            (getattr(module, name), (n,)) for n in SMALL for _ in range(SMALL_CALLS)], False))
        out.append((f"{name} N=64-256", lambda module, rng, name=name: [
            (getattr(module, name), (n,)) for n in LARGE], False))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the other checkout's src directory")
    parser.add_argument("--rounds", type=int, default=30,
                        help="timed rounds, 0 for the digests only (default 30)")
    args = parser.parse_args(argv)
    if args.rounds == 1 or args.rounds < 0:
        parser.error("--rounds must be 0 or at least 2")     # quartiles need two
    head = engine_ab.load(engine_ab.HERE, "exact_ab_head", "exact")
    other = engine_ab.load(args.other_src, "exact_ab_other", "exact")
    mine, theirs = digests(head), digests(other)
    for name in BUILDERS:
        print(f"{name}({DIGEST_N}) sha256 this tree {mine[name]}")
        print(f"{name}({DIGEST_N}) sha256 other     {theirs[name]}")
    differ = [name for name in BUILDERS if mine[name] != theirs[name]]
    print(f"{len(BUILDERS)} tables at N = {DIGEST_N}, {len(differ)} differ")
    if args.rounds:
        engine_ab.timing(head, other, engine_ab.load(engine_ab.HERE, "exact_ab_control", "exact"),
                         args.rounds, workloads())
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
