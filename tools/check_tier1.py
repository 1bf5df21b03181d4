"""Gate the Tier-1 suite on its exact pass/fail set.

Two acceptance tests are red by design (criteria 04a and 06b; README.md
explains why) and stay unmodified.  This script reads the JUnit XML that
pytest writes with ``--junitxml`` and passes only when the failing tests
are exactly those two, so a new failure and a surprise pass both show
without either test being skipped or deselected.  A skipped test fails
the gate too: with the ``test`` extra installed every Tier-1 test runs,
so a skip means a missing dependency hid it.

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tools/check_tier1.py tier1.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_RED = ("test_criterion_04a_", "test_criterion_06b_")


def outcomes(path: str) -> tuple[int, list[str], list[str]]:
    """(number of test cases, names of those that failed or errored, names
    of those that were skipped)."""
    cases = ET.parse(path).getroot().iter("testcase")
    total, failing, skipped = 0, [], []
    for case in cases:
        total += 1
        name = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            failing.append(name)
        elif case.find("skipped") is not None:
            skipped.append(name)
    return total, failing, skipped


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_tier1.py JUNIT_XML", file=sys.stderr)
        return 2
    total, failing, skipped = outcomes(argv[1])
    unexpected = [name for name in failing
                  if not name.rpartition("::")[2].startswith(EXPECTED_RED)]
    missing = [prefix for prefix in EXPECTED_RED
               if not any(name.rpartition("::")[2].startswith(prefix) for name in failing)]
    for name in unexpected:
        print(f"unexpected failure: {name}")
    for prefix in missing:
        print(f"expected red test {prefix}* did not fail")
    for name in skipped:
        print(f"skipped: {name}")
    if total == 0:
        print("no test cases in the report")
    ok = total > 0 and not unexpected and not missing and not skipped
    passed = total - len(failing) - len(skipped)
    print(f"tier-1: {total} tests, {passed} passed, {len(failing)} failed,"
          f" {len(skipped)} skipped -> {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
