"""Gate the Tier-1 suite on its exact pass/fail set.

Two acceptance tests are red by design (criteria 04a and 06b; README.md
explains why) and stay unmodified.  This script reads the JUnit XML that
pytest writes with ``--junitxml`` and passes only when the failing tests
are exactly those two, so a new failure and a surprise pass both show
without either test being skipped or deselected.

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tools/check_tier1.py tier1.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_RED = ("test_criterion_04a_", "test_criterion_06b_")


def failing_tests(path: str) -> tuple[int, list[str]]:
    """(number of test cases, names of those that failed or errored)."""
    cases = ET.parse(path).getroot().iter("testcase")
    total, failing = 0, []
    for case in cases:
        total += 1
        if case.find("failure") is not None or case.find("error") is not None:
            failing.append(f"{case.get('classname')}::{case.get('name')}")
    return total, failing


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_tier1.py JUNIT_XML", file=sys.stderr)
        return 2
    total, failing = failing_tests(argv[1])
    unexpected = [name for name in failing
                  if not name.rpartition("::")[2].startswith(EXPECTED_RED)]
    missing = [prefix for prefix in EXPECTED_RED
               if not any(name.rpartition("::")[2].startswith(prefix) for name in failing)]
    for name in unexpected:
        print(f"unexpected failure: {name}")
    for prefix in missing:
        print(f"expected red test {prefix}* did not fail")
    if total == 0:
        print("no test cases in the report")
    ok = total > 0 and not unexpected and not missing
    print(f"tier-1: {total} tests, {total - len(failing)} passed, {len(failing)} failed"
          f" -> {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
