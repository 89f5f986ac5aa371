#!/usr/bin/env python3
"""Run every bundled verification case and print the full reports."""

import sys

from lowerk.casebook import CASES, run_case


def main() -> int:
    reports = [run_case(name) for name in CASES]
    for report in reports:
        print(report.to_table())
        print()
    failed = [r.case for r in reports if not r.passed]
    if failed:
        print(f"FAILED cases: {', '.join(failed)}")
        return 1
    print(f"all {len(reports)} cases pass "
          f"({sum(len(r.checks) for r in reports)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
