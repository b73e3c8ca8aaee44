"""Regenerate the golden CLI reports the benchmark's oracles compare to.

Usage, from the root of a checkout:

    python3 perfbench/make_golden.py

Writes perfbench/golden/<name>.json for every bundled-input CLI case and
for paper-suite, with timings and the kernel backend removed (and the
paper-suite seed set to null, since the benchmark seeds it).  Only run it
when a change to the reports is intended, and review the diff.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import barloop.cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def main():
    os.makedirs(oracles.GOLDEN_DIR, exist_ok=True)
    cases = dict(workloads.CLI_CASES)
    cases[workloads.PAPER_SUITE] = ["paper-suite", "--seed", "1"]
    for name, argv in cases.items():
        code, report = workloads.run_cli(barloop.cli, argv)
        report = oracles.strip_report(report)
        if name == workloads.PAPER_SUITE:
            report["params"]["seed"] = None
        with open(oracles.golden_path(name), "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    main()
