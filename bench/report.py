"""Every end-to-end metric and fail_frac, for all four workloads, in one table.

    python3 bench/report.py [--seed N] [--seconds S]

Runs each workload untraced exactly as `run.py --trace 0` does and checks
every job against its reference.
"""

from __future__ import annotations

import argparse
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    print(f"{'workload':<15}{'setup_s (s)':>13}{'wall_norm_s (s)':>17}{'peak_rss_mb (MB)':>18}"
          f"  fail_frac")
    for workload in WORKLOADS:
        try:
            m = run.measure(workload, args.seed, args.seconds, trace=False)
        except run.BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        e2e = run.end_to_end(m)
        print(f"{workload:<15}{e2e['setup_s']:>13.4f}{e2e['wall_norm_s']:>17.4f}"
              f"{e2e['peak_rss_mb']:>18.1f}  {run.fail_line(*run.tally(m))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
