"""Set-up probe: import liekernel, build one workload's inputs, print digest.

Usage: python3 perfbench/probe.py WORKLOAD SEED

The caller times this fresh process from start until the digest line
arrives, which is the workload's set-up time.
"""

import sys

import workloads


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import liekernel  # noqa: F401  (the import is part of set-up)

    print(workloads.digest(workloads.build_inputs(workload, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
