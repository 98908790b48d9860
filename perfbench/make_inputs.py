"""Set-up step of the benchmark: write one workload's synthetic inputs.

run.py starts this script in a fresh interpreter and times it whole, so
set-up time covers interpreter start, the program's imports, input
generation and file writing.

    python3 perfbench/make_inputs.py --workload pipeline --seed 0 --out DIR [--small]
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import motionemu.cli  # noqa: E402,F401  the program's full import is part of set-up

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    sizes = workloads.SMALL if args.small else workloads.FULL
    workloads.make_inputs(args.workload, sizes[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
