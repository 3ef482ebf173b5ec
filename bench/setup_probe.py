"""One benchmark set-up in a fresh interpreter: import annealtune, generate a
workload's inputs and build the evaluator of its first run, then print
``ready``. run.py times a set-up from starting this process to that line, so
the time covers the interpreter, every import (numpy included), input
generation, corpus preparation and evaluator construction.

    python3 bench/setup_probe.py --workload textcnn-study --seed 1 --out /tmp/setup
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
from annealtune import cli  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    paths = inputs.generate(args.workload, args.seed, args.out)
    cli.build_evaluator(cli.load_run_config(paths[0]))
    print("ready", flush=True)


if __name__ == "__main__":
    main()
