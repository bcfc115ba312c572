"""``python -m bench one ...`` (one run, the driver's command) and
``python -m bench run ...`` (every workload, each in a child interpreter)."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import load_spec

#: BLAS thread pins, set before numpy is imported: one process, one thread.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("one", help="run one workload in this process")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, default=0)
    one.add_argument("--seconds", type=float, default=None)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)

    run = commands.add_parser("run", help="run every workload, traced and untraced")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--sets", type=int, default=1)
    run.add_argument("--workload", action="append", help="only these (repeatable)")

    args = parser.parse_args(argv)
    if args.command == "run":
        from .suite import run_suite

        return run_suite(args.seed, args.seconds, args.sets, args.workload)

    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    try:
        from .runner import run_one
    except ImportError as error:
        print(f"bench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    print("one process, one thread: " + " ".join(f"{k}={v}" for k, v in THREAD_PINS.items()))
    run_one(args.workload, args.seed, seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
