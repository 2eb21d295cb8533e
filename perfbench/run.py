"""Benchmark of quatu11, run against the working tree's src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, calls in a closed loop.  With --trace 0 it times
whole passes over the workload's items until S seconds have gone by and
reports the end-to-end metrics; with --trace 1 it reports the per-layer
metrics instead (README.md in this directory lists both).  Stdout ends with
a line of context (versions, sample counts) and then the result line.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quatu11" / "__init__.py").is_file():
        print(f"perfbench: no quatu11 sources under {SRC}; run it from the "
              "root of a quatu11 checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import quatu11

    if not Path(quatu11.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported quatu11 from {quatu11.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
