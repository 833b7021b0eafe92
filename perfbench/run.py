#!/usr/bin/env python3
"""Benchmark of the pptlab CLI, driven in-process through ``pptlab.cli.run``.

    python3 perfbench/run.py --workload {spectral,process,tomography} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports pptlab from ``src/``.  This
file only parses the arguments and pins the thread counts before numpy
loads; ``harness.py`` does the rest.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PPTLAB_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' serves the self-test")
    p.add_argument("--references", default=str(BENCH_DIR / "references.json"))
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def pin_threads() -> dict:
    """Pin BLAS to one thread (never above nproc) and the CLI's figs2 seed
    pool to one worker; return what the environment had.

    One client issues one op at a time on matrices of at most 256 x 256,
    where a second BLAS thread gains little and adds scheduling noise.
    """
    inherited = {var: os.environ.get(var, "unset") for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return inherited


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pptlab" / "cli.py").is_file():
        print(f"error: no pptlab sources under {SRC}", file=sys.stderr)
        return 2
    inherited = pin_threads()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import harness

    return harness.main(args, _T0, inherited)


if __name__ == "__main__":
    sys.exit(main())
