#!/usr/bin/env python3
"""Benchmark of the oblique toolkit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sphere-lattice --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  Each pass sets the
workload up and runs its fixed job list; passes repeat until ``--seconds``
are used up.  The first pass's outputs are checked, and every later pass must
reproduce them exactly.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it spends half the time untraced and half traced,
and prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to one thread (<= nproc); must run before numpy
    is imported.  Returns nproc."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program() -> None:
    """Import ``oblique`` from the checkout's ``src/``, or exit non-zero."""
    package = ROOT / "src" / "oblique"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(package.parent))
    import oblique

    if Path(oblique.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported oblique from {oblique.__file__}, not from {package}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    nproc = pin_threads()
    import_program()
    import harness

    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.workloads.WORKLOADS)}")
    return harness.run(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
