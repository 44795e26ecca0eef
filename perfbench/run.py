"""Benchmark of rodwave.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 20 --trace 0

Workloads: sweep-default, geom-sweep, point-queries, impedance-spectrum.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is the result as one JSON object.
"""

import os
import sys

if __name__ == "__main__":
    # one BLAS thread, set before numpy loads so that every run is
    # single-threaded whatever the host offers
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from bench import main

    sys.exit(main())
