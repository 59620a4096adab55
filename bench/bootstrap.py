"""Process set-up shared by the benchmark's entry points.

Pins the BLAS and OpenMP thread pools before numpy is first imported, then
imports nlcflow from the checkout's own ``src`` tree (never from an installed
copy), so the benchmark always measures the source it sits next to.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread per pool: the solvers' reductions are meant to be
# single-threaded, and one pinned thread keeps timings steady on a small
# shared machine. It never exceeds the core count.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def prepare() -> dict:
    """Pin thread pools, import nlcflow from ``ROOT/src`` and return the
    environment record. Exits with a message on stderr (status 1) when the
    package source is missing."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    pkg = SRC / "nlcflow"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: nlcflow source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlcflow
    if Path(nlcflow.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported nlcflow from {nlcflow.__file__}, "
                 f"not from {pkg}")

    import numpy
    import scipy
    import sympy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
    }
