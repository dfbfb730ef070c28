"""Locate the checkout, pin the single-thread load and put ``src`` on the path.

Import this before numpy or groundbound: BLAS reads its thread count when
numpy loads.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """One BLAS thread, GROUNDBOUND_THREADS unset, this checkout's source first."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GROUNDBOUND_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "groundbound", "__init__.py")):
        raise SystemExit(f"error: no groundbound source under {SRC}")
    sys.path.insert(0, SRC)
