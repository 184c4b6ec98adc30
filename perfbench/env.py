"""Process environment shared by every interpreter the benchmark starts."""

from __future__ import annotations

# One compute thread per BLAS/OpenMP runtime, so that the two lemma-check
# pool threads (HCL_THREADS=2) are the only parallelism on the 2-core host.
PINNED = {
    "HCL_THREADS": "2",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_threads(environ) -> None:
    environ.update(PINNED)
