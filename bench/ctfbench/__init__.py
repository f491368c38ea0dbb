"""Workloads and tracing for the ctfrealize benchmark (see ../README.md).

Importing this package loads no numpy, so the runner can pin the BLAS
pools first."""

WORKLOADS = ("decide", "plans", "bandit", "audit")

# thread-pool sizes pinned to 1 before numpy is first imported
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
