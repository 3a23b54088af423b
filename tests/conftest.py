import os

# One BLAS/OpenMP thread, set before numpy loads: the timing tests compare
# per-doubling growth, which a thread pool switching on with size distorts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
