"""One BLAS thread for the whole suite, set before numpy is imported.

OpenBLAS rounds some small matrix products differently at one thread and
at two, and the L-BFGS ascent can follow such a difference to another
iterate; the bitwise pins in these tests are the one-thread values, the
setting the benchmark's worker runs under.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
