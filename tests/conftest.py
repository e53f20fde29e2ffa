"""One BLAS thread for the whole suite, set before numpy is imported.

OpenBLAS rounds some small matrix products differently at one thread and
at two, and the L-BFGS ascent can follow such a difference to another
iterate; the bitwise pins in these tests are the one-thread values, the
setting the benchmark's worker runs under.
"""

import os

import pytest

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


@pytest.fixture
def grid_norm():
    """T's rectangle-rule L_p norm on the uniform grid of shape L (an int
    per axis, or one for all), with no refinement: the value ``norm_lp``
    starts from, by the layer it is built on."""
    import numpy as np

    from bnsharp.trigpoly import SamplingGrid, evaluate_grid

    def norm(T, p, L):
        shape = (L,) * T.m if np.isscalar(L) else tuple(L)
        keys = np.array(list(T.coefficients), dtype=np.int64)
        return SamplingGrid(keys, shape).norm(evaluate_grid(T, L), p)
    return norm
