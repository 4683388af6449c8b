"""Reduced-basis Richardson iteration unrolled into certified ReLU operators."""

import os

# One BLAS thread, as dense products change their last bits with the thread count. A count the
# caller set wins, and a process that imported numpy before richop keeps its own thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import (  # noqa: E402
    coeff,
    encoder,
    fem,
    mesh,
    pipeline,
    reduced_basis,
    relu_net,
    richardson,
)

__all__ = [
    "mesh",
    "fem",
    "coeff",
    "encoder",
    "reduced_basis",
    "richardson",
    "relu_net",
    "pipeline",
]
