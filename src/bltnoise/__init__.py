"""Near-optimal streaming factorizations of the prefix-sum matrix.

Factor the all-ones lower-triangular matrix as A = B C with both factors
lower-triangular Toeplitz operators whose coefficient sequences satisfy a
degree-d linear recurrence.  Then correlated Gaussian noise B z for
differentially private prefix sums can be produced in O(d m) space per step,
and the max-error objective ||B||_{2->inf} * ||C||_{1->2} has a closed form.

Importing the package loads numpy's BLAS with one thread, unless numpy is
already loaded or the caller set a BLAS thread variable: the GEMMs here are at
most 64 x 64 by 64 x 128, too small for a pool to pay for the CPU time it
spins away.  ``os.environ`` is left as it was.
"""

import os
import sys

# OpenBLAS sizes its pool once, when numpy loads it, from the first of these
# it finds; a value the caller set always wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os, sys, _BLAS_THREAD_VARS

from .params import (
    BltFactorization,
    residues_from_roots,
    degree1_closed_form,
    save_factorization,
    load_factorization,
)
from .error_eval import MaxErrReport, max_err
from .streaming import NoiseStreamConfig, noise_stream
from .rational import degree_for_error, ra_blt_build
from .optimizer import OptConfig, OptResult, optimize_blt
from .recursive import recursive_norms, recursive_stream, blt_base_factory, theorem2_params

__all__ = [
    "BltFactorization",
    "residues_from_roots",
    "degree1_closed_form",
    "save_factorization",
    "load_factorization",
    "MaxErrReport",
    "max_err",
    "NoiseStreamConfig",
    "noise_stream",
    "degree_for_error",
    "ra_blt_build",
    "OptConfig",
    "OptResult",
    "optimize_blt",
    "recursive_norms",
    "recursive_stream",
    "blt_base_factory",
    "theorem2_params",
]

__version__ = "0.1.0"
