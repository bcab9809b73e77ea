"""Multi-material topology optimization of pressure-driven compliant mechanisms.

Designs soft pneumatic grippers and fingers on structured voxel grids: a
porous-flow model locates the pressure boundary implicitly, linear-elastic
FEM predicts deformation, adjoint sensitivities feed a moving-asymptotes
optimizer, and post-processing steps seal the result airtight.

Importing the package before numpy sets every BLAS thread count the user
left unset to 1.
"""
import os
import sys

from .errors import ConfigError, PneumotopError, SolveError

__version__ = "0.1.0"

# One BLAS thread unless the user sets another count, and only while numpy
# is not yet loaded, since its BLAS reads these when it loads: the solver's
# banded Cholesky and small products lose more to thread synchronisation
# than they gain (LAPACK's dpbtrf on the finger2d elastic band: 6.2 ms on
# one thread, 17-18 ms on two).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

__all__ = ["ConfigError", "PneumotopError", "SolveError", "__version__"]
