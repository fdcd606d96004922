"""Test-session setup: one BLAS/OpenMP thread per process.

The thread caps are read when numpy loads its BLAS, so they are set here,
before any test module imports numpy.  With one thread the runtime budgets
of the acceptance tests do not depend on what else runs on the machine.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
