"""Pin the BLAS library to one thread before any test module imports numpy.

Pivot counts, node counts and the last bits of an optimum depend on the
BLAS thread count, and the suite asserts some of them; CI sets the same
three variables in its environment.  ``groundhold`` pins them itself on
import, but the test modules import numpy first, which reads them once, at
load.
"""

import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
