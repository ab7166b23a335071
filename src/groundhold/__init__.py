"""Ground holding optimization: deterministic, stochastic and distributionally
robust models over a self-contained simplex / branch-and-bound engine.

Importing the package pins the BLAS library numpy uses to one thread unless
the environment already says otherwise: pivot counts, node counts and the
last bits of an optimum depend on the thread count, and extra threads cost
CPU time on the small products the simplex kernel makes.  This runs before
any submodule imports numpy, which reads the setting once, at load.

The package's public names are the ``__all__`` of ``domain``, ``evaluate``,
``ingest``, ``milp``, ``models``, ``solver`` and ``wasserstein``, imported
whole: each module's ``__all__`` is the one list of its public names.
``cli`` and ``simplex`` add no names.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .domain import *
from .evaluate import *
from .ingest import *
from .milp import *
from .models import *
from .solver import *
from .wasserstein import *

__version__ = "0.1.0"
