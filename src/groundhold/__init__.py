"""Ground holding optimization: deterministic, stochastic and distributionally
robust models over a self-contained simplex / branch-and-bound engine.

Importing the package pins the BLAS library numpy uses to one thread unless
the environment already says otherwise: pivot counts, node counts and the
last bits of an optimum depend on the thread count, and extra threads cost
CPU time on the small products the simplex kernel makes.  This runs before
any submodule imports numpy, which reads the setting once, at load.  A
program that imported numpy first is too late for the pin: importing the
package then issues a ``RuntimeWarning`` naming the variables left unset.

The package's public names are the ``__all__`` of ``domain``, ``evaluate``,
``ingest``, ``milp``, ``models``, ``solver`` and ``wasserstein``, imported
whole: each module's ``__all__`` is the one list of its public names.
``cli`` and ``simplex`` add no names.
"""

import os
import sys
import warnings

_unset = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if v not in os.environ]
if _unset and "numpy" in sys.modules:
    warnings.warn(f"numpy was imported before groundhold, so its BLAS library is not pinned to one thread: "
                  f"set {', '.join(_unset)} before numpy loads", RuntimeWarning)
os.environ.update(dict.fromkeys(_unset, "1"))
del _unset

from .domain import *
from .evaluate import *
from .ingest import *
from .milp import *
from .models import *
from .solver import *
from .wasserstein import *

__version__ = "0.1.0"
