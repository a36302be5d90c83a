"""Pin BLAS to one thread before NumPy loads, as ``benchmarks/run.py`` does.

With the BLAS default of one thread per core, small matrix products slow
down several times over whenever another process keeps a second core busy;
one thread makes the suite's timing independent of the host's load.  The
variables take effect only if NumPy has not been imported yet, which is
checked here rather than assumed.
"""

import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    warnings.warn(
        "numpy was imported before tests/conftest.py ran, so its BLAS thread "
        "count is not pinned to one",
        RuntimeWarning,
    )
