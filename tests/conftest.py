"""Pin BLAS to one thread before NumPy loads, as ``benchmarks/run.py`` does.

With the BLAS default of one thread per core, small matrix products slow
down several times over whenever another process keeps a second core busy;
one thread makes the suite's timing independent of the host's load.  A
thread count already set in the environment is kept, so a run can ask for
more on purpose (CI runs the bitwise oracle tests on two).  The variables
take effect only if NumPy has not been imported yet, which is checked here
rather than assumed.
"""

import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if "numpy" in sys.modules:
    warnings.warn(
        "numpy was imported before tests/conftest.py ran, so its BLAS thread "
        "count is not pinned to one",
        RuntimeWarning,
    )

# A failing ``@given`` test makes Hypothesis's pytest plugin import its patch
# writer, which imports libcst, whose import raises a DeprecationWarning (from
# mypy_extensions).  Under ``-W error`` that became an INTERNALERROR that ended
# the session before any later failure was reported.  Importing it once here,
# with that category ignored for this import alone, leaves it cached.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis then writes no patch at all
        pass
