"""Test-session setup: one BLAS thread unless the environment says otherwise.

The suite runs many small numpy problems, on which BLAS threads cost more
than they give.  pytest reads this file before any test module imports
numpy, so OpenBLAS sees the setting when it loads; the subprocesses the
CLI tests start inherit it.  The library itself sets no threads.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
