"""Test-session setup.

OpenBLAS is pinned to one thread per test process before numpy loads: the
tests run many tiny LAPACK calls (2x2 expm), and waking a BLAS thread pool
for each one makes their wall time follow host load.  An explicit setting
in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
