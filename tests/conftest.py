"""Test-session setup.

OpenBLAS is pinned to one thread per test process before numpy loads: the
tests run many tiny LAPACK calls (2x2 expm), and waking a BLAS thread pool
for each one makes their wall time follow host load.  An explicit setting
in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from confsemi import drift_diffusion as dd  # noqa: E402  (after the pin)


def graded_pair(p, n, clamp_right=True, corpus=dd._CLAMPED_CORPUS):
    """The graded operator of p on n nodes as a dense matrix (the entries
    mild_solution_residuals flows: the scalar unitary leaves it as it is),
    its classical twin, the corpus block and the window rows."""
    grid = dd.GridPair.build(n, p.delta)
    return (dd.build_conformable_operator(p, grid, clamp_right).entries,
            dd.build_classical_operator(p, grid, clamp_right),
            dd._corpus_block(grid, corpus), dd._window_rows(grid))
