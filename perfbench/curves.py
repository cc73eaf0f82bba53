"""Layer scaling curves: each public kernel timed on its own at growing n.

Inputs are generated here (fixed coefficients a=1, b=1, c=0.4, delta=0.5),
not taken from a CLI run.  A point whose single call exceeds CALL_BUDGET_S
on the reference machine is skipped, so that every traced run stays within
the benchmark's time limit; SKIPPED lists them with the measured time.
"""

from __future__ import annotations

import statistics
import time

SIZES = (128, 256, 512, 1024)
KERNELS = ("drift_diffusion.grid_build", "drift_diffusion.assemble",
           "drift_diffusion.conjugacy", "semigroup.evolve",
           "semigroup.dissipativity", "semigroup.resolvent", "dynamics.probe")
CALL_BUDGET_S = 1.5
# single-call times at n=1024, one BLAS thread, 2-core x86-64 (OpenBLAS 0.3.31)
SKIPPED = {
    ("semigroup.evolve", 1024): 7.8,
    ("semigroup.resolvent", 1024): 2.1,
}
# repeat a point until this much time or this many calls, whichever first
REPEAT_S = 0.3
REPEAT_CALLS = 3


def curve_metrics() -> list:
    return [f"{kernel}.n{n}_s" for kernel in KERNELS for n in SIZES
            if (kernel, n) not in SKIPPED]


def _kernels(n: int) -> dict:
    """Zero-argument calls of each kernel at size n, inputs built up front."""
    from confsemi.clock import Order
    from confsemi import drift_diffusion as dd
    from confsemi import dynamics as dy
    from confsemi import semigroup as sg

    p = dd.DriftDiffusionParams(a=1.0, b=1.0, c=0.4, delta=Order(0.5))
    grid = dd.GridPair.build(n, p.delta)
    twin = dd.build_classical_operator(p, grid, clamp_right=True)
    vec = (grid.xi_nodes * (1.0 - grid.xi_nodes)).astype(complex)
    lap = sg.dirichlet_second_difference(n)
    fam = dd.EigenfunctionFamily.from_params(
        dd.DriftDiffusionParams(a=1.0, b=1.0, c=0.4, delta=Order(1.0)))
    rect = dy.LambdaRectangle(center=0j, re_half=2.0, im_half=12.0)
    return {
        "drift_diffusion.grid_build": lambda: dd.GridPair.build(n, p.delta),
        "drift_diffusion.assemble": lambda: (
            dd.build_conformable_operator(p, grid, clamp_right=True),
            dd.build_classical_operator(p, grid, clamp_right=True)),
        "drift_diffusion.conjugacy": lambda: dd.conjugacy_residual(p, (n,)),
        "semigroup.evolve": lambda: sg.evolve_classical(twin, 0.5, vec),
        "semigroup.dissipativity": lambda: sg.dissipativity_margin(lap),
        "semigroup.resolvent": lambda: sg.resolvent_bound_check(lap, 1.0),
        "dynamics.probe": lambda: dy.dsw_hypotheses_probe(fam, rect, n=n),
    }


def _time(call) -> float:
    times = []
    spent = 0.0
    while spent < REPEAT_S and len(times) < REPEAT_CALLS:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


def scaling_curves() -> dict:
    """Median call time of every kernel at every size not skipped."""
    out = {}
    for n in SIZES:
        calls = _kernels(n)
        for kernel in KERNELS:
            if (kernel, n) not in SKIPPED:
                out[f"{kernel}.n{n}_s"] = _time(calls[kernel])
    return out
