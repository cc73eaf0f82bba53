#!/usr/bin/env python3
"""Spectral probes behind the linear-dynamics story, at desk scale.

The interesting dynamics of the straightened operator come from a band of
eigenvalues crossing the imaginary axis.  This script checks the coefficient
condition that opens the band, probes the eigenfunction family on a small
rectangle, and exhibits the decay / landing / periodic witnesses.

Run directly: python3 demos/spectral_witnesses.py
"""

import numpy as np

from confsemi import (Clock, DriftDiffusionParams, EigenfunctionFamily,
                      LambdaRectangle, Order, dsw_condition_check,
                      dsw_hypotheses_probe, periodic_orbit_check, x0_probe,
                      xinf_probe)
from confsemi.config import TOLERANCE_DEFAULTS


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    banner("The coefficient band c < b^2/(2a) < 1")
    for a, b, c in ((1.0, 1.0, 0.4), (1.0, 1.0, 0.6), (1.0, 2.0, 0.5)):
        out = dsw_condition_check(DriftDiffusionParams(a, b, c, Order(1.0)))
        verdict = "inside " if out["holds"] else "outside"
        print(f"  (a,b,c)=({a},{b},{c}):  ratio {out['ratio']:.3f}  "
              f"-> {verdict} the band")

    fam = EigenfunctionFamily.from_params(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0)))

    banner("Eigenfunction family on a rectangle touching the axis")
    rect = LambdaRectangle(center=0.0, re_half=2.0, im_half=12.0)
    rep = dsw_hypotheses_probe(fam, rect, n=256)
    print(f"grid n = {rep.n}, mesh h = {rep.h:.5f}")
    print(f"worst eigen residual / bound ratio : {rep.worst_eigen_ratio():.3f}")
    print(f"worst contour analyticity residual : {rep.worst_analyticity():.3e}")
    print(f"corner Gram determinant            : {rep.gram['det']:.3e}"
          f"  (threshold {TOLERANCE_DEFAULTS['gram_min']:.0e})")

    banner("Decay witness: a left-half-plane mode shrinks on schedule")
    decay = x0_probe(fam, -1.0, np.linspace(0.0, 4.0, 9))
    print(f"norm ratio error vs exp(Re(lam) t): {decay['worst_error']:.3e}")
    print(f"monotone decay: {decay['monotone_decay']}")

    banner("Landing witness: tiny seed, prescribed arrival")
    landing = xinf_probe(fam, 1.0, eps=1e-3)
    print(f"seed norm {landing['seed_norm']:.3e} (budget 1e-03), "
          f"arrival time t* = {landing['t_star']:.4f}")
    print(f"terminal coefficient error: {landing['terminal_error']:.3e}")

    banner("Periodic witness: a purely imaginary mode returns")
    orbit = periodic_orbit_check(fam, omega=2.0 * np.pi)
    clock = Clock(Order(0.5))
    print(f"classical period tau = {orbit['tau']:.4f}, "
          f"rescaled return time = {orbit['t_return']:.4f} "
          f"(clock inverse of tau: {clock.psi_inv(orbit['tau']):.4f})")
    print(f"full-period coefficient error: "
          f"{orbit['coefficient_error_full']:.3e}")
    print(f"half-period sign flip error  : "
          f"{orbit['coefficient_error_half']:.3e}")


if __name__ == "__main__":
    main()
