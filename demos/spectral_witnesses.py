#!/usr/bin/env python3
"""Spectral probes behind the linear-dynamics story, at desk scale.

The interesting dynamics of the straightened operator come from a band of
eigenvalues crossing the imaginary axis.  This script checks the coefficient
condition that opens the band, probes the eigenfunction family on a small
rectangle, and exhibits the decay / landing / periodic witnesses.

Run directly: python3 demos/spectral_witnesses.py
"""

import numpy as np

from confsemi import (DriftDiffusionParams, EigenfunctionFamily, GridPair,
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
        verdict = "inside " if out["status"] == "condition_met" else "outside"
        print(f"  (a,b,c)=({a},{b},{c}):  ratio {out['ratio']:.3f}  "
              f"-> {verdict} the band")

    fam = EigenfunctionFamily.from_params(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0)))

    banner("Eigenfunction family on a rectangle touching the axis")
    rect = LambdaRectangle(center=0.0, re_half=2.0, im_half=12.0)
    n = 256
    probe = dsw_hypotheses_probe(fam, rect, n=n)
    print(f"grid n = {n}, mesh h = {GridPair.build(n, Order(1.0)).h:.5f}")
    print(f"worst eigen residual / bound ratio : "
          f"{probe['eigen_residual'][0]:.3f}")
    print(f"worst contour analyticity residual : {probe['analyticity'][0]:.3e}")
    print(f"corner Gram determinant            : {probe['gram']['det']:.3e}"
          f"  (threshold {TOLERANCE_DEFAULTS['gram_min']:.0e})")

    banner("Decay witness: a left-half-plane mode shrinks on schedule")
    error, decay = x0_probe(-1.0, np.linspace(0.0, 4.0, 9))
    print(f"norm ratio error vs exp(Re(lam) t): {error:.3e}")
    print(f"monotone decay: {decay['monotone']}")

    banner("Landing witness: tiny seed, prescribed arrival")
    error, landing = xinf_probe(fam, 1.0, eps=1e-3)
    print(f"seed norm {landing['seed_norm']:.3e} (budget 1e-03), "
          f"arrival time t* = {landing['t_star']:.4f}")
    print(f"terminal coefficient error: {error:.3e}")

    banner("Periodic witness: a purely imaginary mode returns")
    error, orbit = periodic_orbit_check(omega=2.0 * np.pi)
    order = Order(0.5)
    print(f"classical period tau = {orbit['tau']:.4f}, "
          f"rescaled return time = {orbit['t_return']:.4f} "
          f"(clock inverse of tau: {order.psi_inv(orbit['tau']):.4f})")
    print(f"worst return error (full and half period, flow, clock "
          f"transfer): {error:.3e}")


if __name__ == "__main__":
    main()
