#!/usr/bin/env python3
"""A walk through the rescaled clock and the weighted calculus built on it.

Run directly: python3 demos/clock_tour.py
"""

import numpy as np

from confsemi import (Clock, FunctionHandle, Order, WeightedQuadrature,
                      conf_derivative, conf_integral, lp_delta_norm)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    banner("The rescaling map and its inverse")
    print("Order delta in (0, 1] bends the time axis: s = t^delta / delta.")
    for d in (0.3, 0.5, 1.0):
        clock = Clock(Order(d))
        t = 1.7
        s = clock.psi(t)
        print(f"  delta={d:.1f}:  t={t}  ->  s={s:.6f}  ->  back="
              f"{clock.psi_inv(s):.6f}")

    banner("Half order turns flows into square-root flows")
    clock = Clock(Order(0.5))
    print("At delta = 1/2 the map is s = 2 sqrt(t), so a semigroup composed")
    print("with it moves like exp(2 sqrt(t) A):")
    for t in (0.25, 1.0, 4.0):
        print(f"  t={t:<5} s={clock.psi(t):.4f}")

    banner("The stretched derivative obeys a shifted power rule")
    print("Applying the order-delta derivative to t^m gives m t^(m-delta):")
    square = FunctionHandle(lambda t: np.asarray(t, float) ** 2,
                            lambda t: 2.0 * np.asarray(t, float))
    for d in (0.4, 0.7, 1.0):
        got = conf_derivative(square, Order(d), 1.3)
        want = 2.0 * 1.3 ** (2.0 - d)
        print(f"  delta={d:.1f}:  D(t^2)(1.3) = {got:.10f}"
              f"   (closed form {want:.10f})")

    banner("Weighted integrals have exact small oracles")
    print("The weight t^(delta-1) makes monomials integrate to 1/(m+delta):")
    for d in (0.3, 0.5, 0.9):
        quad = WeightedQuadrature.build(Order(d), 0.0, 1.0)
        f = FunctionHandle(lambda t: np.asarray(t, float))
        got = conf_integral(f, Order(d), 0.0, 1.0, quad)
        print(f"  delta={d:.1f}:  integral of t = {got:.15f}"
              f"   (exact {1.0 / (1.0 + d):.15f})")

    banner("Norms in the weighted space")
    print("The constant 1 has squared norm 1/delta on the unit horizon:")
    one = FunctionHandle(lambda t: np.ones_like(np.asarray(t, float)))
    for d in (0.3, 0.5, 0.9):
        quad = WeightedQuadrature.build(Order(d), 0.0, 1.0)
        val = lp_delta_norm(one, 2.0, quad) ** 2
        print(f"  delta={d:.1f}:  ||1||^2 = {val:.15f}   (exact {1 / d:.15f})")
    print()
    print("Everything above is checked to tighter tolerances in tests/.")


if __name__ == "__main__":
    main()
