#!/usr/bin/env python3
"""Radial transport forcing u = c (x - x0): hold at R* and divergence away.

With dR/dt = -1/R + cR, the balance radius R* = 1/sqrt(c) is an unstable
equilibrium (f'(R*) = 1/R*^2 + c > 0). Starting exactly at R* the simulated
circle holds for a while; starting off R* it diverges, in both cases tracking
the exact ODE. This script shows all three starts side by side.
"""

import argparse
import sys
import warnings

import numpy as np

from actx.grid import GridSpec
from actx.interface import mcf_oracle
from actx.scenario import ScenarioConfig, parse_sexpr, transport_from_sexpr
from actx.shapes import Ball
from actx.solver import SolverConfig, run


def main_script(cells: int, c: float, t_end: float) -> int:
    spec = GridSpec(2, (0.0, 0.0), (1.6, 1.6), (cells, cells))
    rstar = 1.0 / np.sqrt(c)
    print(f"forcing c = {c}: balance radius R* = {rstar:.4f} (unstable)")
    for r0 in (0.8 * rstar, rstar, 1.2 * rstar):
        cfg = ScenarioConfig(
            grid=spec,
            shape=Ball((0.8, 0.8), r0),
            transport=transport_from_sexpr(parse_sexpr(f"(radial {c!r} 0.8 0.8)"), 2),
            epsilon=8 * 1.6 / cells,
            t_end=t_end,
            tau=t_end / 5,
            inset_prime=0.12,
            inset_dprime=0.06,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run(cfg, SolverConfig(diag_every=100))
        oracle = mcf_oracle(r0, c, 2, t_end)
        print(f"\nR0 = {r0:.4f}:")
        print("   t        R_sim     R_ode")
        for row in res.rows[:: max(1, len(res.rows) // 8)]:
            ref = oracle.radius(row.t)
            sim = f"{row.interface_radius:.5f}" if row.interface_radius > 0 else "gone   "
            ode = f"{ref:.5f}" if np.isfinite(ref) else "extinct"
            print(f"  {row.t:.4f}   {sim}   {ode}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, default=192)
    ap.add_argument("--c", type=float, default=16.0)
    ap.add_argument("--t-end", dest="t_end", type=float, default=0.05)
    args = ap.parse_args()
    sys.exit(main_script(args.cells, args.c, args.t_end))
