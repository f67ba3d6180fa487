#!/usr/bin/env python3
"""Load-capacity study: sweep g(beta) and locate the steady clearance.

Runs both contact geometries at a few exponents, writes one g-curve CSV
per case plus a summary table of roots to stdout.

    python scripts/steady_study.py --out results/steady --nx 64
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sliderfilm.dynamics import GEvaluator, Problem, SolverParams
from sliderfilm.errors import BracketFailure, InadmissibleShape
from sliderfilm.geometry import DomainRect, SliderShape, build_grid
from sliderfilm.steady import find_bracket, find_steady, g_curve
from sliderfilm.vi_solver import suggested_omega


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/steady", help="output directory")
    ap.add_argument("--nx", type=int, default=64, help="grid nodes per axis")
    ap.add_argument("--F", type=float, default=1.0, help="applied load")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    domain = DomainRect(-1.0, 1.0, -1.0, 1.0)
    grid = build_grid(domain, args.nx, args.nx)
    solver = SolverParams(omega=suggested_omega(grid), tol=1e-9)
    betas = np.logspace(-3, 1, 33)

    cases = [
        ("line_a1.5", SliderShape.line_contact(1.5)),
        ("line_a2.0", SliderShape.line_contact(2.0)),
        ("line_a3.0", SliderShape.line_contact(3.0)),
        ("point_a2.0", SliderShape.point_contact(2.0)),
        ("point_a3.0", SliderShape.point_contact(3.0)),
    ]

    print(f"{'case':<12} {'beta*':>12} {'g(beta*)':>12} {'evals':>6}")
    for name, shape in cases:
        prob = Problem(shape=shape, grid=grid, F=args.F, eta0=0.5, eta1=0.0, solver=solver)
        ev = GEvaluator(prob)
        curve = g_curve(ev, betas)
        curve.to_csv(out / f"gcurve_{name}.csv")
        try:
            res = find_steady(ev, find_bracket(ev, 0.5), tol_residual=1e-6)
            print(f"{name:<12} {res.beta_star:>12.6f} {res.g_at_root:>12.2e} {res.evaluations:>6}")
        except (InadmissibleShape, BracketFailure) as exc:
            print(f"{name:<12} -- {exc}")
    print(f"curves written to {out}/")


if __name__ == "__main__":
    main()
