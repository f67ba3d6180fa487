#!/usr/bin/env python3
"""Flat-slider decay study: simulated height vs the scalar reference model.

Integrates the coupled run on the grid, the reference ODE from the
series constant, and the closed-form lower envelope, then reports the
worst deviations and writes a combined CSV.

    python scripts/flat_decay_study.py --t-end 200 --eta1 -0.5
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sliderfilm.csvio import write_csv
from sliderfilm.dynamics import Problem, SolverParams, StepControl, integrate_trajectory
from sliderfilm.geometry import DomainRect, SliderShape, build_grid
from sliderfilm.oracle import flat_envelope, flat_model, flat_reference_trajectory


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/flat_decay", help="output directory")
    ap.add_argument("--nx", type=int, default=32)
    ap.add_argument("--t-end", type=float, default=200.0)
    ap.add_argument("--eta0", type=float, default=1.0)
    ap.add_argument("--eta1", type=float, default=-0.5)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    domain = DomainRect(-1.0, 1.0, -1.0, 1.0)
    grid = build_grid(domain, args.nx, args.nx)
    prob = Problem(
        shape=SliderShape.flat(), grid=grid, F=1.0, eta0=args.eta0, eta1=args.eta1,
        solver=SolverParams(tol=1e-9),
    )
    traj = integrate_trajectory(prob, args.t_end, StepControl(rel_tol=1e-6, abs_tol=1e-9))
    print(f"simulated: {len(traj)} samples, stiff from t = {traj.stiff_from}, "
          f"termination {traj.termination.kind.value}")

    model = flat_model(domain, 1.0, args.eta0, args.eta1)
    pick = np.unique(np.linspace(0, len(traj) - 1, 500).astype(int))
    ref = flat_reference_trajectory(model, args.t_end, fine_tol=1e-8, t_eval=traj.t[pick])
    env = flat_envelope(model, traj.t[pick])

    rel = np.abs(traj.eta[pick] - ref.eta) / ref.eta
    print(f"series constant C = {model.C_omega:.6f}, decay floor a/sqrt(t+b) with "
          f"a = {model.a:.4f}, b = {model.b:.4f}, t0 = {model.t0:.4f}")
    print(f"max |simulated - reference| / reference = {rel.max():.3e}")
    print(f"min simulated/envelope = {np.min(traj.eta[pick] / env):.6f}")
    print(f"eta({args.t_end}) = {traj.eta[-1]:.5f} (started at {args.eta0})")

    write_csv(out / "decay.csv", {"t": traj.t[pick], "eta_sim": traj.eta[pick],
                                  "eta_ref": ref.eta, "eta_envelope": env})
    print(f"wrote {out / 'decay.csv'}")


if __name__ == "__main__":
    main()
