#!/usr/bin/env python3
"""Flat-slider decay study: simulated height vs the scalar reference model.

Integrates the coupled run on the grid, the reference ODE from the
series constant, and the closed-form lower envelope, then reports the
worst deviations (oracle.flat_reference_gap, as in `verify` and
acceptance criterion 7) and writes a combined CSV.  Exits 1 when they
exceed the check's bounds: 1e-2 relative to the reference, 2e-2 below
the envelope.

    python scripts/flat_decay_study.py --t-end 200 --eta1 -0.5
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sliderfilm.csvio import write_csv
from sliderfilm.dynamics import Problem, SolverParams, StepControl, integrate_trajectory
from sliderfilm.geometry import DomainRect, SliderShape, build_grid
from sliderfilm.oracle import flat_envelope, flat_model, flat_reference_gap


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
    gap = flat_reference_gap(traj, model, args.t_end, 500)
    print(f"series constant C = {model.C_omega:.6f}, decay floor a/sqrt(t+b) with "
          f"a = {model.a:.4f}, b = {model.b:.4f}, t0 = {model.t0:.4f}")
    print(f"max |simulated - reference| / reference = {gap.max_rel_diff:.3e}")
    print(f"max (envelope - simulated) / envelope = {gap.max_envelope_violation:.3e} "
          f"over all {len(traj)} samples")
    print(f"eta({args.t_end}) = {traj.eta[-1]:.5f} (started at {args.eta0})")

    t = traj.t[gap.pick]
    write_csv(out / "decay.csv", {"t": t, "eta_sim": traj.eta[gap.pick], "eta_ref": gap.ref.eta,
                                  "eta_envelope": flat_envelope(model, t)})
    print(f"wrote {out / 'decay.csv'}")
    print("PASS" if gap.passed else "FAIL", "flat reference check")
    return 0 if gap.passed else 1


if __name__ == "__main__":
    sys.exit(main())
