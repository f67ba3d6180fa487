#!/usr/bin/env python3
"""Per-layer cost of one film solve: assembly, layout, one sweep, whole solves.

Times the line contact (alpha 2) at beta 0.3, gamma -0.3 on n-by-n
grids of [-1, 1]^2 with suggested_omega and solver tol 1e-8, for two
systems per grid: the whole grid's ("whole") and the mirror fold's
("half", vi_solver.half_film), the one the production solves take.
Per system:

- assemble: assemble_system from the profile's stored film_geometry;
- layout: the red-black colour layout of one solve (_red_black_lattices);
- residual: the final lcp_residuals check;
- sweep: one red-black sweep, from the time difference of two solves
  that never stop (tol 1e-300) capped at 1 and at 1 + SWEEPS sweeps,
  so a sweep whose stop test rejects without reading ||p||_inf;
- warm: a solve warm-started from the solution at beta 0.303;
- cold: a solve from p = 0;
- estimate: young_omega, the relaxation an unset omega takes, on the
  free set b > 0 of a cold start.

The sweep counts of the warm and cold solves are also given at the
omega the unset rule picks for each (young_omega on the start's free
set), beside those at suggested_omega.

Each figure is the best of --repeat timings of a loop sized to about
20 ms; the loops of all figures of a grid, both systems', take turns.  The script times
the tree it sits in; to compare two trees, run it from each checkout in
turn, alternating, on an otherwise idle host.
The last line of output is one JSON object with every figure.

    python scripts/solve_cost.py --repeat 7
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sliderfilm.errors import NoConvergence
from sliderfilm.geometry import DomainRect, SliderShape, build_grid
from sliderfilm.vi_solver import (
    _red_black_lattices,
    assemble_system,
    film_geometry,
    free_set,
    half_film,
    lcp_residuals,
    solve_vi_psor,
    suggested_omega,
    young_omega,
)

BETA, GAMMA, WARM_FROM, TOL = 0.3, -0.3, 0.303, 1e-8
SWEEPS = 50


def cpu_model():
    """The CPU's model name where the platform reports it (Linux), else its processor."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def best_seconds(calls, repeat):
    """Best per-call time of each named callable.

    Each callable runs in loops of about 20 ms, and the loops of all
    callables take turns, repeat rounds in all, so that every figure
    samples the same stretches of a host whose speed drifts.
    """
    numbers = {}
    for name, fn in calls.items():
        t0 = time.perf_counter()
        fn()
        numbers[name] = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-9)))
    best = dict.fromkeys(calls, np.inf)
    for _ in range(repeat):
        for name, fn in calls.items():
            t0 = time.perf_counter()
            for _ in range(numbers[name]):
                fn()
            best[name] = min(best[name], (time.perf_counter() - t0) / numbers[name])
    return best


def capped_solve(system, omega, sweeps):
    """A solve that never meets its stop test, cut after the given sweeps."""
    try:
        solve_vi_psor(system, omega=omega, tol=1e-300, max_iter=sweeps)
    except NoConvergence:
        return
    raise AssertionError("a solve at tol 1e-300 stopped")


def timed_calls(grid, shape, geometry, omega):
    """The callables to time on one system, and its sweep counts."""
    system = assemble_system(grid, shape, BETA, GAMMA, geometry)
    start = solve_vi_psor(
        assemble_system(grid, shape, WARM_FROM, GAMMA, geometry), omega=omega, tol=TOL
    ).values
    cold = solve_vi_psor(system, omega=omega, tol=TOL)
    warm = solve_vi_psor(system, omega=omega, tol=TOL, warm_start=start)
    cold_free = free_set(system, None)
    sweeps = {
        "warm_sweeps": warm.iterations,
        "cold_sweeps": cold.iterations,
        "rule_warm_sweeps": solve_vi_psor(system, tol=TOL, warm_start=start).iterations,
        "rule_cold_sweeps": solve_vi_psor(system, tol=TOL).iterations,
    }
    calls = {
        "assemble": lambda: assemble_system(grid, shape, BETA, GAMMA, geometry),
        "layout": lambda: _red_black_lattices(system, omega),
        "residual": lambda: lcp_residuals(system, cold.values),
        "one": lambda: capped_solve(system, omega, 1),
        "many": lambda: capped_solve(system, omega, 1 + SWEEPS),
        "warm": lambda: solve_vi_psor(system, omega=omega, tol=TOL, warm_start=start),
        "cold": lambda: solve_vi_psor(system, omega=omega, tol=TOL),
        "estimate": lambda: young_omega(system, cold_free),
    }
    return calls, sweeps


def measure(n, repeat):
    """One row per system of the n-by-n grid: the whole one, then the half."""
    grid = build_grid(DomainRect(-1.0, 1.0, -1.0, 1.0), n, n)
    shape = SliderShape.line_contact(2.0)
    omega = suggested_omega(grid)
    geometry = film_geometry(grid, shape)
    systems = {"whole": (grid, geometry), "half": half_film(grid, shape, geometry)}
    calls, sweeps = {}, {}
    for name, (g, geo) in systems.items():
        own, sweeps[name] = timed_calls(g, shape, geo, omega)
        calls.update({(name, key): fn for key, fn in own.items()})
    t = best_seconds(calls, repeat)
    return [
        {
            "n": n,
            "system": name,
            "assemble_us": 1e6 * t[name, "assemble"],
            "layout_us": 1e6 * t[name, "layout"],
            "residual_us": 1e6 * t[name, "residual"],
            "sweep_us": 1e6 * (t[name, "many"] - t[name, "one"]) / SWEEPS,
            "warm_sweeps": sweeps[name]["warm_sweeps"],
            "warm_ms": 1e3 * t[name, "warm"],
            "cold_sweeps": sweeps[name]["cold_sweeps"],
            "cold_ms": 1e3 * t[name, "cold"],
            "estimate_us": 1e6 * t[name, "estimate"],
            "rule_warm_sweeps": sweeps[name]["rule_warm_sweeps"],
            "rule_cold_sweeps": sweeps[name]["rule_cold_sweeps"],
        }
        for name in systems
    ]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128],
                    help="grid nodes per axis (default 32 64 128)")
    ap.add_argument("--repeat", type=int, default=5, help="timings per figure, best kept")
    args = ap.parse_args()
    if args.repeat < 1 or min(args.sizes) < 3:
        ap.error("--repeat must be >= 1 and every size >= 3")

    host = {
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(" ".join(f"{k} {v}" for k, v in host.items()))
    header = ("n", "system", "assemble_us", "layout_us", "residual_us", "sweep_us",
              "warm_sweeps", "warm_ms", "cold_sweeps", "cold_ms",
              "estimate_us", "rule_warm_sweeps", "rule_cold_sweeps")
    print(" ".join(f"{h:>12}" for h in header))
    rows = []
    for n in args.sizes:
        for row in measure(n, args.repeat):
            rows.append(row)
            print(" ".join(
                f"{row[h]:>12.3f}" if isinstance(row[h], float) else f"{row[h]:>12}"
                for h in header
            ))
    print(json.dumps({**host, "repeat": args.repeat, "rows": rows}))


if __name__ == "__main__":
    main()
