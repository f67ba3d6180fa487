"""Command-line surface: simulate, steady, gcurve, bounds, verify.

Exit codes: 0 success; 1 domain outcomes (contact guard, bracket or
step failure, inadmissible shape); 2 usage/configuration errors;
3 solver non-convergence.  All artifacts are deterministic for a fixed
config, command and seed (no timestamps, repr-exact floats).
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .config import RunConfig, parse_config
from .dynamics import (
    GEvaluator,
    Problem,
    SolverParams,
    TerminationKind,
    bounds_report,
    integrate_trajectory,
)
from .errors import (
    BracketFailure,
    InadmissibleShape,
    InvalidDomain,
    NoConvergence,
    ParseError,
    SliderFilmError,
    ValidationError,
)
from .geometry import (
    DomainRect,
    ShapeKind,
    SliderShape,
    build_grid,
    compute_V1,
    load_tabulated_csv,
)
from .steady import find_bracket, find_steady, g_curve
from .vi_solver import assemble_system, load_integral, solve_linear, solve_vi_psor

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_NOCONV = 3


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def build_problem(config: RunConfig) -> Problem:
    grid = build_grid(config.domain, config.grid.nx, config.grid.ny)
    if config.shape.variant == "tabulated":
        try:
            shape = load_tabulated_csv(config.shape.table_path, grid)
        except InvalidDomain as exc:
            raise ValidationError("shape.table_path", str(exc)) from exc
    else:  # alpha is None for the flat variant
        shape = SliderShape(ShapeKind(config.shape.variant), alpha=config.shape.alpha)
    return Problem(
        shape=shape,
        grid=grid,
        F=config.physics.F,
        eta0=config.physics.eta0,
        eta1=config.physics.eta1,
        solver=config.solver,
    )


def run_simulate(config: RunConfig, out_dir: Path) -> int:
    problem = build_problem(config)
    traj = integrate_trajectory(problem, config.integrator.t_end, config.integrator)
    traj.to_csv(out_dir / "trajectory.csv")
    summary = {
        "termination": {
            "kind": traj.termination.kind.value,
            "time": traj.termination.time,
            "detail": traj.termination.detail,
        },
        "samples": len(traj),
        "rejected_steps": traj.n_rejected,
        "solves": traj.n_solves,
        "sweeps": traj.n_sweeps,
        "stiff_from": traj.stiff_from,
        "eta_min": float(np.min(traj.eta)),
        "eta_max": float(np.max(traj.eta)),
        "eta_dot_min": float(np.min(traj.eta_dot)),
        "eta_dot_max": float(np.max(traj.eta_dot)),
        "bounds": bounds_report(problem).to_dict(),
        "monitor": {
            "passed": traj.monitor.passed,
            "worst_violation": traj.monitor.worst_violation,
            "tol": traj.monitor.tol,
            "segments": [asdict(s) for s in traj.monitor.segments],
        },
    }
    _write_json(out_dir / "summary.json", summary)
    if traj.termination.kind is TerminationKind.REACHED_HORIZON:
        return EXIT_OK
    return EXIT_DOMAIN


def run_steady(config: RunConfig, out_dir: Path) -> int:
    ev = GEvaluator(build_problem(config))
    st = config.steady
    try:
        bracket = find_bracket(ev, st.beta_init, st.max_expansions)
        result = find_steady(ev, bracket, st.tol_residual, st.max_bisections)
    except (InadmissibleShape, BracketFailure) as exc:
        _write_json(out_dir / "steady.json", {"error": type(exc).__name__, "reason": str(exc)})
        return EXIT_DOMAIN
    _write_json(
        out_dir / "steady.json",
        {**result.to_dict(), "solves": ev.n_solves, "sweeps": ev.n_sweeps},
    )
    return EXIT_OK


def run_gcurve(config: RunConfig, out_dir: Path) -> int:
    curve = g_curve(GEvaluator(build_problem(config)), config.gcurve.betas)
    curve.to_csv(out_dir / "gcurve.csv")
    return EXIT_OK


def run_bounds(config: RunConfig, out_dir: Path) -> int:
    problem = build_problem(config)
    _write_json(out_dir / "bounds.json", bounds_report(problem).to_dict())
    return EXIT_OK


def _verify_checks(config: RunConfig) -> list[dict]:
    """The oracle cross-checks behind the `verify` subcommand."""
    problem = build_problem(config)  # a bad configuration fails before any solve
    rng = np.random.default_rng(config.seed)
    domain = config.domain
    checks = []

    # 1. series constant vs fine-grid solve of the unit-load problem
    series = oracle_mod.flat_C_omega(domain, config.oracle.fourier_cutoff)
    n_fine = config.oracle.fine_grid
    grid_f = build_grid(domain, n_fine, n_fine)
    sys_f = assemble_system(grid_f, SliderShape.flat(), 1.0, -1.0)
    w = solve_linear(sys_f, tol=1e-10)
    c_grid = load_integral(w, grid_f)
    rel = abs(series.value - c_grid) / series.value
    checks.append(
        {
            "name": "fourier_vs_grid",
            "passed": bool(rel <= 5e-3),
            "series": series.value,
            "series_tail_bound": series.tail_bound,
            "grid_value": c_grid,
            "rel_diff": rel,
        }
    )

    # 2. exact pressure cutoff at gamma above the largest descending slope
    worst_load = 0.0
    for shape in (SliderShape.line_contact(2.0), SliderShape.point_contact(2.0), SliderShape.flat()):
        v1 = compute_V1(shape, problem.grid)
        for beta in (0.1, 1.0):
            sol = replace(problem, shape=shape).solve_film(beta, v1 + 0.1)
            worst_load = max(worst_load, abs(load_integral(sol, problem.grid)))
    checks.append(
        {"name": "cutoff_exactness", "passed": bool(worst_load <= 1e-10), "worst_load": worst_load}
    )

    # 3. sweep solver vs active-set enumeration on tiny random problems
    worst_diff = 0.0
    for _ in range(config.oracle.lcp_cases):
        nx = int(rng.integers(3, 5))
        ny = int(rng.integers(3, 5))
        grid_s = build_grid(domain, nx, ny)
        pick = rng.integers(0, 3)
        if pick == 0:
            shape = SliderShape.line_contact(float(rng.uniform(1.0, 3.0)))
        elif pick == 1:
            shape = SliderShape.point_contact(float(rng.uniform(1.0, 3.0)))
        else:
            shape = SliderShape.flat()
        beta = float(rng.uniform(0.05, 2.0))
        v1 = compute_V1(shape, grid_s)
        gamma = float(rng.uniform(-2.0, v1 + 1.0))
        system = assemble_system(grid_s, shape, beta, gamma)
        # the stop test is relative to max(1, ||p||_inf): at p ~ 3e3 (flat
        # profile, beta ~ 0.05) tol 1e-12 can stop ~3e-9 from the solution
        psor = solve_vi_psor(system, tol=1e-13, max_iter=100_000)
        enum = oracle_mod.lcp_enumerate(system)
        worst_diff = max(worst_diff, float(np.max(np.abs(psor.values - enum.values))))
    checks.append(
        {
            "name": "lcp_enumeration_equivalence",
            "passed": bool(worst_diff <= 1e-9),
            "cases": config.oracle.lcp_cases,
            "worst_abs_diff": worst_diff,
        }
    )

    # 4. constrained solution dominates sub-region solves
    worst_margin = np.inf
    for _ in range(config.oracle.comparison_cases):
        beta = float(rng.uniform(0.05, 1.0))
        gamma = float(rng.uniform(-1.0, 0.0))
        rect = _random_subrect(rng, domain)
        verdict = oracle_mod.comparison_check(problem, beta, gamma, rect)
        worst_margin = min(worst_margin, verdict.worst_margin)
    checks.append(
        {
            "name": "comparison_principle",
            "passed": bool(worst_margin >= -10.0 * problem.solver.tol),
            "cases": config.oracle.comparison_cases,
            "worst_margin": float(worst_margin),
        }
    )

    # 5. short flat descent against the scalar reference model
    grid_flat = build_grid(domain, 32, 32)
    prob_flat = Problem(
        shape=SliderShape.flat(),
        grid=grid_flat,
        F=1.0,
        eta0=1.0,
        eta1=-0.5,
        solver=SolverParams(omega=1.8, tol=1e-9),
    )
    traj = integrate_trajectory(prob_flat, 10.0)
    model = oracle_mod.flat_model(domain, 1.0, 1.0, -0.5, cutoff=config.oracle.fourier_cutoff)
    pick = np.unique(np.linspace(0, len(traj) - 1, 200).astype(int))
    ref = oracle_mod.flat_reference_trajectory(model, 10.0, fine_tol=1e-8, t_eval=traj.t[pick])
    rel_traj = float(np.max(np.abs(ref.eta - traj.eta[pick]) / ref.eta))
    env = oracle_mod.flat_envelope(model, traj.t)
    env_violation = float(np.max((env - traj.eta) / env))
    checks.append(
        {
            "name": "flat_reference_match",
            "passed": bool(rel_traj <= 1e-2 and env_violation <= 2e-2),
            "max_rel_diff": rel_traj,
            "max_envelope_violation": env_violation,
        }
    )
    return checks


def _random_subrect(rng, domain: DomainRect):
    while True:
        xa, xb = np.sort(rng.uniform(domain.x1_min, domain.x1_max, size=2))
        ya, yb = np.sort(rng.uniform(domain.x2_min, domain.x2_max, size=2))
        if xb - xa > 0.1 * domain.length1 and yb - ya > 0.1 * domain.length2:
            return float(xa), float(xb), float(ya), float(yb)


def run_verify(config: RunConfig, out_dir: Path) -> int:
    checks = _verify_checks(config)
    ok = all(c["passed"] for c in checks)
    _write_json(out_dir / "verify.json", {"passed": ok, "checks": checks})
    return EXIT_OK if ok else EXIT_DOMAIN


_COMMANDS = {
    "simulate": run_simulate,
    "steady": run_steady,
    "gcurve": run_gcurve,
    "bounds": run_bounds,
    "verify": run_verify,
}


def dispatch(config: RunConfig, command: str, out_dir) -> int:
    """Run one subcommand; returns the process exit code."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[command](config, out)
    except NoConvergence as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SliderFilmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sliderfilm",
        description="Rigid slider on a cavitating lubricant film: "
        "simulate the height dynamics, find steady clearances, "
        "tabulate load curves, report bounds, verify against oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory (created if absent)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = parse_config(text)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        if args.seed < 0:
            print("error: --seed must be nonnegative", file=sys.stderr)
            return EXIT_USAGE
        config.seed = args.seed
    return dispatch(config, args.command, args.out)


if __name__ == "__main__":
    sys.exit(main())
