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

from . import oracle
from .config import RunConfig, parse_config
from .dynamics import (
    GEvaluator,
    Problem,
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
from .geometry import ShapeKind, SliderShape, build_grid, load_tabulated_csv
from .steady import find_bracket, find_steady, g_curve

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
        "omega_estimates": traj.n_omega_estimates,
        "stiff_from": traj.stiff_from,
        "eta_min": float(np.min(traj.eta)),
        "eta_max": float(np.max(traj.eta)),
        "eta_dot_min": float(np.min(traj.eta_dot)),
        "eta_dot_max": float(np.max(traj.eta_dot)),
        "bounds": asdict(bounds_report(problem)),
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
        bracket = find_bracket(ev, st.beta_init)
        result = find_steady(ev, bracket, st.tol_residual)
    except (InadmissibleShape, BracketFailure) as exc:
        _write_json(out_dir / "steady.json", {"error": type(exc).__name__, "reason": str(exc)})
        return EXIT_DOMAIN
    _write_json(
        out_dir / "steady.json",
        {
            **asdict(result),
            "solves": ev.n_solves,
            "sweeps": ev.n_sweeps,
            "omega_estimates": ev.n_omega_estimates,
        },
    )
    return EXIT_OK


def run_gcurve(config: RunConfig, out_dir: Path) -> int:
    curve = g_curve(GEvaluator(build_problem(config)), config.gcurve.betas)
    curve.to_csv(out_dir / "gcurve.csv")
    return EXIT_OK


def run_bounds(config: RunConfig, out_dir: Path) -> int:
    problem = build_problem(config)
    _write_json(out_dir / "bounds.json", asdict(bounds_report(problem)))
    return EXIT_OK


def run_verify(config: RunConfig, out_dir: Path) -> int:
    """The five oracle checks in order; checks 3 and 4 draw from one seeded rng."""
    problem = build_problem(config)  # a bad configuration fails before any solve
    rng = np.random.default_rng(config.seed)
    checks = [
        oracle.fourier_vs_grid(config.domain, n_fine=192),
        oracle.cutoff_exactness([problem]),
        # the stop test is relative to max(1, ||p||_inf), so the large
        # pressures of some flat cases need a tol far below the check's 1e-9
        # bound (test_verify_enumeration_check_at_stop_test_edge)
        oracle.lcp_enumeration_equivalence(rng, cases=100, tol=1e-13),
        oracle.comparison_principle(rng, problem, cases=20),
        oracle.flat_reference_match(config.domain),
    ]
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
    run = _COMMANDS.get(command)
    if run is None:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(config, out)
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
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return dispatch(config, args.command, args.out)


if __name__ == "__main__":
    sys.exit(main())
