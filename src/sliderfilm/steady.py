"""Steady clearances: roots of the load balance g(beta) = G(beta, 0).

For admissible wedge shapes g is continuous, tends to -F for large
clearance and grows without bound as the clearance closes, so a sign
change exists and bisection needs nothing beyond continuity (neither
smoothness nor monotonicity of g is guaranteed, and uniqueness of the
root is an open question; the curve utilities expose the full sign
structure).
"""

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .dynamics import GEvaluator, Problem
from .errors import BracketFailure, InadmissibleShape
from .geometry import ShapeKind

__all__ = ["SteadyResult", "GCurve", "find_bracket", "find_steady", "g_curve"]


@dataclass(frozen=True)
class SteadyResult:
    beta_star: float
    g_at_root: float
    bracket: tuple[float, float]
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "beta_star": self.beta_star,
            "g_at_root": self.g_at_root,
            "bracket": list(self.bracket),
            "evaluations": self.evaluations,
        }


@dataclass(eq=False)
class GCurve:
    """Load-balance curve g(beta) with resolution diagnostics.

    resolved is False where fewer than 4 grid cells span the wedge width
    beta^(1/alpha): such entries sit below the resolution of the grid
    and their g values understate the true load.
    """

    beta: np.ndarray
    g: np.ndarray
    load: np.ndarray
    active_fraction: np.ndarray
    psor_iters: np.ndarray
    resolved: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(
            path,
            {
                "beta": self.beta,
                "g": self.g,
                "load": self.load,
                "active_fraction": self.active_fraction,
                "psor_iters": self.psor_iters,
                "resolved": self.resolved,
            },
        )


def _require_admissible(problem: Problem) -> None:
    shape = problem.shape
    if shape.steady_state_guaranteed:
        return
    if shape.kind is ShapeKind.FLAT:
        raise InadmissibleShape("no stationary solution for flat slider")
    raise InadmissibleShape(
        f"steady state guaranteed only for line contact with alpha > 1 or "
        f"point contact with alpha > 3/2; got {shape.describe()}"
    )


def find_bracket(
    problem: Problem,
    beta_init: float = 0.5,
    max_expansions: int = 60,
    evaluator: GEvaluator | None = None,
) -> tuple[float, float]:
    """Expand geometrically from beta_init until g changes sign.

    Returns (beta_lo, beta_hi) with g(beta_lo) > 0 > g(beta_hi).  Fails
    with BracketFailure when max_expansions doublings (then halvings) find
    no sign change, as when no positive g is found before the wedge
    drops under the grid resolution (the load saturates there).
    """
    _require_admissible(problem)
    if beta_init <= 0.0:
        raise ValueError("beta_init must be positive")
    ev = evaluator or GEvaluator(problem)

    beta_hi = beta_init
    g_hi, _, _ = ev.eval(beta_hi, 0.0)
    n = 0
    while g_hi >= 0.0:
        if n >= max_expansions:
            raise BracketFailure(f"no negative g up to beta = {beta_hi}")
        beta_hi *= 2.0
        g_hi, _, _ = ev.eval(beta_hi, 0.0)
        n += 1

    beta_lo = min(beta_init, beta_hi / 2.0)
    g_lo, _, _ = ev.eval(beta_lo, 0.0)
    n = 0
    while g_lo <= 0.0:
        if n >= max_expansions:
            raise BracketFailure(
                f"no positive g down to beta = {beta_lo}; "
                f"the grid is too coarse to resolve the wedge near contact"
            )
        beta_lo *= 0.5
        g_lo, _, _ = ev.eval(beta_lo, 0.0)
        n += 1
    return beta_lo, beta_hi


def find_steady(
    problem: Problem,
    bracket: tuple[float, float],
    tol_residual: float = 1e-6,
    tol_beta: float | None = None,
    max_bisections: int = 200,
    evaluator: GEvaluator | None = None,
) -> SteadyResult:
    """Bisect the bracket down to |g| <= tol_residual.

    Deterministic; the returned clearance is the best midpoint seen, and
    BracketFailure is raised when it misses tol_residual after
    max_bisections steps.  The film solution is unique at every
    clearance, so warm starting cannot change the result.
    """
    beta_lo, beta_hi = bracket
    if not (0.0 < beta_lo < beta_hi):
        raise ValueError(f"invalid bracket {bracket}")
    ev = evaluator or GEvaluator(problem)
    if tol_beta is None:
        tol_beta = 1e-12 * beta_hi

    g_lo, _, _ = ev.eval(beta_lo, 0.0)
    g_hi, _, _ = ev.eval(beta_hi, 0.0)
    evals = 2
    if abs(g_lo) <= tol_residual:
        return SteadyResult(beta_lo, g_lo, (beta_lo, beta_hi), evals)
    if abs(g_hi) <= tol_residual:
        return SteadyResult(beta_hi, g_hi, (beta_lo, beta_hi), evals)
    if not (g_lo > 0.0 > g_hi):
        raise ValueError(
            f"bracket does not straddle a sign change: g({beta_lo}) = {g_lo}, "
            f"g({beta_hi}) = {g_hi}"
        )

    best_beta, best_g = beta_lo, g_lo
    for _ in range(max_bisections):
        mid = 0.5 * (beta_lo + beta_hi)
        g_mid, _, _ = ev.eval(mid, 0.0)
        evals += 1
        if abs(g_mid) < abs(best_g):
            best_beta, best_g = mid, g_mid
        if abs(g_mid) <= tol_residual and beta_hi - beta_lo <= max(tol_beta, 1e-9 * mid):
            return SteadyResult(mid, g_mid, (beta_lo, beta_hi), evals)
        if g_mid > 0.0:
            beta_lo = mid
        else:
            beta_hi = mid
        if beta_hi - beta_lo <= tol_beta and abs(best_g) <= tol_residual:
            return SteadyResult(best_beta, best_g, (beta_lo, beta_hi), evals)
    if abs(best_g) <= tol_residual:
        return SteadyResult(best_beta, best_g, (beta_lo, beta_hi), evals)
    raise BracketFailure(
        f"bisection stalled: best |g| = {abs(best_g):.3e} > {tol_residual} "
        f"after {evals} evaluations"
    )


def g_curve(problem: Problem, beta_values, evaluator: GEvaluator | None = None) -> GCurve:
    """Tabulate g, the film load, and the cavitated fraction along a sweep."""
    betas = np.asarray(beta_values, dtype=float)
    if np.any(betas <= 0.0):
        raise ValueError("all beta values must be positive")
    ev = evaluator or GEvaluator(problem)
    shape = problem.shape
    n = betas.size
    g = np.empty(n)
    load = np.empty(n)
    frac = np.empty(n)
    iters = np.empty(n, dtype=int)
    resolved = np.ones(n, dtype=bool)
    dx = problem.grid.dx
    for k, beta in enumerate(betas):
        g[k], load[k], iters[k], field = ev.eval_with_field(float(beta), 0.0)
        frac[k] = float(np.count_nonzero(field.values == 0.0)) / field.values.size
        if shape.kind in (ShapeKind.LINE_CONTACT, ShapeKind.POINT_CONTACT):
            resolved[k] = beta ** (1.0 / shape.alpha) >= 4.0 * dx
    return GCurve(beta=betas, g=g, load=load, active_fraction=frac, psor_iters=iters, resolved=resolved)
