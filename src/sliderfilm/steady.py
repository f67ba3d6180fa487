"""Steady clearances: roots of the load balance g(beta) = G(beta, 0).

For admissible wedge shapes g is continuous, tends to -F for large
clearance and grows without bound as the clearance closes, so a sign
change exists.  Neither smoothness nor monotonicity of g is guaranteed,
and uniqueness of the root is an open question (the curve utilities
expose the full sign structure), so the root finder keeps a sign
bracket at every step: Brent's method (Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 4) tries inverse quadratic
or secant steps inside the bracket and falls back to bisection, which
needs nothing beyond continuity.

The film load L = g + F is close to a power of beta (at 64^2 its local
slope d log L / d log beta runs from about -1.1 to -2.2 over two
decades, for line and point contact alike), so Brent's method
interpolates in log-log coordinates: u = log beta against
h = log(L / F) = log1p(g / F), which has the same root and sign as g
and is nearly linear in u.  Bisection halves the bracket in u.  Signs,
the stop rule and the iteration cap are decided on g and beta alone.

Every g comes with e = area(Omega) tol max(1, ||p||_inf), the largest
load error the PSOR stop test allows for its solve (_solve_g).
find_bracket uses only the sign of g, so it solves each point only
until that sign is certain (_signed_g): first at the loose PSOR
tolerance max(solver.tol, 1e-4), and once more at solver.tol when |g|
is within 20 e.  Brent's method and g_curve solve at solver.tol, and
so does every g that find_steady reports as g_at_root.  Brent's method
stops at the first point with |g| <= min(tol_residual, e): past it g
is solve noise.

Every entry point takes the GEvaluator that makes the solves, so a
bracket search, the root search after it and a curve can share one
warm chain; the problem is ev.problem.
"""

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .dynamics import GEvaluator, Problem
from .errors import BracketFailure, InadmissibleShape
from .geometry import ShapeKind
from .vi_solver import load_integral

__all__ = ["Bracket", "SteadyResult", "GCurve", "find_bracket", "find_steady", "g_curve"]


@dataclass(frozen=True)
class Bracket:
    """A sign bracket g(beta_lo) > 0 > g(beta_hi) with g at both ends and
    the applied load F, so that find_steady need not solve the ends again.

    tol_lo and tol_hi are the PSOR tolerances of the solves that g_lo
    and g_hi come from, None for solver.tol, and e_lo and e_hi their
    load errors (_solve_g), None where unknown.  An end solved only to
    its sign is solved again at solver.tol before find_steady returns it
    as the root.
    """

    beta_lo: float
    beta_hi: float
    g_lo: float
    g_hi: float
    F: float
    tol_lo: float | None = None
    tol_hi: float | None = None
    e_lo: float | None = None
    e_hi: float | None = None


@dataclass(frozen=True)
class SteadyResult:
    """g_error is the load error (_solve_g) of the solve that g_at_root
    comes from, None for a bracket end that carries none."""

    beta_star: float
    g_at_root: float
    g_error: float | None
    bracket: tuple[float, float]
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "beta_star": self.beta_star,
            "g_at_root": self.g_at_root,
            "g_error": self.g_error,
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


# find_bracket solves a point at _SIGN_TOL (never below solver.tol) and
# keeps that sign when |g| exceeds _SIGN_MARGIN times its load error; the
# margin absorbs the stop test's understatement of the true error (up to
# 15 times).  Otherwise the point is solved again at solver.tol.
_SIGN_TOL, _SIGN_MARGIN = 1e-4, 20.0


def _solve_g(ev: GEvaluator, beta: float, tol: float | None = None) -> tuple[float, float]:
    """(g, e) at (beta, 0) from one ev.field solve at tol (None means
    solver.tol), warm started by the chain.  e = area(Omega) tol max(1,
    ||p||_inf) is the largest load error the PSOR stop test allows."""
    problem = ev.problem
    field = ev.field(beta, 0.0, tol)
    tol = problem.solver.tol if tol is None else tol
    e = problem.grid.domain.area * tol * max(1.0, float(field.values.max()))
    return load_integral(field, problem.grid) - problem.F, e


def _signed_g(ev: GEvaluator, beta: float) -> tuple[float, float, float | None]:
    """(g, e, tol) at (beta, 0) from solves that make g's sign certain.

    One solve at max(solver.tol, _SIGN_TOL); when |g| <= _SIGN_MARGIN e,
    one more at solver.tol, from the first.  e is the load error and tol
    the tolerance of the solve that g comes from, tol None for solver.tol.
    """
    floor = ev.problem.solver.tol
    tol = max(floor, _SIGN_TOL)
    g, e = _solve_g(ev, beta, tol)
    if tol > floor and abs(g) <= _SIGN_MARGIN * e:
        tol = floor
        g, e = _solve_g(ev, beta, tol)
    return g, e, None if tol == floor else tol


def find_bracket(ev: GEvaluator, beta_init: float = 0.5, max_expansions: int = 60) -> Bracket:
    """Expand geometrically from beta_init until g changes sign.

    ev makes the solves, for the problem ev.problem.  Returns the Bracket
    with g(beta_lo) > 0 > g(beta_hi), both values, the tolerances they
    were solved at, their load errors and the applied load F.  Doubling
    keeps the last beta with g >= 0 as the lower end, and halving keeps
    the last beta with g < 0 as the upper end.  Only g's sign is used here, so each point is
    solved until that sign is certain (_signed_g): one loose solve, and
    one at solver.tol where |g| is within the loose solve's error margin.
    Fails with BracketFailure when max_expansions doublings (then
    halvings) find no sign change, as when no positive g is found before
    the wedge drops under the grid resolution (the load saturates there).
    """
    _require_admissible(ev.problem)
    if beta_init <= 0.0:
        raise ValueError("beta_init must be positive")

    beta_hi = beta_init
    g_hi, e_hi, tol_hi = _signed_g(ev, beta_hi)
    g_lo = None
    n = 0
    while g_hi >= 0.0:
        if n >= max_expansions:
            raise BracketFailure(f"no negative g up to beta = {beta_hi}")
        beta_lo, g_lo, e_lo, tol_lo = beta_hi, g_hi, e_hi, tol_hi
        beta_hi *= 2.0
        g_hi, e_hi, tol_hi = _signed_g(ev, beta_hi)
        n += 1

    if g_lo is None:
        beta_lo = 0.5 * beta_init
        g_lo, e_lo, tol_lo = _signed_g(ev, beta_lo)
    n = 0
    while g_lo <= 0.0:
        if n >= max_expansions:
            raise BracketFailure(
                f"no positive g down to beta = {beta_lo}; "
                f"the grid is too coarse to resolve the wedge near contact"
            )
        if g_lo < 0.0:
            beta_hi, g_hi, e_hi, tol_hi = beta_lo, g_lo, e_lo, tol_lo
        beta_lo *= 0.5
        g_lo, e_lo, tol_lo = _signed_g(ev, beta_lo)
        n += 1
    return Bracket(beta_lo, beta_hi, g_lo, g_hi, ev.problem.F, tol_lo, tol_hi, e_lo, e_hi)


def find_steady(
    ev: GEvaluator,
    bracket: Bracket,
    tol_residual: float = 1e-6,
    max_bisections: int = 200,
) -> SteadyResult:
    """Narrow the bracket by Brent's method to a root of g.

    ev makes the solves; the bracket, as find_bracket returns it, brings
    g at both ends and F, so no end is solved again, except an end whose
    |g| is within tol_residual but was solved only to its sign: it is
    solved at solver.tol before it is returned (or not) as the root, so
    g_at_root always comes from a solve at solver.tol.  The steps
    interpolate log(L / F) over log beta (module docstring); a point
    whose load is not positive makes the step bisect in log beta.  Every
    step keeps g(beta_lo) > 0 > g(beta_hi).  The search stops at the
    first point x with |g(x)| <= min(tol_residual, e(x)), e its load
    error (_solve_g), and returns x with the last sign bracket, x and
    the end of the other sign.  Where g carries no solve error (e = 0),
    or the bracket closes first, it stops at the first bracket end with
    |g| <= tol_residual whose bracket is at most 1e-9 * beta wide, or at
    an exact zero of g.  evaluations counts the film evaluations made
    here.  Deterministic; after max_bisections steps the better end of
    the bracket is returned if its |g| is within tol_residual, and
    BracketFailure is raised otherwise.  The film solution is unique at
    every clearance, so warm starting cannot change the result.
    """
    beta_lo, beta_hi = bracket.beta_lo, bracket.beta_hi
    if not (0.0 < beta_lo < beta_hi):
        raise ValueError(f"invalid bracket {bracket}")
    g_lo, g_hi, F = bracket.g_lo, bracket.g_hi, bracket.F
    e_lo, e_hi = bracket.e_lo, bracket.e_hi
    evals = 0
    if abs(g_lo) <= tol_residual and bracket.tol_lo is not None:
        g_lo, e_lo = _solve_g(ev, beta_lo)
        evals += 1
    if abs(g_lo) <= tol_residual:
        return SteadyResult(beta_lo, g_lo, e_lo, (beta_lo, beta_hi), evals)
    if abs(g_hi) <= tol_residual and bracket.tol_hi is not None:
        g_hi, e_hi = _solve_g(ev, beta_hi)
        evals += 1
    if abs(g_hi) <= tol_residual:
        return SteadyResult(beta_hi, g_hi, e_hi, (beta_lo, beta_hi), evals)
    if not (g_lo > 0.0 > g_hi):
        raise ValueError(
            f"bracket does not straddle a sign change: g({beta_lo}) = {g_lo}, "
            f"g({beta_hi}) = {g_hi}"
        )

    # The points a, b and c are kept in beta as evaluated; steps are made
    # in u = log beta on h = log1p(g / F), nan where the load is not
    # positive.  b is the bracket end with the smaller |g|, c the other
    # end and a the previous b.  d is the last step and e the one before
    # it, and tol1 is half the width rule, all in u.  An interpolation
    # step is taken only if every h is finite and the step stays within
    # three quarters of the way from b to c and is shorter than half of
    # e; otherwise the step bisects in u.  err maps each point evaluated
    # here to its load error.
    def h(g):
        return math.log1p(g / F) if g > -F else math.nan

    b, gb, c, gc = beta_hi, g_hi, beta_lo, g_lo
    if abs(gc) < abs(gb):
        b, gb, c, gc = c, gc, b, gb
    a, ga = c, gc
    d = e = math.log(b / c)
    err = {}
    for _ in range(max_bisections):
        ub = math.log(b)
        m = 0.5 * (math.log(c) - ub)
        tol1 = 0.5e-9
        ha, hb, hc = h(ga), h(gb), h(gc)
        if (
            abs(m) <= tol1
            or abs(e) < tol1
            or abs(ga) <= abs(gb)
            or not math.isfinite(ha + hb + hc)
        ):
            d = e = m
        else:
            s = hb / ha
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation through a, b and c
                q, r = ha / hc, hb / hc
                p = s * (2.0 * m * q * (q - r) - (ub - math.log(a)) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, ga = b, gb
        # a step is at least tol1 long, so once b is near the root the next
        # point lands just past it and the bracket closes to tol1
        x = math.exp(ub + (d if abs(d) > tol1 or abs(m) <= tol1 else math.copysign(tol1, m)))
        gx, err[x] = _solve_g(ev, x)
        evals += 1
        if gx == 0.0:
            return SteadyResult(x, gx, err[x], (min(b, c), max(b, c)), evals)
        b, gb = x, gx
        if (gb > 0.0) == (gc > 0.0):  # the sign change is now between a and b
            c, gc = a, ga
            d = e = math.log(b / a)
        if abs(gb) <= min(tol_residual, err[b]):
            return SteadyResult(b, gb, err[b], (min(b, c), max(b, c)), evals)
        if abs(gc) < abs(gb):
            a, ga, b, gb, c, gc = b, gb, c, gc, b, gb
        if abs(gb) <= tol_residual and abs(c - b) <= 1e-9 * b:
            break
    if abs(gb) > tol_residual:
        raise BracketFailure(
            f"Brent's method stalled: best |g| = {abs(gb):.3e} > {tol_residual} "
            f"after {evals} evaluations"
        )
    # b is a point of this loop: both bracket ends have |g| > tol_residual
    return SteadyResult(b, gb, err[b], (min(b, c), max(b, c)), evals)


def g_curve(ev: GEvaluator, beta_values) -> GCurve:
    """Tabulate g, the film load, and the cavitated fraction along a
    sweep, each point one ev.field solve."""
    betas = np.asarray(beta_values, dtype=float)
    if np.any(betas <= 0.0):
        raise ValueError("all beta values must be positive")
    problem = ev.problem
    shape = problem.shape
    n = betas.size
    g = np.empty(n)
    load = np.empty(n)
    frac = np.empty(n)
    iters = np.empty(n, dtype=int)
    resolved = np.ones(n, dtype=bool)
    dx = problem.grid.dx
    for k, beta in enumerate(betas):
        field = ev.field(float(beta), 0.0)
        load[k] = load_integral(field, problem.grid)
        g[k], iters[k] = load[k] - problem.F, field.iterations
        frac[k] = float(np.count_nonzero(field.values == 0.0)) / field.values.size
        if shape.kind in (ShapeKind.LINE_CONTACT, ShapeKind.POINT_CONTACT):
            resolved[k] = beta ** (1.0 / shape.alpha) >= 4.0 * dx
    return GCurve(beta=betas, g=g, load=load, active_fraction=frac, psor_iters=iters, resolved=resolved)
