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

The film load L = g + F is close to a power of beta, so Brent's method
interpolates in log-log coordinates: u = log beta against
h = log(L / F) = log1p(g / F), which has the same root and sign as g
and is nearly linear in u.  Bisection halves the bracket in u.  Signs,
the stop rule and the iteration cap are decided on g and beta alone.

Solve tolerances.  Each solve of the search makes one GPoint
(_solve_g): beta, g, the solve's tolerance tol and its load error
e = area(Omega) tol max(1, ||p||_inf), the largest error in the load
that the PSOR stop test (vi_solver.solve_vi_psor) allows.
find_bracket uses only the sign of g, so it solves each point only
until that sign is certain (_signed_g): first at the loose tolerance
max(solver.tol, _SIGN_TOL), and once more at solver.tol when
|g| <= _SIGN_MARGIN e; the margin absorbs the stop test's
understatement of the true error.  Brent's method and g_curve solve at
solver.tol, and so does every g that find_steady reports as g_at_root.
Brent's method stops once |g| is within its solve's e (find_steady):
past that point g is solve noise.

Every entry point takes the GEvaluator that makes the solves, so a
bracket search, the root search after it and a curve can share one
warm chain; the problem, F included, is ev.problem.
"""

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .dynamics import GEvaluator, Problem
from .errors import BracketFailure, InadmissibleShape
from .geometry import ShapeKind
from .vi_solver import load_integral

__all__ = ["GPoint", "Bracket", "SteadyResult", "GCurve", "find_bracket", "find_steady", "g_curve"]


@dataclass(frozen=True)
class GPoint:
    """g at (beta, 0) from one film solve (_solve_g).  e is its load
    error (module docstring), None for a hand-made point, and tol the
    PSOR tolerance of the solve, None for solver.tol."""

    beta: float
    g: float
    e: float | None = None
    tol: float | None = None


@dataclass(frozen=True)
class Bracket:
    """A sign bracket lo.g > 0 > hi.g, lo.beta < hi.beta.  An end solved
    only to its sign (tol not None) is solved again at solver.tol before
    find_steady returns it as the root."""

    lo: GPoint
    hi: GPoint


@dataclass(frozen=True)
class SteadyResult:
    """g_error is the load error (_solve_g) of the solve that g_at_root
    comes from, None for a bracket end that carries none."""

    beta_star: float
    g_at_root: float
    g_error: float | None
    bracket: tuple[float, float]
    evaluations: int


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


# the loose tolerance and the sign margin of _signed_g (module docstring)
_SIGN_TOL, _SIGN_MARGIN = 1e-4, 20.0
# iteration caps of each find_bracket expansion loop and of find_steady's
# Brent loop; searches take a few evaluations
_MAX_EXPANSIONS, _MAX_BISECTIONS = 60, 200


def _solve_g(ev: GEvaluator, beta: float, tol: float | None = None) -> GPoint:
    """The point at beta from one ev.field solve at (beta, 0) and tol
    (None means solver.tol), warm started by the chain, with its load
    error e (module docstring)."""
    problem = ev.problem
    field = ev.field(beta, 0.0, tol)
    p_max = max(1.0, float(field.values.max()))
    e = problem.grid.domain.area * (problem.solver.tol if tol is None else tol) * p_max
    return GPoint(beta, load_integral(field, problem.grid) - problem.F, e, tol)


def _signed_g(ev: GEvaluator, beta: float) -> GPoint:
    """The point at beta from solves that make g's sign certain: a loose
    solve, and a second at solver.tol where the first's sign is within
    its margin (module docstring)."""
    loose = ev.problem.solver.tol < _SIGN_TOL
    point = _solve_g(ev, beta, _SIGN_TOL if loose else None)
    if loose and abs(point.g) <= _SIGN_MARGIN * point.e:
        point = _solve_g(ev, beta)
    return point


def find_bracket(ev: GEvaluator, beta_init: float = 0.5) -> Bracket:
    """Expand geometrically from beta_init until g changes sign.

    ev makes the solves, for the problem ev.problem.  Doubling keeps
    the last point with g >= 0 as the lower end, and halving the last
    with g < 0 as the upper end.  Each point is solved until g's sign is
    certain (_signed_g).  Fails with BracketFailure when _MAX_EXPANSIONS
    doublings (then halvings) find no sign change, as when no positive g
    is found before the wedge drops under the grid resolution (the load
    saturates there), and with ValueError, before any solve, for a
    beta_init not finite and positive.
    """
    _require_admissible(ev.problem)
    if not (0.0 < beta_init < math.inf):
        raise ValueError("beta_init must be finite and positive")

    hi = _signed_g(ev, beta_init)
    lo = None
    n = 0
    while hi.g >= 0.0:
        if n >= _MAX_EXPANSIONS:
            raise BracketFailure(f"no negative g up to beta = {hi.beta}")
        lo, hi = hi, _signed_g(ev, hi.beta * 2.0)
        n += 1

    if lo is None:
        lo = _signed_g(ev, 0.5 * beta_init)
    n = 0
    while lo.g <= 0.0:
        if n >= _MAX_EXPANSIONS:
            raise BracketFailure(
                f"no positive g down to beta = {lo.beta}; "
                f"the grid is too coarse to resolve the wedge near contact"
            )
        if lo.g < 0.0:
            hi = lo
        lo = _signed_g(ev, lo.beta * 0.5)
        n += 1
    return Bracket(lo, hi)


def find_steady(ev: GEvaluator, bracket: Bracket, tol_residual: float = 1e-6) -> SteadyResult:
    """Narrow the bracket by Brent's method to a root of g.

    ev makes the solves, and F is ev.problem.F.  No end of the bracket
    is solved again, except an end solved only to its sign whose |g| is
    within tol_residual: it is solved at solver.tol before it is
    returned (or not) as the root.  The steps interpolate log(L / F)
    over log beta (module docstring); a point whose load is not positive
    makes the step bisect in log beta.  Every step keeps a sign bracket.
    The search stops at the first point x with |g| <= min(tol_residual,
    x.e) and returns x with the last sign bracket, x and the end of the
    other sign.  Where g carries no solve error (e = 0), or the bracket
    closes first, it stops at the first end with |g| <= tol_residual
    whose bracket is at most 1e-9 * beta wide, or at an exact zero of g.
    evaluations counts the film evaluations made here.  After
    _MAX_BISECTIONS steps the better end is returned if its |g| is
    within tol_residual, and BracketFailure is raised otherwise.  The
    film solution is unique at every clearance, so warm starting cannot
    change the result.  ValueError, before any solve: tol_residual not
    finite and positive.
    """
    if not (0.0 < tol_residual < math.inf):
        raise ValueError("tol_residual must be finite and positive")
    if not (0.0 < bracket.lo.beta < bracket.hi.beta):
        raise ValueError(f"invalid bracket {bracket}")
    evals = 0

    def result(x: GPoint, b: GPoint, c: GPoint) -> SteadyResult:
        span = (min(b.beta, c.beta), max(b.beta, c.beta))
        return SteadyResult(x.beta, x.g, x.e, span, evals)

    ends = []
    for end in (bracket.lo, bracket.hi):
        if abs(end.g) <= tol_residual and end.tol is not None:
            end = _solve_g(ev, end.beta)
            evals += 1
        if abs(end.g) <= tol_residual:
            return result(end, bracket.lo, bracket.hi)
        ends.append(end)
    lo, hi = ends
    if not (lo.g > 0.0 > hi.g):
        raise ValueError(
            f"bracket does not straddle a sign change: g({lo.beta}) = {lo.g}, "
            f"g({hi.beta}) = {hi.g}"
        )

    # The points a, b and c are kept as evaluated; steps are made in
    # u = log beta on h = log1p(g / F), nan where the load is not
    # positive.  b is the bracket end with the smaller |g|, c the other
    # end and a the previous b.  d is the last step and e the one before
    # it, and tol1 is half the width rule, all in u.  An interpolation
    # step is taken only if every h is finite and the step stays within
    # three quarters of the way from b to c and is shorter than half of
    # e; otherwise the step bisects in u.
    F = ev.problem.F

    def h(point):
        return math.log1p(point.g / F) if point.g > -F else math.nan

    b, c = hi, lo
    if abs(c.g) < abs(b.g):
        b, c = c, b
    a = c
    d = e = math.log(b.beta / c.beta)
    for _ in range(_MAX_BISECTIONS):
        ub = math.log(b.beta)
        m = 0.5 * (math.log(c.beta) - ub)
        tol1 = 0.5e-9
        ha, hb, hc = h(a), h(b), h(c)
        if (
            abs(m) <= tol1
            or abs(e) < tol1
            or abs(a.g) <= abs(b.g)
            or not math.isfinite(ha + hb + hc)
        ):
            d = e = m
        else:
            s = hb / ha
            if a.beta == c.beta:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation through a, b and c
                q, r = ha / hc, hb / hc
                p = s * (2.0 * m * q * (q - r) - (ub - math.log(a.beta)) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a = b
        # a step is at least tol1 long, so once b is near the root the next
        # point lands just past it and the bracket closes to tol1
        step = d if abs(d) > tol1 or abs(m) <= tol1 else math.copysign(tol1, m)
        x = _solve_g(ev, math.exp(ub + step))
        evals += 1
        if x.g == 0.0:
            return result(x, b, c)
        b = x
        if (b.g > 0.0) == (c.g > 0.0):  # the sign change is now between a and b
            c = a
            d = e = math.log(b.beta / a.beta)
        if abs(b.g) <= min(tol_residual, b.e):
            return result(b, b, c)
        if abs(c.g) < abs(b.g):
            a, b, c = b, c, b
        if abs(b.g) <= tol_residual and abs(c.beta - b.beta) <= 1e-9 * b.beta:
            break
    if abs(b.g) > tol_residual:
        raise BracketFailure(
            f"Brent's method stalled: best |g| = {abs(b.g):.3e} > {tol_residual} "
            f"after {evals} evaluations"
        )
    return result(b, b, c)


def g_curve(ev: GEvaluator, beta_values) -> GCurve:
    """Tabulate g, the film load, and the cavitated fraction along a
    sweep, each point one ev.field solve."""
    betas = np.asarray(beta_values, dtype=float)
    if not np.all((betas > 0.0) & (betas < math.inf)):
        raise ValueError("all beta values must be finite and positive")
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
