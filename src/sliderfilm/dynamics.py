"""Film force functional, slider height dynamics, and run diagnostics.

The slider height obeys eta'' = G(eta, eta') with
G(beta, gamma) = integral of the film pressure at clearance beta and
squeeze velocity gamma, minus the applied load F.  Two exact shortcuts
are used: gamma >= V1 forces zero pressure (G = -F), and for the flat
profile the film load scales exactly like (-gamma)/beta^3 times one unit
load, which vi_solver.flat_unit_load sums in closed form, so a flat run
makes no film solve.

Every other film force is one projected-SOR solve, warm started from
the plane in (beta, gamma) through the last solve and two well-separated
recent ones, or from their secant.  A trajectory's first step follows
the Hairer-Norsett-Wanner starting-step rule, so it does not depend on
the horizon.

A trajectory is one adaptive step loop with two steppers.  It starts
with the explicit Dormand-Prince 5(4) pair.  The film acts like a spring
plus a damper whose coefficient -dG/dgamma grows like 1/beta^3, so a
decaying height makes the problem stiff.  A flat-profile run, whose
Jacobian J is exact (GEvaluator.jacobian), continues with RODAS 4(3),
an L-stable Rosenbrock pair, once an accepted step h spans about the
film's fastest time constant, h rho(J) > 1.25; other shapes stay on
Dormand-Prince.  One loop steps, guards and controls both.
"""

import math
from array import array
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .csvio import write_csv
from .errors import BoxOutsideDomain, NonPositiveClearance
from .geometry import (
    ContactBox,
    DomainRect,
    Grid,
    ShapeKind,
    SliderShape,
    compute_V1,
    region_node_mask,
    sup_height,
)
from .vi_solver import (
    DiscreteSystem,
    FilmGeometry,
    PressureField,
    assemble_system,
    film_geometry,
    flat_unit_load,
    load_integral,
    relaxation,
    solve_linear,
    solve_vi_psor,
)

__all__ = [
    "SolverParams",
    "Problem",
    "StepControl",
    "Trajectory",
    "TerminationKind",
    "Termination",
    "BoundsReport",
    "MonitorReport",
    "SpringDamper",
    "GEvaluator",
    "bounds_report",
    "integrate_trajectory",
    "monitor_energies",
    "spring_damper_decomposition",
    "poincare_lambda1",
    "c1_constant",
]


@dataclass(frozen=True)
class SolverParams:
    """Pressure-solver knobs of every film solve of a run (GEvaluator).

    omega None means Young's factor of the operator being solved
    (vi_solver.relaxation): 2 / (1 + sqrt(1 - mu^2)) with mu the Jacobi
    spectral radius of A on the free set of the newest solution, p > 0
    of the evaluator's last solve or b > 0 when there is none, from a
    Lanczos run that stops once its top Ritz value settles.  A
    GEvaluator chain estimates it once and keeps it until the newest
    solution's free set differs from the estimate's in more than 10% of
    its nodes.  A cutoff solve (b <= 0 everywhere) estimates nothing.
    An explicit omega in (0, 2) is used as given.  Frozen: a Problem
    keeps the caller's object as given.

    tol is the PSOR stop tolerance.  gcurve and verify solve at tol
    throughout.  steady solves Brent's points and every g_at_root at
    tol, and stops once |g| is within that solve's load error
    (steady._solve_g); its bracket points first at a looser tolerance,
    then at tol only where g's sign is not yet certain.  A
    simulate run solves its start at tol, its start probe at the
    loosest stage tolerance max(tol, 1e-6), and each Dormand-Prince
    step's stages at that step's share of its error budget
    (integrate_trajectory), never tighter than tol: there tol is the
    floor.  The flat profile's force below the cutoff solves
    nothing, so tol does not reach it (GEvaluator.eval).
    """

    omega: float | None = None
    tol: float = 1e-8


@dataclass(frozen=True, eq=False)
class Problem:
    """A slider run's data: profile, grid, load, initial state, solver knobs.

    It assembles film systems but solves none: every film solve of a
    run is made by its GEvaluator.  Frozen: the beta-independent
    assembly data (film_geometry) is built once here and would go stale
    if the profile or grid changed; dataclasses.replace builds a new
    Problem instead.
    """

    shape: SliderShape
    grid: Grid
    F: float
    eta0: float
    eta1: float
    solver: SolverParams = field(default_factory=SolverParams)
    _geometry: FilmGeometry = field(init=False, repr=False)

    def __post_init__(self):
        for name, value in (("F", self.F), ("eta0", self.eta0), ("eta1", self.eta1)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.F <= 0.0:
            raise ValueError(f"applied load F must be positive, got {self.F}")
        if self.eta0 <= 0.0:
            raise ValueError(f"initial height eta0 must be positive, got {self.eta0}")
        object.__setattr__(self, "_geometry", film_geometry(self.grid, self.shape))

    def assemble(self, beta: float, gamma: float) -> DiscreteSystem:
        """The film system at clearance beta and squeeze velocity gamma."""
        return assemble_system(self.grid, self.shape, beta, gamma, geometry=self._geometry)


# a step under 1e-12 * t_end fails, as does a run past _MAX_SAMPLES samples
_DT_MIN_FRACTION = 1e-12
_MAX_SAMPLES = 2_000_000
# h rho(J) past which a flat run switches to RODAS 4(3): once an accepted
# Dormand-Prince step spans about the film's fastest time constant 1/rho, the
# L-stable order-4 pair steps further than DP at the same tolerance.  Set by
# sample count: half of it takes about as many samples, twice it ~20% more
_STIFF_RHO = 1.25


@dataclass
class StepControl:
    """Embedded Runge-Kutta step-size control parameters (the config's
    integrator section is this type plus the horizon t_end)."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    eps_contact: float | None = None  # defaults to 1e-4 * eta0


class TerminationKind(Enum):
    REACHED_HORIZON = "reached_horizon"
    CONTACT_GUARD = "contact_guard"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    time: float
    detail: str = ""


@dataclass(frozen=True)
class MonitorSegment:
    start: int
    stop: int
    kind: str  # "descent" or "ascent"
    worst_violation: float
    passed: bool


@dataclass(frozen=True)
class MonitorReport:
    """Sampled monotonicity verdicts for the two mechanical energies.

    While the slider descends, the kinetic-plus-potential energy E1 must
    not increase: dE1/dt = eta' * (film load) with eta' <= 0.  While it
    ascends, the barrier-augmented energy E2 must not increase either:
    dE2/dt = eta' * (load - c1/eta^3) and the ascending film load never
    exceeds c1/eta^3.  Violations beyond the tolerance flag a solver or
    stepping problem.
    """

    segments: tuple
    worst_violation: float
    passed: bool
    tol: float


@dataclass(eq=False)
class Trajectory:
    """Accepted integrator samples in trajectory order plus diagnostics."""

    t: np.ndarray
    eta: np.ndarray
    eta_dot: np.ndarray
    G: np.ndarray
    load: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    psor_iters: np.ndarray
    termination: Termination
    n_rejected: int
    monitor: MonitorReport | None = None
    stiff_from: float | None = None  # time of the switch to RODAS 4(3), None if none
    # every film solve of the run and its sweeps: the start probe and the
    # stages of rejected steps included
    n_solves: int = 0
    n_sweeps: int = 0
    n_omega_estimates: int = 0

    def __len__(self) -> int:
        return self.t.size

    def to_csv(self, path) -> None:
        write_csv(
            path,
            {
                "t": self.t,
                "eta": self.eta,
                "eta_dot": self.eta_dot,
                "G": self.G,
                "load": self.load,
                "E1": self.E1,
                "E2": self.E2,
                "psor_iters": self.psor_iters,
            },
        )


def poincare_lambda1(domain: DomainRect) -> float:
    """First Dirichlet eigenvalue of the rectangle, pi^2 (1/L1^2 + 1/L2^2)."""
    return math.pi**2 * (1.0 / domain.length1**2 + 1.0 / domain.length2**2)


def c1_constant(shape: SliderShape, domain: DomainRect) -> float:
    """Constructive constant in the load upper bound G <= c1 / beta^3 - F.

    Chains the energy estimate of the film problem with Cauchy-Schwarz
    and the sharp rectangle Poincare constant:
    c1 = sup|h0| * |Omega| / sqrt(lambda1).
    """
    return sup_height(shape, domain) * domain.area / math.sqrt(poincare_lambda1(domain))


@dataclass(frozen=True)
class BoundsReport:
    """Computable a-priori constants for a problem plus admissibility verdicts.

    D3 and D4 (the height barrier chain) depend on non-constructive
    constants and are reported symbolically only.
    """

    shape: str
    alpha: float | None
    V1: float
    V2: float
    V3: float
    c1: float
    lambda1: float
    h0_sup: float
    D1: float
    D2: float
    s1: float | None
    s2: float | None
    steady_state_guaranteed: bool | None
    global_bounds_guaranteed: bool | None
    gradient_kink_flagged: bool
    D3_D4: str = "not computable (non-constructive constants c3, c4, beta0)"

    def to_dict(self) -> dict:
        return asdict(self)


def bounds_report(problem: Problem) -> BoundsReport:
    """Evaluate every computable constant of the height/velocity bounds."""
    shape, grid = problem.shape, problem.grid
    F, eta0, eta1 = problem.F, problem.eta0, problem.eta1
    v1 = compute_V1(shape, grid)
    c1 = c1_constant(shape, grid.domain)
    lam1 = poincare_lambda1(grid.domain)
    v2 = max(eta1 + 1.0, v1)
    d1 = (c1 / F) ** (1.0 / 3.0)
    term_start = (0.5 * eta1**2 + F * eta0 + c1 / (2.0 * eta0**2)) / F
    barrier_at_d1 = c1 / (2.0 * d1**2) if c1 > 0.0 else 0.0
    term_turn = (0.5 * v2**2 + F * d1 + barrier_at_d1) / F
    d2 = 2.0 * max(eta0, d1, term_start, term_turn)
    v3 = max(
        1.0 - eta1,
        2.0 * math.sqrt(2.0 * F * d2),
        2.0 * math.sqrt(eta1**2 + 2.0 * F * eta0),
    )
    s1 = s2 = glob = None
    alpha = shape.alpha
    if shape.kind is ShapeKind.LINE_CONTACT:
        s1 = 2.0 * (1.0 - 1.0 / alpha)
        s2 = 2.0 - 3.0 / alpha
        glob = alpha >= 1.5
    elif shape.kind is ShapeKind.POINT_CONTACT:
        s1 = 2.0 - 3.0 / alpha
        s2 = 2.0 - 4.0 / alpha
        glob = alpha >= 2.0
    elif shape.kind is ShapeKind.FLAT:
        glob = True  # height stays positive but decays to zero
    return BoundsReport(
        shape=shape.describe(),
        alpha=alpha,
        V1=v1,
        V2=v2,
        V3=v3,
        c1=c1,
        lambda1=lam1,
        h0_sup=sup_height(shape, grid.domain),
        D1=d1,
        D2=d2,
        s1=s1,
        s2=s2,
        steady_state_guaranteed=shape.steady_state_guaranteed,
        global_bounds_guaranteed=glob,
        gradient_kink_flagged=shape.gradient_kink,
    )


def _check_state(beta: float, gamma: float) -> None:
    """Reject a state at which the film force is undefined."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise NonPositiveClearance(f"film force undefined at beta = {beta}")
    if not math.isfinite(gamma):
        raise ValueError(f"film force undefined at gamma = {gamma}")


# the warm start's solves kept, base-point reach and collinearity cutoff (_warm_start)
_HISTORY, _BASE_REACH, _PLANE_DET = 7, 0.1, 1e-3


def _warm_start(history, beta, gamma):
    """The start of a solve at x = (beta, gamma) from earlier solves.

    history holds (beta_i, gamma_i, p_i) of the earlier solves, oldest
    first; with none the start is None (a cold solve).  The newest, p1
    at x1, anchors the start.  Base points are the earlier solves, newest
    first, that lie at least a tenth of |x - x1| from x1 in (beta,
    gamma): a Dormand-Prince pair's stages 6 and 7 both sit at t + h and
    differ only by the step's error estimate, and a predictor anchored on
    two such points extrapolates that difference.  When the first two base points
    p0 at x0 and p2 at x2 are not collinear with x1 (|det| > 1e-3
    |x0 - x1| |x2 - x1|), the start is the plane through the three,
    p1 + w0 (p0 - p1) + w2 (p2 - p1) with w0 (x0 - x1) + w2 (x2 - x1) =
    x - x1: on a fixed free set p is affine in gamma, and smooth in beta.
    Otherwise it is the secant through the first base point, or through
    the immediate prior when no solve qualifies: p1 + s (p1 - p0), with s
    the projection of x - x1 onto x1 - x0.  A point behind x1 (s < 0)
    starts from p1: interpolating hands the solve the errors of both
    fields, and a solve that stops after a sweep or two keeps them.  With
    a single solve the start is p1.  The solver projects the start onto
    p >= 0.
    """
    if not history:
        return None
    beta1, gamma1, p1 = history[-1]
    if len(history) == 1:
        return p1
    reach = _BASE_REACH * math.hypot(beta - beta1, gamma - gamma1)
    base = [
        point
        for point in reversed(history[:-1])
        if math.hypot(point[0] - beta1, point[1] - gamma1) >= reach
    ]
    if len(base) >= 2:
        (beta0, gamma0, p0), (beta2, gamma2, p2) = base[:2]
        a, b, c, d = beta0 - beta1, beta2 - beta1, gamma0 - gamma1, gamma2 - gamma1
        det = a * d - b * c
        if abs(det) > _PLANE_DET * math.hypot(a, c) * math.hypot(b, d):
            x, y = beta - beta1, gamma - gamma1
            w0, w2 = (d * x - b * y) / det, (a * y - c * x) / det
            return p1 + w0 * (p0 - p1) + w2 * (p2 - p1)
    beta0, gamma0, p0 = base[0] if base else history[-2]
    db, dg = beta1 - beta0, gamma1 - gamma0
    dd = db * db + dg * dg
    if dd > 0.0:
        s = max(0.0, ((beta - beta1) * db + (gamma - gamma1) * dg) / dd)
        return p1 + s * (p1 - p0)
    return p1


class GEvaluator:
    """Film force along a run: the exact shortcuts and the warm chain.

    Every film force and every film solve of a run comes from here.
    gamma >= V1 gives the zero field outright.  For the flat profile the
    operator is beta^3 times a fixed stencil and the load vector is
    (-gamma) times a fixed one, so eval scales the unit load (beta 1,
    gamma -1) by (-gamma)/beta^3, the exact discrete load at every
    (beta, gamma); the evaluator takes that load once, from the
    closed-form sum vi_solver.flat_unit_load.  field still solves for
    every shape.  Any other field is one solve_vi_psor at the
    problem's solver settings, or at the tolerance the call asks for,
    warm started from the evaluator's last seven solves: the plane in
    (beta, gamma) through the newest and two well-separated earlier ones,
    else their secant (_warm_start).  With solver.omega unset, the chain
    keeps the (free set, omega) pair of vi_solver.relaxation and hands it
    back with the newest solution, so it estimates again only when the
    free set (p > 0) of the newest solution drifts from the kept one.  A
    fresh evaluator's first field below V1 equals a lone cold
    solve_vi_psor of the problem's system at its settings, bit for bit.  Flat and cutoff
    evaluations report 0 sweeps.  n_solves, n_sweeps and
    n_omega_estimates count the solves made, their sweeps and the
    estimates.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.V1 = compute_V1(problem.shape, problem.grid)
        self._flat = problem.shape.kind is ShapeKind.FLAT
        self._beta_max = problem._geometry.beta_max
        # (beta, gamma, p) of the last _HISTORY solves, oldest first
        self._history: list[tuple[float, float, np.ndarray]] = []
        # the flat profile's load at beta 1, gamma -1, exact to rounding
        self._unit_load = flat_unit_load(problem.grid) if self._flat else math.nan
        # (free set, omega) of the last relaxation estimate
        self._relax: tuple[np.ndarray, float] | None = None
        self.n_solves = 0
        self.n_sweeps = 0
        self.n_omega_estimates = 0

    def eval(
        self, beta: float, gamma: float, tol: float | None = None
    ) -> tuple[float, float, int]:
        """Return (G, film load, solver sweeps) at (beta, gamma).

        G is load_integral of field(beta, gamma, tol) minus F, except for
        the flat profile below the cutoff: there the load is a scalar on
        the unit load, with no solve, 0 sweeps and tol unused, which
        keeps the evaluations of a decay run cheap.  tol None means
        solver.tol.  A non-finite state, or a beta above the geometry's
        beta_max, skips the shortcut and is rejected by field before any
        solve, the latter with NonPositiveClearance from the assembly.
        """
        if self._flat and 0.0 < beta <= self._beta_max and -math.inf < gamma < self.V1:
            load = (-gamma) * self._unit_load / beta**3
            return load - self.problem.F, load, 0
        fld = self.field(beta, gamma, tol)
        load = load_integral(fld, self.problem.grid)
        return load - self.problem.F, load, fld.iterations

    def field(self, beta: float, gamma: float, tol: float | None = None) -> PressureField:
        """Materialize the pressure field at (beta, gamma): the zero field
        at gamma >= V1, else one solve at tol (None means solver.tol),
        warm started from the evaluator's last seven solves (_warm_start):
        the plane through the newest and two well-separated earlier ones,
        else their secant.  With no earlier solve (_history empty) the
        solve is cold.  A non-finite state is rejected before any solve.
        """
        _check_state(beta, gamma)
        if gamma >= self.V1:
            ny, nx = self.problem.grid.ny, self.problem.grid.nx
            return PressureField(
                values=np.zeros((ny, nx)), residual_comp=0.0, residual_lin=0.0, iterations=0
            )
        if tol is None:
            tol = self.problem.solver.tol
        sol = self._solve(beta, gamma, _warm_start(self._history, beta, gamma), tol)
        self._history.append((beta, gamma, sol.values))
        del self._history[:-_HISTORY]
        return sol

    def _solve(
        self, beta: float, gamma: float, start: np.ndarray | None, tol: float
    ) -> PressureField:
        """One counted solve_vi_psor at (beta, gamma) from start, at tol and
        the problem's other solver settings.

        With solver.omega unset, the relaxation is vi_solver.relaxation of
        the newest solution and the kept pair: the kept omega while the
        free set of the newest solution stays near the kept one, else a new
        estimate, kept.  The first solve estimates on b > 0.  The start is
        not read: an extrapolated start can hold free nodes that no
        solution has.  A solve that the solver cuts off (b <= 0
        everywhere) estimates nothing and keeps what was kept.
        """
        system = self.problem.assemble(beta, gamma)
        omega = self.problem.solver.omega
        if omega is None and (system.b > 0.0).any():
            newest = self._history[-1][2] if self._history else None
            relax = relaxation(system, newest, self._relax)
            if relax is not self._relax:
                self._relax = relax
                self.n_omega_estimates += 1
            omega = relax[1]
        sol = solve_vi_psor(system, omega=omega, tol=tol, warm_start=start)
        self.n_solves += 1
        self.n_sweeps += sol.iterations
        return sol

    def jacobian(self, beta: float, gamma: float) -> tuple[float, float]:
        """(dG/dbeta, dG/dgamma) of the flat profile at (beta, gamma), the
        second row of the Jacobian of (eta, eta') -> (eta', G).

        Zero at gamma >= V1, where G = -F.  Below it, from the unit load L
        (the load eval reports at beta 1, gamma -1):
        dG/dgamma = -L/beta^3 and dG/dbeta = -3 gamma/beta dG/dgamma.
        Other shapes have no film Jacobian here.  A non-finite state is
        rejected as in field, and a beta above the geometry's beta_max
        with NonPositiveClearance, as the assembly rejects it.
        """
        if not self._flat:
            raise ValueError("the film Jacobian is available for the flat profile only")
        _check_state(beta, gamma)
        if gamma >= self.V1:
            return 0.0, 0.0
        if beta > self._beta_max:
            raise NonPositiveClearance(
                f"film Jacobian requires beta <= {self._beta_max:.6g}, got {beta}"
            )
        dg_dgamma = -self._unit_load / beta**3
        return -3.0 * gamma / beta * dg_dgamma, dg_dgamma


# Dormand-Prince 5(4) coefficients; the system is autonomous so stage
# times are not needed.  FSAL: the last stage of an accepted step is the
# first stage of the next.
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_E = (
    35.0 / 384.0 - 5179.0 / 57600.0,
    0.0,
    500.0 / 1113.0 - 7571.0 / 16695.0,
    125.0 / 192.0 - 393.0 / 640.0,
    -2187.0 / 6784.0 + 92097.0 / 339200.0,
    11.0 / 84.0 - 187.0 / 2100.0,
    -1.0 / 40.0,
)
# a Dormand-Prince step's film solves stop at _SOLVE_KAPPA of its error
# budget, and never looser than _SOLVE_TOL_MAX (see _step_solve_tol)
_SOLVE_KAPPA, _SOLVE_TOL_MAX = 0.3, 1e-6
_DP_E_SUM = sum(abs(e) for e in _DP_E)  # ~0.160


def _step_solve_tol(problem, abs_tol, rel_tol):
    """The film-solve tolerance of a run's Dormand-Prince steps, as a
    function of the velocity v at a step's start and its size h:
    _SOLVE_KAPPA (abs_tol + rel_tol |v|) / (area(Omega) sum|e_i| h),
    clamped to [solver.tol, _SOLVE_TOL_MAX] (integrate_trajectory, Notes).
    """
    floor = problem.solver.tol
    scale = _SOLVE_KAPPA / (problem.grid.domain.area * _DP_E_SUM)

    def tol(v, h):
        return max(floor, min(_SOLVE_TOL_MAX, scale * (abs_tol + rel_tol * abs(v)) / h))

    return tol


def _dp_step(f, y, v, g, h):
    """One Dormand-Prince 5(4) step of (eta, eta')' = (eta', G) from (y, v).

    g = G(y, v) is the first stage; f(eta, eta') returns G first and is
    called six times.  Returns (y_new, v_new, err_y, err_v, f7): f7, f's
    result at stage 7, is taken at the new state exactly (FSAL).

    The tableau is unrolled, each combination as sum()'s left fold over
    its terms: from 0.0 (so a -0.0 term gives +0.0), zero coefficients
    kept, which makes every result bit-equal to the generic tableau sums.
    The last row of A is b, and b7 = 0 adds only +-0.0 to a fold that is
    never -0.0, so the new state is stage 7's argument.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = _DP_A[1:5]
    a61, a62, a63, a64, a65 = _DP_A[5]
    b1, b2, b3, b4, b5, b6, _ = _DP_B5
    e1, e2, e3, e4, e5, e6, e7 = _DP_E
    k1y, k1v = v, g
    k2y = v + h * (0.0 + a21 * k1v)
    k2v = f(y + h * (0.0 + a21 * k1y), k2y)[0]
    k3y = v + h * (0.0 + a31 * k1v + a32 * k2v)
    k3v = f(y + h * (0.0 + a31 * k1y + a32 * k2y), k3y)[0]
    k4y = v + h * (0.0 + a41 * k1v + a42 * k2v + a43 * k3v)
    k4v = f(y + h * (0.0 + a41 * k1y + a42 * k2y + a43 * k3y), k4y)[0]
    k5y = v + h * (0.0 + a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
    k5v = f(y + h * (0.0 + a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y), k5y)[0]
    k6y = v + h * (0.0 + a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
    k6v = f(y + h * (0.0 + a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y), k6y)[0]
    k7y = v + h * (0.0 + b1 * k1v + b2 * k2v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
    y7 = y + h * (0.0 + b1 * k1y + b2 * k2y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
    f7 = f(y7, k7y)
    k7v = f7[0]
    err_y = h * (0.0 + e1 * k1y + e2 * k2y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y)
    err_v = h * (0.0 + e1 * k1v + e2 * k2v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
    return y7, k7y, err_y, err_v, f7


# RODAS 4(3) (Hairer & Wanner, Solving ODEs II, sec. VI.4; rodas.f, METH=1),
# autonomous form: a 6-stage, stiffly accurate, L-stable Rosenbrock pair
# with gamma 1/4.  Stage i solves
# (I/(h gamma) - J) K_i = f(y + sum a_ij K_j) + sum c_ij K_j / h.  Stage 6 is
# evaluated at stage 5's argument plus K5, the order-3 solution, and y_new
# is stage 6's argument plus K6, so the error estimate is K6.
_R4_GAMMA = 0.25
_R4_A = (
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950),
)
_R4_C = (
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
     -6.058818238834054),
)


# unpacked once: _rodas4_step reads the coefficients as module globals
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54) = _R4_A
(_C21,), (_C31, _C32), (_C41, _C42, _C43) = _R4_C[:3]
(_C51, _C52, _C53, _C54), (_C61, _C62, _C63, _C64, _C65) = _R4_C[3:]


def _rodas4_step(f, y, v, g, jb, jg, h):
    """One RODAS 4(3) step of (eta, eta')' = (eta', G) from (y, v).

    g = G(y, v) and J = [[0, 1], [jb, jg]] at (y, v); f(eta, eta') returns
    G first and is called five times, once per stage after the first.
    Each stage's 2x2 system (I/(h gamma) - J) K = r is solved by Cramer's
    rule, r = (r1, r2) being the stage's eta' and G plus its sums
    c_ij K_j / h.  Returns (y_new, v_new, err_y, err_v).
    """
    a = 1.0 / (h * _R4_GAMMA)
    d = a - jg
    det = a * d - jb
    hi = 1.0 / h
    k1y, k1v = (d * v + g) / det, (a * g + jb * v) / det
    v2 = v + _A21 * k1v
    r1 = v2 + hi * (_C21 * k1y)
    r2 = f(y + _A21 * k1y, v2)[0] + hi * (_C21 * k1v)
    k2y, k2v = (d * r1 + r2) / det, (a * r2 + jb * r1) / det
    v3 = v + _A31 * k1v + _A32 * k2v
    r1 = v3 + hi * (_C31 * k1y + _C32 * k2y)
    r2 = f(y + _A31 * k1y + _A32 * k2y, v3)[0] + hi * (_C31 * k1v + _C32 * k2v)
    k3y, k3v = (d * r1 + r2) / det, (a * r2 + jb * r1) / det
    v4 = v + _A41 * k1v + _A42 * k2v + _A43 * k3v
    r1 = v4 + hi * (_C41 * k1y + _C42 * k2y + _C43 * k3y)
    r2 = f(y + _A41 * k1y + _A42 * k2y + _A43 * k3y, v4)[0] + hi * (
        _C41 * k1v + _C42 * k2v + _C43 * k3v
    )
    k4y, k4v = (d * r1 + r2) / det, (a * r2 + jb * r1) / det
    y5 = y + _A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y
    v5 = v + _A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v
    r1 = v5 + hi * (_C51 * k1y + _C52 * k2y + _C53 * k3y + _C54 * k4y)
    r2 = f(y5, v5)[0] + hi * (_C51 * k1v + _C52 * k2v + _C53 * k3v + _C54 * k4v)
    k5y, k5v = (d * r1 + r2) / det, (a * r2 + jb * r1) / det
    y6, v6 = y5 + k5y, v5 + k5v
    r1 = v6 + hi * (_C61 * k1y + _C62 * k2y + _C63 * k3y + _C64 * k4y + _C65 * k5y)
    r2 = f(y6, v6)[0] + hi * (_C61 * k1v + _C62 * k2v + _C63 * k3v + _C64 * k4v + _C65 * k5v)
    k6y, k6v = (d * r1 + r2) / det, (a * r2 + jb * r1) / det
    return y6 + k6y, v6 + k6v, k6y, k6v


class _StageContact(Exception):
    pass


def _initial_step(f, y, v, ky, kv, abs_tol, rel_tol, t_end):
    """The first step size: the starting-step rule of Hairer, Norsett and
    Wanner (Solving ODEs I, sec. II.4) for the order-5 pair.

    (ky, kv) = f0, the derivative at the start (y, v).  Norms are the
    controller's weighted RMS norm with scale abs_tol + rel_tol |y0|.
    h0 = 0.01 |y0| / |f0| (1e-6 when either norm is below 1e-5) sizes one
    explicit Euler probe f1 = f(y0 + h0 f0), made through the guarded f;
    a probe at or below the contact guard starts the run at h0.  With
    d2 = |f1 - f0| / h0 the step is min(100 h0, h1, t_end), where
    h1 = (0.01 / max(|f0|, d2))^(1/5), or max(1e-6, 1e-3 h0) when both
    vanish (a start at rest in equilibrium).
    """
    sy, sv = abs_tol + rel_tol * abs(y), abs_tol + rel_tol * abs(v)

    def norm(a, b):
        return math.sqrt(0.5 * ((a / sy) ** 2 + (b / sv) ** 2))

    d0, d1 = norm(y, v), norm(ky, kv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    try:
        g1 = f(y + h0 * ky, v + h0 * kv)[0]
    except _StageContact:
        return min(h0, t_end)
    d2 = norm(v + h0 * kv - ky, g1 - kv) / h0
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, 1e-3 * h0)
    return min(100.0 * h0, h1, t_end)


def integrate_trajectory(
    problem: Problem, t_end: float, step_control: StepControl | None = None
) -> Trajectory:
    """Integrate the height equation: Dormand-Prince, switching to RODAS 4(3) when stiff.

    Parameters
    ----------
    problem : Problem
        Shape, grid, load and initial data; solver knobs are taken from
        problem.solver for every film solve, solver.tol as the floor of
        the step tolerance (Notes).
    t_end : float
        Integration horizon (> 0).
    step_control : StepControl, optional
        Error tolerances, contact guard and sample cap; the guard
        defaults to 1e-4 * eta0.

    Returns
    -------
    Trajectory
        Accepted samples (t, eta, eta', G, load, E1, E2, sweeps), the
        termination record, the energy-monitor report, the time of the
        switch to RODAS 4(3) (stiff_from, None when the run never switched),
        and the run's film solves and sweeps (n_solves, n_sweeps).

    Notes
    -----
    Every derivative evaluation is one film solve, warm started by
    GEvaluator's predictor along the step chain (_warm_start): the plane
    through the last solve and two earlier ones that are not too close
    to it, which skips the near-coincident stage 6 of each FSAL step;
    the exact shortcuts of GEvaluator apply.  A flat-profile run solves
    nothing: its loads scale the closed-form unit load, so it reports 0
    solves, sweeps and omega estimates, and its psor_iters are all 0.
    The first step size comes from the starting-step rule of Hairer,
    Norsett and Wanner (_initial_step): it costs one more force
    evaluation, an explicit Euler probe, and depends on t_end only
    through the cap dt <= t_end.

    A Dormand-Prince step's film solves are only as accurate as the step
    needs, as Hairer and Wanner stop the Newton iterations of implicit
    Runge-Kutta methods at kappa Tol (Solving ODEs II, sec. IV.8).  Each
    attempt, retries included, solves its six stages at
    max(solver.tol, min(1e-6, 0.3 (abs_tol + rel_tol |eta'|) /
    (area(Omega) sum|e_i| h))) (_step_solve_tol), with eta' at the step's
    start and sum|e_i| ~ 0.160 over DP's error weights: a load error
    area(Omega) tol in every stage moves the error estimate by at most
    h sum|e_i| area(Omega) tol, so kappa = 0.3 leaves the solves 30% of
    the budget.  kappa is a fixed safety factor in place of a certified
    solve-error bound: it absorbs the PSOR stop test's understatement of
    the true error (2.4-15 times), which the worst-sign sum above leaves
    room for; rejected steps do not rise, where a fixed solve tol of 1e-7
    triples them on a long run.  The start solves at solver.tol.  The
    starting-step probe only sizes h0, so it solves at the loosest stage
    tolerance, max(solver.tol, 1e-6).  RODAS 4(3) steps, flat only, make
    no solve.

    One step loop serves both steppers and owns the controller: the caps
    dt <= t_end - t and dt <= (eta1 - V1) / F - t (while a run from
    eta1 > V1 coasts at G = -F, unless that is under 1e-12 t_end: a step
    lands on G's kink in eta'), the weighted RMS error with scale
    abs_tol + rel_tol max(|y|, |y_new|), acceptance at error <= 1, the
    step factor 0.9 err^(-1/(q+1)) clamped to [0.2, 5] for an error
    estimate of order q (5 at zero error), a retry at 0.2 h when the
    error is not finite, and a retry at 0.25 h when a stage or the end
    point falls to the contact guard.  A stepper contributes its
    step, its exponent and what follows an accepted step.

    The run starts with the embedded Dormand-Prince 5(4) pair (_dp_step,
    exponent -1/5): its seventh stage is the accepted state, so that
    force value is the sample and the next step's first stage (FSAL).
    A flat-profile run takes the exact Jacobian J = [[0, 1], [jb, jg]]
    (GEvaluator.jacobian) at every accepted sample.  After the first
    accepted Dormand-Prince step h with h rho(J) > 1.25 at its end
    (_STIFF_RHO; rho the spectral radius, computed only until then), the
    run takes RODAS 4(3) steps (_rodas4_step, exponent -1/4) that reuse
    the sample's J: the L-stable pair needs no step restriction from the
    damping dG/deta' ~ -1/eta^3.  A RODAS 4(3) step makes five force
    evaluations, its first stage being the sample's, plus one at its new
    sample; configs/flat_decay.json switches at t ~ 2.85 and ends with
    235 samples.  The switch is one-way; other shapes have no film
    Jacobian.

    The run ends with CONTACT_GUARD when the height falls to the guard
    and with STEP_FAILURE when the controller underflows 1e-12 * t_end or
    an accepted step would add a sample beyond _MAX_SAMPLES (2,000,000).
    That step is dropped: the trajectory holds at most _MAX_SAMPLES
    samples and the termination time is that of its last sample.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    sc = step_control or StepControl()
    eps_contact = sc.eps_contact if sc.eps_contact is not None else 1e-4 * problem.eta0
    dt_min = _DT_MIN_FRACTION * t_end
    abs_tol, rel_tol = sc.abs_tol, sc.rel_tol
    ev = GEvaluator(problem)
    c1 = c1_constant(problem.shape, problem.grid.domain)
    F = problem.F
    t_coast = (problem.eta1 - ev.V1) / F  # G = -F until then (Notes)

    ts, etas, vels, gs, loads = (array("d") for _ in range(5))
    sweeps = array("q")

    def record(t, eta, v, g, load, iters):
        ts.append(t)
        etas.append(eta)
        vels.append(v)
        gs.append(g)
        loads.append(load)
        sweeps.append(iters)

    def finish(kind, time, detail=""):
        eta, eta_dot = np.frombuffer(etas), np.frombuffer(vels)
        energy1 = 0.5 * eta_dot * eta_dot + F * eta
        traj = Trajectory(
            t=np.frombuffer(ts),
            eta=eta,
            eta_dot=eta_dot,
            G=np.frombuffer(gs),
            load=np.frombuffer(loads),
            E1=energy1,
            E2=energy1 + (c1 / (2.0 * eta * eta) if c1 else 0.0),
            psor_iters=np.frombuffer(sweeps, dtype=np.int64),
            termination=Termination(kind=kind, time=time, detail=detail),
            n_rejected=n_rejected,
            stiff_from=stiff_from,
            n_solves=ev.n_solves,
            n_sweeps=ev.n_sweeps,
            n_omega_estimates=ev.n_omega_estimates,
        )
        traj.monitor = monitor_energies(traj)
        return traj

    ev_eval = ev.eval
    # the tolerance of f's solves: solver.tol (None) for the start, the
    # loosest stage tolerance for its probe, then the current
    # Dormand-Prince step's
    step_tol = _step_solve_tol(problem, abs_tol, rel_tol)
    solve_tol = None

    def f(eta, v):
        """One derivative evaluation: returns (eta'', load, sweeps)."""
        if eta <= eps_contact:
            raise _StageContact
        return ev_eval(eta, v, solve_tol)

    t = 0.0
    y = problem.eta0
    v = problem.eta1
    n_rejected = 0
    stiff_from = jac = None  # jac: the Jacobian (dG/deta, dG/deta') once on RODAS 4(3)
    flat = problem.shape.kind is ShapeKind.FLAT
    expo = -0.2  # the controller exponent, -1/(1 + the error estimate's order)
    if y <= eps_contact:
        raise ValueError("eta0 is already at the contact guard")

    g, load, iters = f(y, v)
    record(t, y, v, g, load, iters)
    solve_tol = max(problem.solver.tol, _SOLVE_TOL_MAX)
    dt = _initial_step(f, y, v, v, g, abs_tol, rel_tol, t_end)

    while t < t_end * (1.0 - 1e-15):
        dt = min(dt, t_end - t)
        if dt_min <= t_coast - t < dt:  # a shorter rest of the coast is stepped across
            dt = t_coast - t
        if dt < dt_min:
            return finish(TerminationKind.STEP_FAILURE, t, f"step size underflow (dt={dt:.3e})")
        try:
            if jac is None:
                solve_tol = step_tol(v, dt)
                y_new, v_new, err_y, err_v, f_new = _dp_step(f, y, v, g, dt)
            else:
                y_new, v_new, err_y, err_v = _rodas4_step(f, y, v, g, *jac, dt)
                if y_new <= eps_contact:  # f is evaluated there once accepted
                    raise _StageContact
        except _StageContact:
            # a stage probed at or below the guard: shrink, or give up and
            # report the guard when the step cannot be resolved
            if dt * 0.25 < dt_min or y <= 2.0 * eps_contact:
                return finish(
                    TerminationKind.CONTACT_GUARD,
                    t,
                    f"height reached the contact guard {eps_contact:.3e}",
                )
            dt *= 0.25
            n_rejected += 1
            continue
        sy = abs_tol + rel_tol * max(abs(y), abs(y_new))
        sv = abs_tol + rel_tol * max(abs(v), abs(v_new))
        err = math.sqrt(0.5 * ((err_y / sy) ** 2 + (err_v / sv) ** 2))
        if not math.isfinite(err):
            dt *= 0.2
            n_rejected += 1
            continue
        if err > 1.0:
            n_rejected += 1
            dt *= max(0.2, 0.9 * err**expo)
            continue
        if len(ts) >= _MAX_SAMPLES:
            return finish(TerminationKind.STEP_FAILURE, t, f"sample cap {_MAX_SAMPLES} reached")
        t, y, v, h = t + dt, y_new, v_new, dt
        dt *= min(5.0, max(0.2, 0.9 * err**expo)) if err > 0.0 else 5.0
        if jac is None:
            # FSAL: stage 7 was evaluated at (y, v); it is this sample and
            # the next step's first stage
            g, load, iters = f_new
        else:
            g, load, iters = f(y, v)
        record(t, y, v, g, load, iters)
        if jac is not None:
            jac = ev.jacobian(y, v)
        elif flat:
            jb, jg = ev.jacobian(y, v)
            disc = jg * jg + 4.0 * jb  # rho(J) from J's characteristic polynomial
            rho = 0.5 * (abs(jg) + math.sqrt(disc)) if disc >= 0.0 else math.sqrt(-jb)
            if h * rho > _STIFF_RHO:
                stiff_from, expo, jac = t, -0.25, (jb, jg)
    return finish(TerminationKind.REACHED_HORIZON, t)


_MONITOR_KINDS = (None, "descent", "ascent")


def monitor_energies(trajectory: Trajectory, tol: float = 1e-4) -> MonitorReport:
    """Check the sampled energy monotonicity laws segment by segment.

    Consecutive sample pairs with eta' <= 0 at both ends must not
    increase E1; pairs with eta' >= 0 at both ends must not increase E2
    (see MonitorReport).  Pairs straddling a sign change are not
    constrained.  Segments are maximal runs of same-kind pairs; the
    report carries the worst violation found anywhere.
    """
    n = len(trajectory)
    segments = []
    worst = 0.0
    if n >= 2:
        v = np.asarray(trajectory.eta_dot)
        descent = (v[:-1] <= 0.0) & (v[1:] <= 0.0)
        ascent = ~descent & (v[:-1] >= 0.0) & (v[1:] >= 0.0)
        rise = np.where(
            descent, np.diff(trajectory.E1), np.where(ascent, np.diff(trajectory.E2), 0.0)
        )
        # max(0, rise) as a comparison, so that a NaN rise counts as 0
        violation = np.where(rise > 0.0, rise, 0.0)
        kind = descent + 2 * ascent  # index into _MONITOR_KINDS
        starts = np.flatnonzero(np.diff(kind, prepend=-1))
        stops = np.append(starts[1:], n - 1)
        seg_worst = np.maximum.reduceat(violation, starts)
        for start, stop, k, w in zip(
            starts.tolist(), stops.tolist(), kind[starts].tolist(), seg_worst.tolist()
        ):
            if k:
                segments.append(
                    MonitorSegment(
                        start=start,
                        stop=stop,
                        kind=_MONITOR_KINDS[k],
                        worst_violation=w,
                        passed=w <= tol,
                    )
                )
                worst = max(worst, w)
    return MonitorReport(
        segments=tuple(segments), worst_violation=worst, passed=worst <= tol, tol=tol
    )


@dataclass(frozen=True)
class SpringDamperCheck:
    gamma: float
    G: float
    lower_bound: float
    margin: float


@dataclass(eq=False)
class SpringDamper:
    """Lower-bound decomposition of the film force on a sub-region.

    G(beta, gamma) >= F_S - gamma * d - F for every gamma: F_S is the
    stationary wedge load of the region, d its damping coefficient.  The
    checks record the inequality margin against the film force.
    """

    beta: float
    F_S: float
    d: float
    checks: tuple
    passed: bool


def spring_damper_decomposition(
    problem: Problem,
    beta: float,
    box: ContactBox,
    check_gammas: tuple = (-1.0, -0.5, 0.0),
    check_tol: float = 1e-6,
) -> SpringDamper:
    """Solve the two auxiliary region problems and verify the force bound.

    The wedge problem (load -dh0/dx1) gives the spring force F_S, the
    unit-load problem the damping coefficient d, both on the box with
    zero boundary data.  The bound G >= F_S - gamma d - F is then checked
    against the film force of one GEvaluator at the requested gammas.
    """
    grid = problem.grid
    mask = region_node_mask(grid, box)
    if not np.any(mask):
        raise BoxOutsideDomain("no grid nodes fall inside the box; refine the grid")
    system = problem.assemble(beta, 0.0)
    q1 = solve_linear(system, tol=1e-11, mask=mask)  # b at gamma=0 is the wedge load
    ones = np.full_like(system.b, grid.cell_area)
    q2 = solve_linear(system, rhs_override=ones, tol=1e-11, mask=mask)
    F_S = float(np.sum(q1.values[mask])) * grid.cell_area
    d = float(np.sum(q2.values[mask])) * grid.cell_area

    checks = []
    ev = GEvaluator(problem)
    ok = True
    for gamma in check_gammas:
        g_val = ev.eval(beta, gamma)[0]
        lower = F_S - gamma * d - problem.F
        margin = g_val - lower
        checks.append(SpringDamperCheck(gamma=gamma, G=g_val, lower_bound=lower, margin=margin))
        ok = ok and margin >= -check_tol
    return SpringDamper(beta=beta, F_S=F_S, d=d, checks=tuple(checks), passed=ok)
